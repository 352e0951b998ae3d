package service

import (
	"sort"

	_ "rads/internal/engine/all" // register RADS and the baselines
)

// EngineInfo describes one engine the service can route to — the
// /engines payload of radserve.
type EngineInfo struct {
	Name    string `json:"name"`
	Default bool   `json:"default,omitempty"`
	// Capability flags, from the engine's declared Capabilities.
	Streaming         bool   `json:"streaming"`
	Cancellation      bool   `json:"cancellation"`
	PreparedArtifacts bool   `json:"prepared_artifacts"`
	ArtifactScope     string `json:"artifact_scope,omitempty"`
}

// Engines lists every engine this service routes to, sorted by name.
func (s *Service) Engines() []EngineInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EngineInfo, 0, len(s.engines))
	for name, e := range s.engines {
		caps := e.Capabilities()
		info := EngineInfo{
			Name:              name,
			Default:           name == s.cfg.DefaultEngine,
			Streaming:         caps.Streaming,
			Cancellation:      caps.Cancellation,
			PreparedArtifacts: caps.PreparedArtifacts(),
		}
		if info.PreparedArtifacts {
			info.ArtifactScope = caps.ArtifactScope.String()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
