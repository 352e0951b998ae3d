package rads

import (
	"errors"
	"fmt"
	"sync"

	"rads/internal/cluster"
	"rads/internal/obs"
)

// PullStats fetches every worker's registry snapshot over the
// statsPull RPC, in parallel. Machines marked down are skipped
// without a call — a fleet scrape must not burn a timeout per
// down worker. Both slices are indexed by machine id; a machine has
// either a response or an error, never both (a skipped machine gets a
// WorkerDownError). Outcomes feed the liveness rule like any other RPC.
func (c *ClusterEngine) PullStats() ([]*StatsPullResponse, []error) {
	resps := make([]*StatsPullResponse, c.m)
	errs := make([]error, c.m)
	var wg sync.WaitGroup
	for t := 0; t < c.m; t++ {
		if !c.health.up(t) {
			errs[t] = &WorkerDownError{Machine: t}
			continue
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			resp, err := c.tr.Call(cluster.Coordinator, t, &StatsPullRequest{})
			c.reportOutcome(t, err)
			if err != nil {
				if !errors.Is(err, cluster.ErrRemote) {
					errs[t] = &WorkerDownError{Machine: t, Cause: err}
					return
				}
				errs[t] = fmt.Errorf("rads: machine %d: %w", t, err)
				return
			}
			r, ok := resp.(*StatsPullResponse)
			if !ok {
				errs[t] = fmt.Errorf("rads: machine %d replied %T to statsPull", t, resp)
				return
			}
			resps[t] = r
		}(t)
	}
	wg.Wait()
	return resps, errs
}

// FleetFamilies converts a PullStats result into the per-machine
// family list obs.WriteFleet renders; machines that failed the pull
// are absent (the /debug/cluster summary names them instead).
func FleetFamilies(resps []*StatsPullResponse) []obs.MachineFamilies {
	out := make([]obs.MachineFamilies, 0, len(resps))
	for t, r := range resps {
		if r == nil {
			continue
		}
		out = append(out, obs.MachineFamilies{Machine: t, Families: r.Families})
	}
	return out
}

// WorkerSummary is one machine's row in the /debug/cluster fleet view:
// its liveness joined with the registry snapshot the machine just
// served.
type WorkerSummary struct {
	Machine int  `json:"machine"`
	Up      bool `json:"up"`
	// HeartbeatAgeSeconds is how long ago the machine was last heard
	// from (-1 = never).
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	// StatsError is why the statsPull failed ("" = it succeeded and the
	// fields below are live).
	StatsError string `json:"stats_error,omitempty"`
	// Fingerprint is the machine's partition fingerprint (hex); every
	// machine of a consistent fleet reports the same value.
	Fingerprint string `json:"fingerprint,omitempty"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	// CacheHitRatio is hits/(hits+misses), -1 when the machine has not
	// served a fetch phase yet.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// ClusterSummary is the /debug/cluster payload.
type ClusterSummary struct {
	Healthy  bool            `json:"healthy"`
	Machines int             `json:"machines"`
	Workers  []WorkerSummary `json:"workers"`
}

// Summary joins the per-worker health report with a fresh
// statsPull sweep into the fleet summary behind /debug/cluster and
// radsstat -addr.
func (c *ClusterEngine) Summary() ClusterSummary {
	sum := ClusterSummary{Healthy: c.Healthy(), Machines: c.m}
	// One row per machine; none without StartHealth.
	health := c.HealthReport().Workers
	resps, errs := c.PullStats()
	for t := 0; t < c.m; t++ {
		ws := WorkerSummary{
			Machine: t, Up: true, HeartbeatAgeSeconds: -1, CacheHitRatio: -1,
		}
		if t < len(health) {
			w := health[t]
			ws.Up = w.Up
			ws.HeartbeatAgeSeconds = w.LastSeen
		}
		if r := resps[t]; r != nil {
			ws.Fingerprint = fmt.Sprintf("%016x", r.Fingerprint)
			ws.CacheHits, _ = obs.SnapshotCounter(r.Families, "rads_cache_hits_total", "")
			ws.CacheMisses, _ = obs.SnapshotCounter(r.Families, "rads_cache_misses_total", "")
			if total := ws.CacheHits + ws.CacheMisses; total > 0 {
				ws.CacheHitRatio = float64(ws.CacheHits) / float64(total)
			}
		} else if errs[t] != nil {
			ws.StatsError = errs[t].Error()
		}
		sum.Workers = append(sum.Workers, ws)
	}
	return sum
}
