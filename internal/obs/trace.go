package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed step of a query: a named phase with machine/worker
// attribution. Spans are hierarchical by naming convention only —
// "execute" is a top-level phase, "execute/verifyE" a sub-phase. The
// top-level phases of a query tile its wall time; sub-phases overlap
// them and exist for drill-down.
type Span struct {
	// Name is the phase name ("plan", "execute", "execute/steal", ...).
	Name string `json:"name"`
	// Machine is the machine id the span ran on (-1 = coordinator).
	Machine int `json:"machine"`
	// Worker is the worker index within the machine (-1 = not a pool
	// worker).
	Worker int `json:"worker"`
	// StartNs is the span start, nanoseconds since the trace began.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
}

// maxSpans bounds per-trace memory; beyond it spans are dropped (the
// phase aggregation still counts them) and Profile.DroppedSpans says
// how many.
const maxSpans = 4096

// Trace collects the spans of one query execution. A nil *Trace is
// valid everywhere and records nothing, so hot paths need no guards.
// All methods are safe for concurrent use — machine goroutines and
// worker pools record into the same trace.
type Trace struct {
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int64
	// phase aggregation: total ns and span count per name. Kept
	// separately from spans so aggregation survives span dropping.
	phaseNs    map[string]int64
	phaseCount map[string]int64
}

// NewTrace starts a trace; its clock zero is now.
func NewTrace() *Trace {
	return &Trace{
		start:      time.Now(),
		phaseNs:    make(map[string]int64),
		phaseCount: make(map[string]int64),
	}
}

// Running is an open span returned by Trace.Start; call End to record
// it. The zero Running (from a nil trace) is valid and End on it is a
// no-op.
type Running struct {
	tr      *Trace
	name    string
	machine int
	worker  int
	began   time.Time
}

// Start opens a span. machine -1 means coordinator, worker -1 means
// not attributable to a pool worker.
func (t *Trace) Start(name string, machine, worker int) Running {
	if t == nil {
		return Running{}
	}
	return Running{tr: t, name: name, machine: machine, worker: worker, began: time.Now()}
}

// End closes the span and records it.
func (r Running) End() {
	if r.tr == nil {
		return
	}
	r.tr.record(r.name, r.machine, r.worker, r.began.Sub(r.tr.start), time.Since(r.began))
}

// AddPhase folds an externally measured duration into the trace as a
// span starting now-d — used when a caller timed an opaque step itself
// (the service's single "execute" phase for engines that do not trace).
func (t *Trace) AddPhase(name string, machine int, d time.Duration) {
	if t == nil {
		return
	}
	t.record(name, machine, -1, time.Since(t.start)-d, d)
}

func (t *Trace) record(name string, machine, worker int, offset, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phaseNs[name] += d.Nanoseconds()
	t.phaseCount[name]++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{
		Name: name, Machine: machine, Worker: worker,
		StartNs: offset.Nanoseconds(), DurNs: d.Nanoseconds(),
	})
}

// Spans returns a copy of the recorded spans in recording order — the
// serialized form a remote machine ships back to its coordinator. Nil
// for a nil or span-less trace.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// SinceStart returns nanoseconds elapsed since the trace's clock zero
// — the anchor offset for stitching a remote machine's spans into this
// trace's timeline. 0 for a nil trace.
func (t *Trace) SinceStart() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// AddRemoteSpans stitches another trace's span list into this one:
// each span keeps its shape but is re-anchored at baseNs (this trace's
// offset at which the remote trace's clock zero began) and re-attributed
// to machine. Because both traces measure offsets from their own local
// clock zero, absolute clock skew between the two hosts cancels — only
// the dispatch latency folded into baseNs remains. The spans also feed
// this trace's phase aggregation, exactly as if recorded locally. Only
// sub-phases cross over: remote time runs inside one of this trace's
// own top-level spans, so the remote trace's top-level phases would
// break the tiling (its "execute/machine" already carries the whole
// remote run).
func (t *Trace) AddRemoteSpans(machine int, baseNs int64, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if !IsSubPhase(s.Name) {
			continue
		}
		t.phaseNs[s.Name] += s.DurNs
		t.phaseCount[s.Name]++
		if len(t.spans) >= maxSpans {
			t.dropped++
			continue
		}
		t.spans = append(t.spans, Span{
			Name: s.Name, Machine: machine, Worker: s.Worker,
			StartNs: baseNs + s.StartNs, DurNs: s.DurNs,
		})
	}
}

// SortSpans orders spans for timeline display: by start offset, then
// machine, then name — the canonical order of a stitched cross-machine
// trace. Snapshot deliberately preserves recording order; coordinators
// sort after stitching.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		if spans[i].Machine != spans[j].Machine {
			return spans[i].Machine < spans[j].Machine
		}
		return spans[i].Name < spans[j].Name
	})
}

// PhaseStat is the aggregate of all spans sharing a name.
type PhaseStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// MachineStat summarizes one machine's contribution to a query.
type MachineStat struct {
	Machine   int     `json:"machine"`
	Seconds   float64 `json:"seconds"`
	TreeNodes int64   `json:"tree_nodes"`
	Groups    int     `json:"groups"`
	Stolen    int     `json:"stolen"`
}

// Profile is the durable record of one query's execution: what the
// trace aggregates to once the query completes. It is attached to
// engine.Result and kept in the service's recent/slow ring buffers.
type Profile struct {
	// ID is the service-assigned query id (0 outside the service).
	ID uint64 `json:"id,omitempty"`
	// Query is the canonical pattern text; Engine the engine that ran.
	Query  string `json:"query,omitempty"`
	Engine string `json:"engine,omitempty"`
	// StartUnixMs is the query start, milliseconds since the epoch.
	StartUnixMs int64 `json:"start_unix_ms,omitempty"`
	// WallSeconds is end-to-end execution time (excluding queueing);
	// QueuedSeconds the admission-queue wait before it.
	WallSeconds   float64 `json:"wall_seconds"`
	QueuedSeconds float64 `json:"queued_seconds,omitempty"`
	// Phases aggregates spans by name, sorted by descending time.
	Phases []PhaseStat `json:"phases"`
	// Machines breaks the run down per machine (RADS runs only).
	Machines []MachineStat `json:"machines,omitempty"`
	// Kernels counts the run's own intersection-kernel selections
	// (RADS runs only), summed over its machines' workers — exact per
	// query, in-process and in cluster mode.
	Kernels map[string]int64 `json:"kernels,omitempty"`
	// Steals is the total number of region groups stolen.
	Steals int `json:"steals,omitempty"`
	// Spans is the raw span list (capped; DroppedSpans counts the
	// overflow).
	Spans        []Span `json:"spans,omitempty"`
	DroppedSpans int64  `json:"dropped_spans,omitempty"`
	CacheHit     bool   `json:"cache_hit,omitempty"`
	Error        string `json:"error,omitempty"`
}

// Snapshot freezes the trace into a Profile. wall is the query's
// measured wall time; it, not the span extent, is the denominator of
// AccountedFraction. Safe to call while spans are still being recorded
// (it copies under the lock), though normally called once at the end.
func (t *Trace) Snapshot(wall time.Duration) *Profile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &Profile{
		StartUnixMs:  t.start.UnixMilli(),
		WallSeconds:  wall.Seconds(),
		Phases:       make([]PhaseStat, 0, len(t.phaseNs)),
		Spans:        append([]Span(nil), t.spans...),
		DroppedSpans: t.dropped,
	}
	for name, ns := range t.phaseNs {
		p.Phases = append(p.Phases, PhaseStat{
			Name: name, Seconds: time.Duration(ns).Seconds(), Count: t.phaseCount[name],
		})
	}
	sort.Slice(p.Phases, func(i, j int) bool {
		if p.Phases[i].Seconds != p.Phases[j].Seconds {
			return p.Phases[i].Seconds > p.Phases[j].Seconds
		}
		return p.Phases[i].Name < p.Phases[j].Name
	})
	return p
}

// AccountedFraction is the share of wall time covered by top-level
// phases (names without "/", which by convention tile the run and do
// not overlap). 0 when the profile has no wall time.
func (p *Profile) AccountedFraction() float64 {
	if p == nil || p.WallSeconds <= 0 {
		return 0
	}
	var sum float64
	for _, ph := range p.Phases {
		if !IsSubPhase(ph.Name) {
			sum += ph.Seconds
		}
	}
	return sum / p.WallSeconds
}

// Phase returns the aggregate seconds of one named phase (0 if
// absent).
func (p *Profile) Phase(name string) float64 {
	if p == nil {
		return 0
	}
	for _, ph := range p.Phases {
		if ph.Name == name {
			return ph.Seconds
		}
	}
	return 0
}

// PhaseSeconds returns the phase aggregation as a map — the shape
// bench reports embed.
func (p *Profile) PhaseSeconds() map[string]float64 {
	if p == nil || len(p.Phases) == 0 {
		return nil
	}
	out := make(map[string]float64, len(p.Phases))
	for _, ph := range p.Phases {
		out[ph.Name] = ph.Seconds
	}
	return out
}

// IsSubPhase reports whether a phase name is "/"-qualified
// ("execute/verifyE"): a drill-down inside a top-level phase, which
// overlaps it instead of tiling the wall time.
func IsSubPhase(name string) bool { return strings.Contains(name, "/") }
