package rads

import (
	"encoding/gob"

	"rads/internal/obs"
	"rads/internal/pattern"
	"rads/internal/plan"
)

func init() {
	// Control-plane messages crossing the TCP transport between the
	// coordinator ingress and remote machine daemons.
	gob.Register(&RunQueryRequest{})
	gob.Register(&RunQueryResponse{})
	gob.Register(&StatsPullRequest{})
	gob.Register(&StatsPullResponse{})
}

// RunQueryRequest is the coordinator -> machine control message: run
// one RADS query on your shard. The pattern travels in its textual
// form and the coordinator's execution plan as its unit sequence, so
// every machine executes the identical matching order regardless of
// which process it lives in. The machine derives the rest of the plan
// with plan.Build, which refuses units that are not an execution plan
// for the pattern; a request without units is refused too.
type RunQueryRequest struct {
	Pattern string
	Units   []plan.Unit

	// Constraints are the coordinator's symmetry-breaking constraints
	// (pattern.SymmetryBreaking), which every machine enumerates under.
	// A machine holding one convention and a coordinator another would
	// count some embeddings twice and others never, so the machine does
	// not derive its own: a request for a pattern with automorphisms
	// that carries none is refused.
	Constraints []pattern.OrderConstraint

	// QueryID is the coordinator-side query identifier (minted by the
	// service), crossing the wire so remote machines attribute their
	// traces and journal events to the query. 0 = unattributed.
	QueryID uint64

	// What the coordinator sets of the machine's Config. Workers 0 lets
	// the hosting daemon pick its own default (its share of the
	// process's CPUs); BudgetBytes 0 is unlimited. DisableLoadBalancing
	// is never set by the coordinator, only by a transport in between —
	// a loopback fleet whose message tallies must be byte-deterministic.
	Workers              int
	BudgetBytes          int64
	DisableLoadBalancing bool
}

// ByteSize estimates the wire size: the pattern text, the constraints,
// the unit sequence, and the fixed knobs.
func (r *RunQueryRequest) ByteSize() int {
	n := len(r.Pattern) + 8*3 + 1 + 16*len(r.Constraints)
	for i := range r.Units {
		n += 8 * (1 + len(r.Units[i].LF))
	}
	return n
}

// MessageKind names the message for per-kind accounting.
func (r *RunQueryRequest) MessageKind() string { return "runQuery" }

// RunQueryResponse is one machine's result slice — the per-machine
// part of everything rads.Result aggregates, built by the machine
// itself (machine.response) and folded by fold. A worker ships it back
// to the coordinator; the in-process Run folds it without a message.
type RunQueryResponse struct {
	// Counters is the machine's additive result, kernel-selection tally
	// included; the coordinator merges the machines' into the run's.
	Counters

	// Stat is the machine's row of the query profile (elapsed, tree
	// nodes, region groups formed and stolen).
	Stat obs.MachineStat

	Rounds       int
	Workers      int
	DeferredEnds int

	PeakMemBytes int64

	// OOM reports that this machine died of its memory budget — an
	// outcome, not an error, exactly as in the in-process engine.
	OOM bool

	// CommBytes/CommMessages are the communication this machine's own
	// calls caused, accounted at the caller as always; the coordinator
	// folds them into its per-query metrics.
	CommBytes    int64
	CommMessages int64

	// CacheHits/CacheMisses are the machine's adjacency-cache
	// effectiveness over the query's fetch phases.
	CacheHits   int64
	CacheMisses int64

	// Spans is the machine's raw span list (offsets relative to the
	// machine's own query start, so clock skew never crosses the wire);
	// the coordinator stitches them into its cross-cluster timeline and
	// derives the per-phase aggregate from them. It is the one trace
	// encoding on the wire: both binaries build from this repository and
	// WaitReady checks the wire contract, so there is no other build
	// to stay compatible with.
	Spans []obs.Span
}

// ByteSize counts the fixed-width fields plus the span payload.
func (r *RunQueryResponse) ByteSize() int {
	n := 28*8 + 1
	for i := range r.Spans {
		n += len(r.Spans[i].Name) + 4*8
	}
	return n
}

// MessageKind names the message for per-kind accounting.
func (r *RunQueryResponse) MessageKind() string { return "runQuery" }

// StatsPullRequest asks a machine daemon for a snapshot of its
// observability registry — the fleet-aggregation RPC behind
// /metrics/cluster and /debug/cluster. It is a pure read (no query
// state touched), so the retry policy classifies it as retryable.
type StatsPullRequest struct{}

// ByteSize: an empty control message.
func (r *StatsPullRequest) ByteSize() int { return 1 }

// MessageKind names the message for per-kind accounting.
func (r *StatsPullRequest) MessageKind() string { return "statsPull" }

// StatsPullResponse is one machine's frozen registry. Machines hosted
// in one worker process share a registry, so co-hosted machines answer
// with identical families — the coordinator labels each snapshot with
// the machine id it asked, which is the honest per-machine attribution
// the address book supports.
type StatsPullResponse struct {
	Machine int
	// Fingerprint is the machine's partition fingerprint, so the fleet
	// view can prove every worker serves the same snapshot.
	Fingerprint uint64
	Families    []obs.FamilySnapshot
}

// ByteSize estimates the snapshot payload: family/series names plus
// fixed-width values and histogram layouts.
func (r *StatsPullResponse) ByteSize() int {
	n := 2 * 8
	for i := range r.Families {
		f := &r.Families[i]
		n += len(f.Name) + len(f.Help) + len(f.Type) + len(f.Label)
		for j := range f.Series {
			s := &f.Series[j]
			n += len(s.Label) + 4*8 + 8*(len(s.Bounds)+len(s.Counts))
		}
	}
	return n
}

// MessageKind names the message for per-kind accounting.
func (r *StatsPullResponse) MessageKind() string { return "statsPull" }
