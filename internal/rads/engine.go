// Package rads implements the paper's contribution: RADS, the Robust
// Asynchronous Distributed Subgraph enumeration system (Section 3).
//
// Per machine, a run proceeds exactly as Figure 1 prescribes:
//
//  1. SM-E: candidates of the starting query vertex whose border
//     distance is at least the vertex's span are enumerated entirely
//     locally with the single-machine algorithm (Proposition 1), on
//     the connectivity-first matching order rooted at that vertex —
//     the proposition constrains where an embedding starts, not the
//     order the rest of it is matched in.
//  2. The remaining candidates are split into region groups by greedy
//     proximity grouping (Section 6, Alg. 3), each group at most one
//     segment of candidates (engine.segment) and at most a worker's
//     share of the machine's.
//  3. Each region group runs R-Meef (Section 3.2, Alg. 4): one round
//     per decomposition unit of the execution plan; each round expands
//     cached embeddings through the unit (Alg. 1/2), batches fetchV
//     requests for foreign pivots, batches verifyE requests for the
//     edge verification index, and filters failed candidates from the
//     embedding trie.
//  4. The region group is the one unit of parallelism inside a
//     machine: each pool worker runs one group at a time, popped from
//     the machine's queue, and once the queue is empty broadcasts
//     checkR and steals a group via shareR from the most loaded
//     machine, until no machine has one left.
//
// Machines run concurrently and never exchange intermediate results —
// only edge-verification bits and adjacency lists, which is the
// paper's central design point.
//
// One machine path serves two coordinators. A machine (machine.go) is
// one query's per-machine program; a Machine (daemon.go) hosts it, and
// Machine.Handle is the one daemon thread answering verifyE, fetchV,
// checkR and shareR. Run is the in-process coordinator: it hosts every
// machine of the partition on one transport and runs them itself.
// ClusterEngine (remote.go) is the fleet's: worker processes host the
// Machines, and a runQuery message makes each build and run its
// machine. Either way every machine reports one RunQueryResponse, and
// fold turns them into the run's Result.
//
// Inside a round, candidates are intersected, then verified (adjEnum):
// the pivot's adjacency list, cut to the symmetry-breaking window, is
// intersected with the list of every verification neighbour the
// machine can read (owned, or fetched and cached — the cache is read
// lock-free); what remains per candidate is only the edges to
// neighbours whose list is unknown, which the candidate's own list
// decides or the EVI defers to verifyE. Which embedding candidates,
// trie nodes and undetermined edges exist is independent of how the
// candidates were generated — but not of which lists are readable, and
// there this engine departs from the paper's "always verify": ahead of
// each round the fetch phase also pulls the list of a verification
// neighbour matched in an earlier round when the edges the round would
// otherwise file against it cost more wire bytes than the list
// (choosePulls), so the candidates those edges would have doomed are
// never built, filed or sent. Counters reports both sides.
package rads

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
)

// Config tunes a RADS run. The zero value gives the paper's default
// behaviour on an in-process transport.
type Config struct {
	// Context, if non-nil, cancels the run: machines check it between
	// SM-E candidates, region groups and steal attempts, and Run
	// returns an error wrapping the context's error. Long-lived
	// callers (the resident query service) use this to abort queries
	// whose client has gone away.
	Context context.Context
	// Plan overrides the Section 4 planner (used by the Figure 13
	// RanS/RanM ablation). Nil computes the optimized plan.
	Plan *plan.Plan
	// Transport overrides the in-process transport (a TCP client, or a
	// fault injector in tests).
	Transport cluster.Transport
	// Metrics receives communication accounting; nil allocates one.
	Metrics *cluster.Metrics
	// Budget is the per-machine memory budget; nil is unlimited. Its
	// limit sizes R-Meef's batches (engine.segment).
	Budget *cluster.MemBudget
	// Workers is the number of concurrent enumeration workers per
	// simulated machine: SM-E candidates and region groups fan out
	// across a pool of this size, each worker owning one reusable
	// enumerator; the adjacency-cache view is the machine's, shared by
	// the pool. 0 derives a default from GOMAXPROCS and the machine
	// count (at least 1); 1 reproduces the seed's fully sequential
	// per-machine behaviour. Counts are identical at any setting —
	// workers only share the group queue, the view and commutative
	// counters.
	Workers int
	// Trace, if non-nil, receives the run's phase spans: top-level
	// "plan"/"execute"/"fold" tile the run; "execute/..." sub-phases
	// (sme, grouping, group, steal, fetchV, verifyE, machine) carry
	// machine/worker attribution for drill-down. Nil records nothing
	// at no cost (obs.Trace is nil-tolerant).
	Trace *obs.Trace

	// DisableSME forces every candidate through the distributed path
	// (ablation; Section 3.1 claims SM-E cuts cost).
	DisableSME bool
	// DisableEndVertexCounting materializes end vertices (degree-1
	// query vertices) in the trie like any other vertex. By default
	// they are deferred and counted per core embedding, reproducing
	// the paper's Exp-3 observation: "RADS processes those end
	// vertices last by simply enumerating the combinations without
	// caching any results related to them." Setting OnEmbedding also
	// disables the optimization, since callbacks need full embeddings.
	DisableEndVertexCounting bool
	// DisableCache drops fetched adjacency lists after every round
	// (ablation; Section 3.2 claims caching slashes communication).
	DisableCache bool
	// RandomGrouping replaces proximity grouping with arbitrary
	// fixed-size chunks (ablation for Section 6).
	RandomGrouping bool
	// DisableLoadBalancing turns off checkR/shareR work stealing.
	DisableLoadBalancing bool

	// OnEmbedding, if non-nil, receives every embedding found (f is
	// indexed by query vertex and reused; copy to retain). It must be
	// safe for concurrent calls from different machines; within one
	// machine, delivery is serialized even when Workers > 1.
	OnEmbedding func(machine int, f []graph.VertexID)
}

// Counters is the additive part of a run's result: what one region
// group, one machine and the whole run each tally.
// Every level folds the one below with merge — in this process, and
// inside RunQueryResponse over the wire.
type Counters struct {
	SME         int64 // embeddings found by single-machine enumeration
	Distributed int64 // embeddings found by R-Meef rounds

	// Successful partial matches: SM-E recursion nodes and
	// embedding-trie nodes linked by R-Meef.
	SMENodes, DistNodes int64

	// Compression accounting (Tables 3 and 4): cumulative bytes the
	// intermediate results would occupy as plain embedding lists (EL)
	// versus in the embedding trie (ET), summed over rounds, groups and
	// machines; plus concurrent peaks.
	ELBytesCum, ETBytesCum   int64
	ELBytesPeak, ETBytesPeak int64

	// The verify plane's two sides (see choosePulls): VerifyEdges are
	// the undetermined edges sent to verifyE; PulledLists the adjacency
	// lists of verification neighbours fetched ahead of a round because
	// asking edge by edge would have cost more; PulledEdges the edges the
	// rule counted those pulls to pre-empt (its asks, summed).
	VerifyEdges, PulledLists, PulledEdges int64

	// Kernels counts the intersection-kernel selections of SM-E and of
	// R-Meef candidate generation.
	Kernels graph.KernelTally
}

// merge folds o into c: sums, except the peaks, which take the maximum.
func (c *Counters) merge(o *Counters) {
	c.SME += o.SME
	c.Distributed += o.Distributed
	c.SMENodes += o.SMENodes
	c.DistNodes += o.DistNodes
	c.ELBytesCum += o.ELBytesCum
	c.ETBytesCum += o.ETBytesCum
	c.ELBytesPeak = max(c.ELBytesPeak, o.ELBytesPeak)
	c.ETBytesPeak = max(c.ETBytesPeak, o.ETBytesPeak)
	c.VerifyEdges += o.VerifyEdges
	c.PulledLists += o.PulledLists
	c.PulledEdges += o.PulledEdges
	c.Kernels.Add(o.Kernels)
}

// Result reports everything the paper's experiments measure.
type Result struct {
	Total int64 // embeddings found (SME + Distributed)

	Counters

	Elapsed time.Duration

	CommBytes    int64
	CommMessages int64

	PeakMemBytes int64 // budget high-water mark (max over machines)

	RegionGroups int // total region groups formed
	StolenGroups int // groups processed via shareR
	Rounds       int // rounds per region group (= plan units)
	Workers      int // enumeration workers per machine this run used

	// Machines is the per-machine breakdown (elapsed, tree nodes linked,
	// region groups formed and stolen), indexed by machine id —
	// Profile.Machines as is.
	Machines []obs.MachineStat

	// Adjacency-cache effectiveness across the run's fetch phases:
	// Hits are foreign pivots already resident in a machine's fetched
	// cache; Misses crossed the network.
	CacheHits   int64
	CacheMisses int64

	// TreeNodes counts successful partial matches across the run
	// (SMENodes + DistNodes). It is the engine-agnostic work measure
	// behind the harness's tree-nodes/sec metric.
	TreeNodes int64

	// DeferredEnds is the number of end vertices the run counted by
	// combination instead of materializing (0 when the optimization
	// was off or the pattern has no free end vertices).
	DeferredEnds int
}

// Run enumerates p in the partitioned data graph and returns aggregate
// results. It is the public entry point of the RADS system. A run that
// outgrows its budget fails with an error wrapping
// cluster.ErrOutOfMemory and returns its partial Result beside it.
func Run(part *partition.Partition, p *pattern.Pattern, cfg Config) (*Result, error) {
	eng, err := newEngine(part, p, p.SymmetryBreaking(), cfg)
	if err != nil {
		return nil, err
	}
	eng.spawnMachines()
	return eng.run()
}

type engine struct {
	g    *graph.Graph
	part *partition.Partition
	p    *pattern.Pattern
	pl   *plan.Plan
	cfg  Config

	cons    []pattern.OrderConstraint
	metrics *cluster.Metrics
	tr      cluster.Transport
	ownTr   bool // we created the transport and must close it

	// avgDeg is the data graph's global average degree, the expected
	// length of a pulled list in the pull rule (pullPays). It defaults
	// to g.AvgDegree(), but a remote machine daemon hosting only its
	// shard overrides it with the figure recorded at snapshot time — a
	// shard graph's own average says nothing about the whole graph.
	avgDeg float64

	// End-vertex counting (the paper's Exp-3 "end vertices"
	// optimization): degree-1 non-pivot query vertices are removed
	// from trie materialization and counted per core embedding.
	deferred  []pattern.VertexID // deferred vertices, in matching order
	defPiv    []pattern.VertexID // sole pattern neighbour of deferred[i]
	defCons   [][]posCons        // symmetry constraints checked at count time
	redOrder  []pattern.VertexID // matching order minus deferred vertices
	redPos    []int              // position in redOrder; -1 for deferred
	redPrefix []int              // reduced |V_{P_i}| per round

	// Precomputed per reduced-order position j (query vertex
	// redOrder[j]): the earlier-matched query vertices connected to it
	// by verification (sibling or cross-unit) edges, and the symmetry
	// constraints against earlier positions.
	verif [][]pattern.VertexID
	cons2 [][]posCons

	// unitLeaves[i] = non-deferred leaves of unit i in matching order.
	unitLeaves [][]pattern.VertexID

	// pulls[i] holds, per leaf of unit i with a verification edge into
	// the rounds before it, what choosePulls needs to price that edge.
	pulls [][]pullLeaf

	// segment is the one size R-Meef's memory control is built on, in
	// trie nodes, a worker's share: a flush segment closes at segment EC
	// leaves, a region group holds at most segment candidates (its roots
	// are trie nodes too; regionGroups also keeps a group per worker),
	// and a round whose pinned pivot lists leave less than four segments
	// a worker free runs in halves (crowded).
	// newEngine derives it from the budget (segmentFor); tests that need
	// other batches on small graphs set it in-package.
	segment int

	machines []*machine
}

type posCons struct {
	other pattern.VertexID
	less  bool // require f[this] < f[other]
}

// pullLeaf is one unit leaf seen from before its round: the trie-path
// positions of its prefix verification neighbours — vertices matched in
// an earlier round that the leaf must be adjacent to — and the part of
// its symmetry window those earlier rounds already fix.
type pullLeaf struct {
	at   []int
	cons []posCons
}

// newEngine builds the query's engine state. cons are the symmetry-breaking
// constraints every machine of the run must share: the in-process Run
// derives them, a hosted Machine takes the coordinator's.
func newEngine(part *partition.Partition, p *pattern.Pattern, cons []pattern.OrderConstraint, cfg Config) (*engine, error) {
	if !p.IsConnected() {
		return nil, fmt.Errorf("rads: pattern %s is not connected", p.Name)
	}
	pl := cfg.Plan
	if pl == nil {
		var err error
		if pl, err = tracedPlan(cfg.Trace, p); err != nil {
			return nil, err
		}
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = cluster.NewMetrics(part.M)
	}
	eng := &engine{
		g:       part.G,
		part:    part,
		p:       p,
		pl:      pl,
		cfg:     cfg,
		cons:    cons,
		metrics: metrics,
		tr:      cfg.Transport,
		avgDeg:  part.G.AvgDegree(),
	}
	eng.segment = segmentFor(cfg.Budget, eng.workers())
	if eng.tr == nil {
		eng.tr = cluster.NewLocalTransport(metrics)
		eng.ownTr = true
	}
	eng.precompute()
	return eng, nil
}

// spawnMachines builds one machine per partition slot and hosts each
// behind the daemon handler a worker process hosts (Machine.Handle) —
// the in-process deployment, where this engine is the whole cluster and
// run is its coordinator. The fleet skips this: each worker's Machine
// builds its own engine from the shipped query and runs its one slot
// (Machine.runQuery).
func (e *engine) spawnMachines() {
	for t := 0; t < e.part.M; t++ {
		m := newMachine(e, t)
		e.machines = append(e.machines, m)
		d := &Machine{id: t, part: e.part}
		d.cur.Store(m)
		e.tr.Register(t, d.Handle)
	}
}

// precompute derives the reduced matching order (end-vertex deferral),
// verification structure, symmetry-constraint placement and per-unit
// leaf lists from the plan.
func (e *engine) precompute() {
	n := e.p.N()

	// pivOf[u] = pivot of the unit where u appears as a leaf; the edge
	// (pivOf[u], u) is u's expansion edge and is excluded from
	// verification (candidates come from the pivot's adjacency list).
	pivOf := make([]pattern.VertexID, n)
	isPivot := make([]bool, n)
	for _, dp := range e.pl.Units {
		isPivot[dp.Piv] = true
		for _, lf := range dp.LF {
			pivOf[lf] = dp.Piv
		}
	}

	// Deferral set: degree-1 non-pivot query vertices. Their only edge
	// is the expansion edge, so once the core embedding is fixed their
	// matches are a pure combination count over the pivot's
	// neighbourhood (minus used vertices and symmetry violations).
	isDeferred := make([]bool, n)
	if e.cfg.OnEmbedding == nil && !e.cfg.DisableEndVertexCounting {
		for _, u := range e.pl.Order {
			if e.p.Degree(u) == 1 && !isPivot[u] {
				isDeferred[u] = true
				e.deferred = append(e.deferred, u)
				e.defPiv = append(e.defPiv, pivOf[u])
			}
		}
	}
	defIdx := make([]int, n)
	for i := range defIdx {
		defIdx[i] = -1
	}
	for i, d := range e.deferred {
		defIdx[d] = i
	}

	// Reduced order and positions.
	e.redPos = make([]int, n)
	for i := range e.redPos {
		e.redPos[i] = -1
	}
	for _, u := range e.pl.Order {
		if !isDeferred[u] {
			e.redPos[u] = len(e.redOrder)
			e.redOrder = append(e.redOrder, u)
		}
	}
	e.redPrefix = make([]int, len(e.pl.Units))
	for i := range e.pl.Units {
		full := e.pl.PrefixLen[i]
		red := 0
		for _, u := range e.pl.Order[:full] {
			if !isDeferred[u] {
				red++
			}
		}
		e.redPrefix[i] = red
	}

	// Verification edges over the reduced order.
	e.verif = make([][]pattern.VertexID, len(e.redOrder))
	e.cons2 = make([][]posCons, len(e.redOrder))
	for j, u := range e.redOrder {
		if j == 0 {
			continue
		}
		for _, w := range e.p.Adj(u) {
			if e.redPos[w] >= 0 && e.redPos[w] < j && w != pivOf[u] {
				e.verif[j] = append(e.verif[j], w)
			}
		}
	}

	// Symmetry constraints: between two core vertices they apply at
	// the later reduced position; any constraint touching a deferred
	// vertex is checked at count time, attached to the later deferred
	// endpoint (core values are all fixed by then).
	e.defCons = make([][]posCons, len(e.deferred))
	addDef := func(d pattern.VertexID, c posCons) {
		i := defIdx[d]
		e.defCons[i] = append(e.defCons[i], c)
	}
	for _, c := range e.cons {
		dl, dg := defIdx[c.Less], defIdx[c.Greater]
		switch {
		case dl < 0 && dg < 0:
			// Core-core: attach to the later reduced position.
			pl, pg := e.redPos[c.Less], e.redPos[c.Greater]
			if pl > pg {
				e.cons2[pl] = append(e.cons2[pl], posCons{other: c.Greater, less: true})
			} else {
				e.cons2[pg] = append(e.cons2[pg], posCons{other: c.Less, less: false})
			}
		case dl >= 0 && dg >= 0:
			// Both deferred: attach to the later deferred index.
			if dl > dg {
				addDef(c.Less, posCons{other: c.Greater, less: true})
			} else {
				addDef(c.Greater, posCons{other: c.Less, less: false})
			}
		case dl >= 0:
			addDef(c.Less, posCons{other: c.Greater, less: true})
		default:
			addDef(c.Greater, posCons{other: c.Less, less: false})
		}
	}

	e.unitLeaves = make([][]pattern.VertexID, len(e.pl.Units))
	for i, dp := range e.pl.Units {
		var leaves []pattern.VertexID
		for _, lf := range dp.LF {
			if !isDeferred[lf] {
				leaves = append(leaves, lf)
			}
		}
		// Order leaves by matching-order position.
		for a := 1; a < len(leaves); a++ {
			for b := a; b > 0 && e.pl.Pos[leaves[b]] < e.pl.Pos[leaves[b-1]]; b-- {
				leaves[b], leaves[b-1] = leaves[b-1], leaves[b]
			}
		}
		e.unitLeaves[i] = leaves
	}

	e.pulls = make([][]pullLeaf, len(e.pl.Units))
	for i := 1; i < len(e.pl.Units); i++ {
		prefix := e.redPrefix[i-1]
		for _, u := range e.unitLeaves[i] {
			var pl pullLeaf
			for _, w := range e.verif[e.redPos[u]] {
				if e.redPos[w] < prefix {
					pl.at = append(pl.at, e.redPos[w])
				}
			}
			if len(pl.at) == 0 {
				continue
			}
			for _, c := range e.cons2[e.redPos[u]] {
				if e.redPos[c.other] < prefix {
					pl.cons = append(pl.cons, c)
				}
			}
			e.pulls[i] = append(e.pulls[i], pl)
		}
	}
}

// workers resolves Config.Workers: an explicit setting wins, otherwise
// the machine's share of the process's CPUs (the simulated machines
// already run as one goroutine each, so each gets GOMAXPROCS/M cores'
// worth of intra-machine parallelism, and at least one worker).
func (e *engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	w := runtime.GOMAXPROCS(0) / e.part.M
	if w < 1 {
		w = 1
	}
	return w
}

// unbudgetedSegment is engine.segment when no budget sizes it. 4096
// leaves make a segment's verifyE exchange, and the next round's fetchV,
// batches of thousands of edges and vertices, which amortise their round
// trips, while the segment's leaves take 96 KiB of trie
// (4096·trieNodeBytes) a worker and a hub's deg² leaves still close many
// segments rather than one.
const unbudgetedSegment = 4096

// segmentFor derives engine.segment from the budget and the machine's
// workers, which run a group each side by side: a thirty-second of the
// limit in trie nodes, shared among the workers, at least one and at
// most unbudgetedSegment; unbudgeted, unbudgetedSegment. A
// segment's leaves and a group's roots are then each a small share of
// the budget, and what crowds it is left to the round's halving and to
// relieve.
func segmentFor(b *cluster.MemBudget, workers int) int {
	if b.Limit() <= 0 {
		return unbudgetedSegment
	}
	return int(max(1, min(b.Limit()/(32*trieNodeBytes*int64(workers)), unbudgetedSegment)))
}

// run is the in-process coordinator: it runs every machine at once and
// folds their results. No runQuery message is sent — the machines are
// in this process — so the transport tallies only the data plane.
func (e *engine) run() (*Result, error) {
	if e.ownTr {
		defer e.tr.Close()
	}
	start := time.Now()
	execSp := e.cfg.Trace.Start("execute", -1, -1)
	var wg sync.WaitGroup
	resps := make([]*RunQueryResponse, len(e.machines))
	errs := make([]error, len(e.machines))
	for i, m := range e.machines {
		wg.Add(1)
		go func(i int, m *machine) {
			defer wg.Done()
			errs[i] = m.run()
			resps[i] = m.response(errs[i])
		}(i, m)
	}
	wg.Wait()
	execSp.End()
	for i, err := range errs {
		if err != nil && !resps[i].OOM {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	foldSp := e.cfg.Trace.Start("fold", -1, -1)
	defer foldSp.End()
	res, err := fold(resps)
	res.Elapsed = elapsed
	res.CommBytes = e.metrics.TotalBytes()
	res.CommMessages = e.metrics.TotalMessages()
	return res, err
}

// fold is the one reduction from per-machine results to the run's, for
// both coordinators: engine.run folds its machines' responses,
// ClusterEngine.Run its workers'. Counters merge (sums; peaks take the
// maximum), the budget peak is the largest machine's and each machine's
// Stat becomes its Machines row. A machine that ran out of its budget
// fails the run with an error wrapping cluster.ErrOutOfMemory, returned
// beside the folded Result, whose peak and rows stay meaningful.
func fold(resps []*RunQueryResponse) (*Result, error) {
	res := &Result{
		Rounds:       resps[0].Rounds,
		Workers:      resps[0].Workers,
		DeferredEnds: resps[0].DeferredEnds,
		Machines:     make([]obs.MachineStat, len(resps)),
	}
	oom := -1
	for t, r := range resps {
		res.merge(&r.Counters)
		res.PeakMemBytes = max(res.PeakMemBytes, r.PeakMemBytes)
		res.RegionGroups += r.Stat.Groups
		res.StolenGroups += r.Stat.Stolen
		res.CacheHits += r.CacheHits
		res.CacheMisses += r.CacheMisses
		res.Machines[t] = r.Stat
		res.Machines[t].Machine = t
		if r.OOM && oom < 0 {
			oom = t
		}
	}
	res.Total = res.SME + res.Distributed
	res.TreeNodes = res.SMENodes + res.DistNodes
	if oom >= 0 {
		return res, fmt.Errorf("%w: machine %d: %w", ErrAborted, oom, cluster.ErrOutOfMemory)
	}
	return res, nil
}

// ErrAborted wraps machine-level failures with their machine ID.
var ErrAborted = errors.New("rads: machine aborted")

// checkCtx returns the configured context's error once it is
// cancelled, nil otherwise (or when no context was configured).
func (e *engine) checkCtx() error {
	ctx := e.cfg.Context
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
