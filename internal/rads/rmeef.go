package rads

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rads/internal/cluster"
	"rads/internal/etrie"
	"rads/internal/graph"
	"rads/internal/pattern"
)

const trieNodeBytes = etrie.NodeBytes

// groupState carries the per-region-group R-Meef state (Algorithm 4).
// It also shards every counter the group mutates (Counters) —
// concurrent groups on one machine's worker pool never touch shared
// machine state until the merge at the end of processGroup. A machine
// hands a finished group's state to its next group (takeState,
// keepState), so the trie's slabs, the index and every scratch list
// below keep the capacity one flush segment grew them to.
type groupState struct {
	trie *etrie.Trie
	evi  *etrie.EVI

	view *view // the machine's shared local-knowledge view

	// pinLog records, in order, every view pin this group's in-flight
	// rounds acquired; each runRounds frame unpins its suffix on exit.
	// Pins keep entries resident in the shared cache (dropAll skips
	// them), so everything a round depends on stays determinable — and
	// budget-charged — until its frame completes.
	pinLog []graph.VertexID
	// pullLog is pinLog for the optional pins of choosePulls, kept apart
	// because relieve may release them all before their frames end.
	pullLog []graph.VertexID

	// created collects the EC leaves of the current flush segment: the
	// results produced since the last verify & filter.
	created []*etrie.Node
	// roots is processGroup's round-0 frontier.
	roots []*etrie.Node

	frame // scratch of the expansion loop currently running

	// spare holds frames for midFlush to run deeper rounds on while an
	// outer loop's frame is parked; one per open flush nesting level,
	// kept for the group's lifetime.
	spare []frame

	// Scratch of the verify plane, reused by every segment of the group:
	// the foreign pivots of a fetch phase, what to ask each owner for
	// (indexed by machine id), and per round the survivors flushSegment
	// hands to the next one — a round's list is dead before that round
	// flushes again, since only deeper rounds run in between.
	pivots    []graph.VertexID
	asks      []uint64 // choosePulls' (neighbour, edges) pairs, neighbour in the high half
	fetchFrom [][]graph.VertexID
	askEdges  [][]graph.Edge
	next      [][]*etrie.Node

	// flushNodes bounds the number of EC leaves a flush segment may
	// accumulate before verification and deeper rounds run for it.
	// This is the reproduction's extension of the Section 6 memory
	// control below single-candidate granularity: a segment closes
	// after any candidate at any leaf level, so a hub pivot whose one
	// first-leaf candidate spans deg² leaves is processed in several
	// verify-filter-descend segments instead of materializing them all.
	// processGroup sets it to engine.segment; 0 (tests driving a round
	// by hand) disables segmentation, the paper's plain per-round
	// batching.
	flushNodes int

	// Counters is the group's result shard, merged into the machine
	// when it completes.
	Counters

	chargedTrie int64 // budget bytes currently charged for the trie
}

// frame is the scratch one expansion loop ranges over. Deeper rounds
// re-enter adjEnum at level 0 from a mid-round flush while the outer
// loops are still reading their own, so midFlush swaps the whole frame.
type frame struct {
	f       []graph.VertexID // partial embedding indexed by query vertex, -1 when unmatched
	pathBuf []graph.VertexID // trie-path scratch
	// Per leaf level: the intersected candidate list, the verification
	// neighbours whose adjacency list was unknown when it was built, and
	// the undetermined edges the level's current candidate added to the
	// adjEnum chain.
	cand    [][]graph.VertexID
	unk     [][]pattern.VertexID
	pending [][]graph.Edge
}

func newFrame(n int) frame {
	fr := frame{
		f:       make([]graph.VertexID, n),
		cand:    make([][]graph.VertexID, n),
		unk:     make([][]pattern.VertexID, n),
		pending: make([][]graph.Edge, n),
	}
	for i := range fr.f {
		fr.f[i] = -1
	}
	return fr
}

func (m *machine) newGroupState() *groupState {
	n := m.e.p.N()
	return &groupState{
		trie:      etrie.New(),
		evi:       etrie.NewEVI(),
		view:      m.view,
		frame:     newFrame(n),
		fetchFrom: make([][]graph.VertexID, m.e.part.M),
		askEdges:  make([][]graph.Edge, m.e.part.M),
		next:      make([][]*etrie.Node, len(m.e.pl.Units)),
	}
}

// takeState hands out a group state for one region group: one a
// finished group gave back, or a new one. Every state of a machine is
// shaped by its one query — frame width, unit count, machine count — so
// a reused state fits as it is.
func (m *machine) takeState() *groupState {
	m.statesMu.Lock()
	defer m.statesMu.Unlock()
	n := len(m.states)
	if n == 0 {
		return m.newGroupState()
	}
	st := m.states[n-1]
	m.states[n-1] = nil
	m.states = m.states[:n-1]
	return st
}

// keepState gives st back for reuse if it is clean — an empty trie, no
// view pins, an empty index — as every group that completes leaves it;
// a state an error left otherwise is dropped. The caller has released
// st's budget charge and merged its counters.
func (m *machine) keepState(st *groupState) {
	if st.trie.NodeCount() != 0 || len(st.pinLog)+len(st.pullLog) != 0 || st.evi.Len() != 0 {
		return
	}
	st.Counters = Counters{}
	st.chargedTrie, st.flushNodes = 0, 0
	m.statesMu.Lock()
	m.states = append(m.states, st)
	m.statesMu.Unlock()
}

// matched reports whether data vertex v is already in the partial
// embedding — a scan of at most |V_P| entries, which beats a hash
// probe at the pattern sizes subgraph enumeration runs on.
func (st *groupState) matched(v graph.VertexID) bool {
	for _, x := range st.f {
		if x == v {
			return true
		}
	}
	return false
}

// bounds folds the symmetry constraints of one level into the open
// interval (lb, ub) its candidates must fall in.
func (st *groupState) bounds(cons []posCons) (lb, ub graph.VertexID) {
	lb, ub = -1, math.MaxInt32
	for _, c := range cons {
		o := st.f[c.other]
		if c.less {
			if o < ub {
				ub = o
			}
		} else if o > lb {
			lb = o
		}
	}
	return lb, ub
}

// window returns the part of ascending list adj inside (lb, ub).
func window(adj []graph.VertexID, lb, ub graph.VertexID) []graph.VertexID {
	adj = adj[graph.SearchSorted(adj, lb+1):]
	return adj[:graph.SearchSorted(adj, ub)]
}

// processGroup runs all R-Meef rounds for one region group. worker is
// the pool-worker index it runs on, for span attribution.
func (m *machine) processGroup(group []graph.VertexID, worker int) error {
	e := m.e
	groupSp := e.cfg.Trace.Start("execute/group", m.id, worker)
	defer groupSp.End()
	st := m.takeState()
	st.flushNodes = e.segment

	// Round 0: the frontier is the group's candidates of dp0.piv mapped
	// as single-vertex partial embeddings. For stolen groups the
	// candidates are foreign, so round 0 also prefetches them.
	roots := st.roots[:0]
	for _, v := range group {
		root := st.trie.Node(nil, v)
		st.trie.Link(root)
		st.DistNodes++
		roots = append(roots, root)
	}
	st.roots = roots

	err := m.runRounds(st, 0, roots)

	// Release the trie's budget charge (also on the error path, so an
	// aborted group does not leak accounted bytes) and merge the
	// group's counter shards into the machine.
	e.cfg.Budget.Release(m.id, st.chargedTrie)
	st.chargedTrie = 0
	m.mu.Lock()
	m.merge(&st.Counters)
	m.mu.Unlock()
	m.keepState(st)
	return err
}

// adjKnown returns the adjacency list of x if determinable by this
// group: owned vertices or the machine's shared cache (entries the
// group's rounds depend on are pinned there, so they cannot be
// evicted from under an in-flight frame).
func (st *groupState) adjKnown(x graph.VertexID) ([]graph.VertexID, bool) {
	return st.view.adjKnown(x)
}

// mustAdj returns the adjacency list of x, which the caller has
// guaranteed is local or fetched-and-pinned; it panics otherwise,
// catching any violation of the distribution discipline.
func (st *groupState) mustAdj(x graph.VertexID) []graph.VertexID {
	a, ok := st.adjKnown(x)
	if !ok {
		panic(fmt.Sprintf("rads: machine %d read unfetched foreign vertex %d", st.view.id, x))
	}
	return a
}

// edgeKnown reports (exists, determinable) for data edge (a,b) using
// only local knowledge.
func (st *groupState) edgeKnown(a, b graph.VertexID) (bool, bool) {
	if adj, ok := st.adjKnown(a); ok {
		return graph.ContainsSorted(adj, b), true
	}
	if adj, ok := st.adjKnown(b); ok {
		return graph.ContainsSorted(adj, a), true
	}
	return false, false
}

// degreeAtLeast reports whether deg(x) >= d when determinable locally;
// undeterminable vertices pass (the filter is only a pruning aid).
func (st *groupState) degreeAtLeast(x graph.VertexID, d int) bool {
	if a, ok := st.adjKnown(x); ok {
		return len(a) >= d
	}
	return true
}

// logPin records one acquired view pin for frame-scoped release.
func (st *groupState) logPin(x graph.VertexID, optional bool) {
	if optional {
		st.pullLog = append(st.pullLog, x)
	} else {
		st.pinLog = append(st.pinLog, x)
	}
}

// unpinTo releases every pin recorded after the markers (a former
// len(pinLog) and len(pullLog)), letting the next dropAll evict those
// entries.
func (st *groupState) unpinTo(marker, pullMarker int) {
	for _, x := range st.pinLog[marker:] {
		st.view.unpin(x)
	}
	st.pinLog = st.pinLog[:marker]
	pullMarker = min(pullMarker, len(st.pullLog)) // relieve may have got there first
	for _, x := range st.pullLog[pullMarker:] {
		st.view.unpin(x)
	}
	st.pullLog = st.pullLog[:pullMarker]
}

// relieve is the last resort before a failed charge fails the run: it
// gives up what nothing depends on — the group's pulled lists, whose
// edges fall back to the EVI, and every cache entry no frame pins — so
// that pulls never cost a budget the run would otherwise have met.
func (st *groupState) relieve() {
	st.unpinTo(len(st.pinLog), 0)
	st.view.dropAll()
}

// runRounds executes rounds round..l for the given frontier (live
// results of P_{round-1}), in flush segments when memory pressure
// demands it.
func (m *machine) runRounds(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	// Frame-scoped pins: everything this round (and the emit frame)
	// pins is released when the frame completes, keeping the overlay's
	// resident set bounded by the in-flight recursion.
	marker, pullMarker := len(st.pinLog), len(st.pullLog)
	defer st.unpinTo(marker, pullMarker)
	if round == len(e.pl.Units) {
		return m.emitResults(st, frontier)
	}
	if len(e.unitLeaves[round]) == 0 {
		// Every leaf of this unit is a deferred end vertex: the results
		// of P_round are exactly the results of P_{round-1}.
		return m.runRounds(st, round+1, frontier)
	}
	// The round keeps its foreign pivots' lists pinned until it
	// returns. When they are hubs' lists they can fill the budget and
	// leave no room for the segment the round builds, so if the fetch
	// runs out of memory, or crowds the budget, the round lets them go
	// and runs its frontier in halves, each pinning only its own
	// pivots.
	err := m.fetchForeignPivots(st, round, frontier)
	if len(frontier) > 1 && (errors.Is(err, cluster.ErrOutOfMemory) || err == nil && m.crowded()) {
		st.unpinTo(marker, pullMarker)
		st.view.dropAll()
		half := len(frontier) / 2
		if err := m.runRounds(st, round, frontier[:half]); err != nil {
			return err
		}
		return m.runRounds(st, round, frontier[half:])
	}
	if err != nil {
		return err
	}
	if err := m.expandRound(st, round, frontier); err != nil {
		return err
	}
	// End-of-round flush: verify and filter whatever the expansion
	// produced since the last mid-round flush, then descend.
	return m.flushSegment(st, round)
}

// flushSegment closes the current segment of round `round`: it
// verifies the EVI, filters failed ECs, records stats, reconciles the
// memory charge, and pushes the surviving ECs through the remaining
// rounds. On return the segment's subtree has been fully resolved and
// its memory released (final results are counted and removed as they
// complete).
func (m *machine) flushSegment(st *groupState, round int) error {
	e := m.e
	if err := m.verifyAndFilter(st); err != nil {
		return err
	}
	next := slices.Grow(st.next[round][:0], len(st.created))
	for _, n := range st.created {
		if !n.Dead() {
			next = append(next, n)
		}
	}
	st.next[round] = next
	st.created = st.created[:0]

	m.recordRoundStats(st, round, len(next))
	if err := m.chargeTrie(st); err != nil {
		return err
	}
	if e.cfg.DisableCache || m.underPressure() {
		// The paper's cache-release valve: "when more data vertices
		// need to be fetched, we may release some previously cached
		// data vertices if necessary". Dropping the cache between
		// rounds only costs re-fetches, never correctness.
		st.view.dropAll()
	}
	if len(next) == 0 {
		return nil
	}
	return m.runRounds(st, round+1, next)
}

// midFlush is flushSegment invoked from inside an expansion loop. The
// deeper rounds run the same loops on the same group state, so the
// caller's frame — embedding, path and the candidate lists it is still
// ranging over — is parked and a spare one takes its place for the
// descent.
func (m *machine) midFlush(st *groupState, round int) error {
	parked := st.frame
	if n := len(st.spare); n > 0 {
		st.frame, st.spare = st.spare[n-1], st.spare[:n-1]
	} else {
		st.frame = newFrame(len(parked.f))
	}

	err := m.flushSegment(st, round)

	// Every loop clears what it set in f, so the frame is spare again.
	st.spare = append(st.spare, st.frame)
	st.frame = parked
	return err
}

// emitResults consumes the full embeddings of the (reduced) pattern:
// counts them — multiplying in the deferred end-vertex completions —
// hands full embeddings to the OnEmbedding callback when set, and
// removes them from the trie so their memory is reclaimed before the
// next segment builds up.
func (m *machine) emitResults(st *groupState, frontier []*etrie.Node) error {
	e := m.e
	if len(e.deferred) > 0 {
		if err := m.fetchDeferredPivots(st, frontier); err != nil {
			return err
		}
	}
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		if len(e.deferred) == 0 {
			st.Distributed++
			if e.cfg.OnEmbedding != nil {
				st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
				for j, v := range st.pathBuf {
					st.f[e.redOrder[j]] = v
				}
				m.emit(st.f)
				for j := range st.pathBuf {
					st.f[e.redOrder[j]] = -1
				}
			}
			st.trie.Remove(leaf)
			continue
		}
		// End-vertex counting: materialize the core embedding, then
		// enumerate the deferred completions without caching anything
		// (the paper’s Exp-3 end-vertex treatment).
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		for j, v := range st.pathBuf {
			st.f[e.redOrder[j]] = v
		}
		st.Distributed += m.countDeferred(st, 0)
		for j := range st.pathBuf {
			st.f[e.redOrder[j]] = -1
		}
		st.trie.Remove(leaf)
	}
	// Reclaim the emitted results’ memory promptly.
	return m.chargeTrie(st)
}

// countDeferred counts the injective, symmetry-respecting assignments
// of the deferred end vertices given the fixed core embedding in st.f.
// Candidates for deferred vertex i are the neighbours of its pivot’s
// data vertex inside the symmetry window; the expansion edge holds by
// construction, and end vertices have no other pattern edges, so no
// verification is needed. The last deferred vertex is tallied, not
// recursed into.
func (m *machine) countDeferred(st *groupState, di int) int64 {
	e := m.e
	d := e.deferred[di]
	lb, ub := st.bounds(e.defCons[di])
	last := di == len(e.deferred)-1
	var total int64
	for _, v := range window(st.mustAdj(st.f[e.defPiv[di]]), lb, ub) {
		if st.matched(v) {
			continue
		}
		if last {
			total++
			continue
		}
		st.f[d] = v
		total += m.countDeferred(st, di+1)
		st.f[d] = -1
	}
	return total
}

// fetchDeferredPivots makes sure the adjacency list of every deferred
// end vertex’s pivot is locally available for counting (the
// cache-release valve may have dropped lists fetched in earlier rounds).
func (m *machine) fetchDeferredPivots(st *groupState, frontier []*etrie.Node) error {
	e := m.e
	st.pivots = st.pivots[:0]
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		for _, piv := range e.defPiv {
			st.addPivot(st.pathBuf[e.redPos[piv]])
		}
	}
	return m.fetchPivots(st, "fetchV (deferred pivots)", false)
}

// fetchForeignPivots gathers the pivot data vertices of the round that
// are neither owned nor cached and fetches their adjacency lists
// (Section 3.2 "Expand"), then the verification neighbours choosePulls
// finds cheaper to pull than to ask about.
func (m *machine) fetchForeignPivots(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	var pivPos int
	if round == 0 {
		pivPos = 0 // dp0.piv is at order position 0 = the trie root
	} else {
		pivPos = e.redPos[e.pl.Units[round].Piv]
	}
	st.pivots = st.pivots[:0]
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		st.addPivot(st.pathBuf[pivPos])
	}
	if err := m.fetchPivots(st, "fetchV", false); err != nil {
		return err
	}
	if !m.choosePulls(st, round, frontier) {
		return nil
	}
	return m.fetchPivots(st, "fetchV (verification neighbours)", true)
}

// underPressure reports whether the machine's accounted memory is past
// three quarters of its budget: the point at which the cache is dropped
// between rounds and optional pulls stop.
func (m *machine) underPressure() bool {
	b := m.e.cfg.Budget
	return b.Limit() > 0 && b.Used(m.id) > b.Limit()*3/4
}

// crowded reports whether the machine's accounted memory leaves less
// than four segments' trie bytes a worker free: too little for the
// segment a round builds, and the segments deeper rounds build under
// it, once its pivots are resident. segmentFor makes that at most an
// eighth of the budget; the cap binds only where the segment is clamped
// to one node (budgets under 768 B a worker) or set by a test. A
// crowded machine is thus under pressure, so it has taken no optional
// pulls, and halving its round never trades a pulled list for trie
// nodes.
func (m *machine) crowded() bool {
	b := m.e.cfg.Budget
	free := min(4*int64(m.e.workers()*m.e.segment)*trieNodeBytes, b.Limit()/8)
	return b.Limit() > 0 && b.Used(m.id) > b.Limit()-free
}

// pullPays is the cost rule of choosePulls, in the wire bytes cluster
// accounts: leaving asks edges to verifyE costs an edge out and a bit
// back each; pulling the list instead is expected to cost a vertex out
// and avgDeg vertices plus a length header back.
func pullPays(asks int64, avgDeg float64) bool {
	return float64((cluster.EdgeWire+cluster.BoolWire)*asks) >= cluster.VertexWire*(avgDeg+2)
}

// choosePulls decides, once the round's pivots are resident, which
// prefix verification neighbours to fetch ahead of the expansion, and
// queues them in st.pivots (reporting whether there are any). A
// neighbour x whose list this machine cannot read leaves every edge
// (candidate, x) with an equally unreadable candidate to the EVI: a
// trie node, an index entry and a verifyE round trip for an embedding
// candidate that mostly dies there. With x's list resident adjEnum
// intersects it instead and the candidate is never built. asks[x] is
// the number of edges the expansion would file — per frontier embedding
// carrying x and per leaf that must be adjacent to it, the unreadable,
// unmatched vertices of the pivot's list inside the part of the leaf's
// symmetry window the prefix fixes — and x is pulled when asking costs
// at least what its list is expected to (pullPays). Pulls are optional,
// so memory pressure sheds them first: none are chosen past the valve,
// and fetchPivots skips one it cannot charge. What is declined or shed
// stays on the EVI path, as do sibling-leaf edges.
func (m *machine) choosePulls(st *groupState, round int, frontier []*etrie.Node) bool {
	e := m.e
	st.pivots = st.pivots[:0]
	pulls := e.pulls[round]
	if len(pulls) == 0 || m.underPressure() {
		return false
	}
	pivPos := e.redPos[e.pl.Units[round].Piv]
	asks := st.asks[:0]
	for _, leaf := range frontier {
		if leaf.Dead() {
			continue
		}
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], leaf)
		path := st.pathBuf
		filled := false
		for _, pl := range pulls {
			n := int64(-1) // the leaf's count, taken when a neighbour first needs it
			for _, at := range pl.at {
				x := path[at]
				if _, ok := st.adjKnown(x); ok {
					continue
				}
				if n < 0 {
					if !filled {
						for j, v := range path {
							st.f[e.redOrder[j]] = v
						}
						filled = true
					}
					n = 0
					lb, ub := st.bounds(pl.cons)
					for _, v := range window(st.mustAdj(path[pivPos]), lb, ub) {
						if _, ok := st.adjKnown(v); !ok && !st.matched(v) {
							n++
						}
					}
				}
				if n > 0 {
					asks = append(asks, uint64(x)<<32|uint64(n))
				}
			}
		}
		if filled {
			for j := range path {
				st.f[e.redOrder[j]] = -1
			}
		}
	}
	st.asks = asks

	// Fold the pairs by neighbour: sorted, a neighbour's pairs are one run.
	slices.Sort(asks)
	for i := 0; i < len(asks); {
		x, n := asks[i]>>32, int64(0)
		for ; i < len(asks) && asks[i]>>32 == x; i++ {
			n += int64(uint32(asks[i]))
		}
		if pullPays(n, e.avgDeg) {
			st.pivots = append(st.pivots, graph.VertexID(x))
			st.PulledEdges += n
		}
	}
	return len(st.pivots) > 0
}

// addPivot queues v for the fetch phase unless this machine owns it.
// Sibling leaves repeat their pivot, so the common duplicate is the
// entry just queued; fetchPivots removes the rest.
func (st *groupState) addPivot(v graph.VertexID) {
	if n := len(st.pivots); !st.view.owned(v) && (n == 0 || st.pivots[n-1] != v) {
		st.pivots = append(st.pivots, v)
	}
}

// fetchPivots pins the foreign vertices in st.pivots that the cache
// holds and fetches the rest, one batched fetchV request per remote
// machine in machine order, vertices ascending. An optional fetch (the
// pulls of choosePulls) sheds a list the budget has no room for instead
// of failing; nothing depends on it being resident.
func (m *machine) fetchPivots(st *groupState, what string, optional bool) error {
	e := m.e
	// One fetch phase at a time per machine: a concurrent group's fetch
	// completes (and inserts) before this need-computation runs, so each
	// foreign vertex crosses the network once per machine.
	st.view.fetchMu.Lock()
	defer st.view.fetchMu.Unlock()
	slices.Sort(st.pivots)
	for i := range st.fetchFrom {
		st.fetchFrom[i] = st.fetchFrom[i][:0]
	}
	missing := false
	for _, v := range slices.Compact(st.pivots) {
		// DisableCache models a cacheless machine: every round pays the
		// fetch again, so a cache hit is not taken.
		if !e.cfg.DisableCache && st.view.pinCached(v) {
			st.view.hits.Add(1)
			st.logPin(v, optional) // keep it resident past any cache drop
			continue
		}
		st.view.misses.Add(1)
		owner := e.part.Owner[v]
		st.fetchFrom[owner] = append(st.fetchFrom[owner], v)
		missing = true
	}
	if !missing {
		return nil
	}
	sp := e.cfg.Trace.Start("execute/fetchV", m.id, -1)
	defer sp.End()
	for owner, vs := range st.fetchFrom {
		if len(vs) == 0 {
			continue
		}
		resp, err := e.tr.Call(m.id, owner, &cluster.FetchVRequest{Vertices: vs})
		if err != nil {
			return fmt.Errorf("%s to %d: %w", what, owner, err)
		}
		adj := resp.(*cluster.FetchVResponse).Adj
		if len(adj) != len(vs) {
			return fmt.Errorf("%s to %d: got %d lists for %d vertices", what, owner, len(adj), len(vs))
		}
		for i, v := range vs {
			err := st.view.insertPinned(v, adj[i])
			if err != nil && optional {
				continue // shed: its edges fall back to the EVI
			}
			if err != nil {
				st.relieve()
				if err = st.view.insertPinned(v, adj[i]); err != nil {
					return err
				}
			}
			st.logPin(v, optional)
			if optional {
				st.PulledLists++
			}
		}
	}
	return nil
}

// expandRound expands every frontier embedding of P_{round-1} through
// unit `round` (Algorithm 1). Frontier entries whose subtree produces
// no surviving results are removed via the pin/unpin accounting.
func (m *machine) expandRound(st *groupState, round int, frontier []*etrie.Node) error {
	e := m.e
	piv := e.pl.Units[round].Piv
	leaves := e.unitLeaves[round]
	prefixBefore := 1
	if round > 0 {
		prefixBefore = e.redPrefix[round-1]
	}
	for _, parent := range frontier {
		if parent.Dead() {
			continue
		}
		// Materialize f from the trie path.
		st.pathBuf = st.trie.AppendPath(st.pathBuf[:0], parent)
		if len(st.pathBuf) != prefixBefore {
			return fmt.Errorf("internal: frontier path length %d, want %d", len(st.pathBuf), prefixBefore)
		}
		for j, v := range st.pathBuf {
			st.f[e.redOrder[j]] = v
		}

		vpiv := st.f[piv]
		adj := st.mustAdj(vpiv) // fetched and pinned by fetchForeignPivots

		// Pin the parent: a mid-round flush may consume and remove every
		// child produced so far while we are still expanding beneath it.
		st.trie.Pin(parent)
		_, err := m.adjEnum(st, round, 0, parent, leaves, adj)

		for j := 0; j < prefixBefore; j++ {
			st.f[e.redOrder[j]] = -1
		}
		// Unpin removes the parent when nothing under it survived —
		// Algorithm 1 lines 7-9 generalized to segmented rounds.
		st.trie.Unpin(parent)
		if err != nil {
			return err
		}
	}
	return nil
}

// adjEnum is Algorithm 2: recursively match unit leaves within the
// neighbourhood of the pivot's data vertex, verifying what is locally
// determinable and deferring the rest to the EVI.
//
// Candidates of a level are generated, not tested one by one: the
// pivot's list is cut to the symmetry window (lb, ub) and intersected
// with the adjacency list of every verification neighbour whose list
// this machine knows. Only neighbours with an unknown list are left to
// the per-candidate check, which decides the edge from the candidate's
// own list when that is known and otherwise records it as
// undetermined — so the ECs, trie nodes and EVI entries are those of
// testing every pivot neighbour against every verification edge.
//
// Every level honours the flush limit: after a candidate, if the
// current segment has grown past flushNodes, the segment is verified,
// filtered and descended before expansion continues — so one hub
// candidate's deg² leaves close several segments, not one.
func (m *machine) adjEnum(st *groupState, round, li int, parent *etrie.Node, leaves []pattern.VertexID, pivAdj []graph.VertexID) (bool, error) {
	e := m.e
	u := leaves[li]
	pos := e.redPos[u]
	produced := false
	if len(pivAdj) == 0 {
		return false, nil
	}

	// Flush points are those of a walk over the whole pivot list — on
	// entry to the first level, and after a candidate whenever more of
	// the list follows — so segment boundaries, and the ET/EL accounting
	// cut at them, do not depend on how many neighbours candidate
	// generation skips. They are safe: the previous candidate's subtree
	// is fully linked, and every open chain node above it — the frontier
	// parent and one per shallower level — is linked and pinned, so the
	// descent's removals stop there.
	flushes := st.flushNodes > 0
	if flushes && li == 0 && len(st.created) >= st.flushNodes {
		if err := m.midFlush(st, round); err != nil {
			return produced, err
		}
	}

	lb, ub := st.bounds(e.cons2[pos])
	cands := window(pivAdj, lb, ub)
	unk := st.unk[li][:0]
	for _, w := range e.verif[pos] {
		if adj, ok := st.adjKnown(st.f[w]); ok {
			st.cand[li] = st.Kernels.IntersectSortedU32(st.cand[li], cands, window(adj, lb, ub))
			cands = st.cand[li]
		} else {
			unk = append(unk, w)
		}
	}
	st.unk[li] = unk

	minDeg := e.p.Degree(u)
	lastAdj := pivAdj[len(pivAdj)-1]
	for _, v := range cands {
		if st.matched(v) {
			continue
		}
		if !st.degreeAtLeast(v, minDeg) {
			continue
		}
		// Verification edges the intersection could not decide: check
		// locally when determinable now (the candidate's own list, or
		// one a flush has fetched since), otherwise collect as
		// undetermined.
		undet := st.pending[li][:0]
		ok := true
		for _, w := range unk {
			fw := st.f[w]
			exists, determinable := st.edgeKnown(v, fw)
			if !determinable {
				undet = append(undet, graph.Edge{U: v, V: fw}.Normalize())
			} else if !exists {
				ok = false
				break
			}
		}
		st.pending[li] = undet
		if !ok {
			continue
		}

		node := st.trie.Node(parent, v)
		st.f[u] = v

		var err error
		if li == len(leaves)-1 {
			// EC of P_round complete (Algorithm 2 lines 16-19).
			st.trie.Link(node)
			st.DistNodes++
			st.created = append(st.created, node)
			for _, levelEdges := range st.pending[:li+1] {
				for _, de := range levelEdges {
					st.evi.Add(de, node)
				}
			}
			produced = true
		} else {
			// Linked and pinned before the descent, so a flush below can
			// consume the node's children without removing it; Unpin
			// removes it when nothing under it is left.
			st.trie.Link(node)
			st.trie.Pin(node)
			var deeper bool
			deeper, err = m.adjEnum(st, round, li+1, node, leaves, pivAdj)
			st.trie.Unpin(node)
			if deeper {
				st.DistNodes++
				produced = true
			}
		}

		st.f[u] = -1
		if err != nil {
			return produced, err
		}
		if flushes && len(st.created) >= st.flushNodes && v != lastAdj {
			if err := m.midFlush(st, round); err != nil {
				return produced, err
			}
		}
	}
	return produced, nil
}

// verifyAndFilter sends one verifyE request per remote machine covering
// all EVI keys, then filters failed candidates (Proposition 2).
func (m *machine) verifyAndFilter(st *groupState) error {
	e := m.e
	if st.evi.Len() == 0 {
		return nil
	}
	for i := range st.askEdges {
		st.askEdges[i] = st.askEdges[i][:0]
	}
	remote := false
	for _, ed := range st.evi.Edges() {
		owner := int(e.part.Owner[ed.U])
		if owner == m.id {
			// Shouldn't happen: locally determinable edges never enter
			// the EVI; resolve defensively without network traffic.
			if !e.g.HasEdge(ed.U, ed.V) {
				st.evi.Fail(ed, st.trie)
			}
			continue
		}
		st.askEdges[owner] = append(st.askEdges[owner], ed)
		remote = true
	}
	if remote {
		sp := e.cfg.Trace.Start("execute/verifyE", m.id, -1)
		defer sp.End()
	}
	for owner, edges := range st.askEdges {
		if len(edges) == 0 {
			continue
		}
		st.VerifyEdges += int64(len(edges))
		resp, err := e.tr.Call(m.id, owner, &cluster.VerifyERequest{Edges: edges})
		if err != nil {
			return fmt.Errorf("verifyE to %d: %w", owner, err)
		}
		exists := resp.(*cluster.VerifyEResponse).Exists
		if len(exists) != len(edges) {
			return fmt.Errorf("verifyE to %d: %d answers for %d edges", owner, len(exists), len(edges))
		}
		for i, ok := range exists {
			if !ok {
				st.evi.Fail(edges[i], st.trie)
			}
		}
	}
	st.evi.Reset()
	return nil
}

// recordRoundStats accumulates the Table 3/4 compression accounting for
// one flush segment of one round: alive is the number of surviving
// results of P_round in the segment.
func (m *machine) recordRoundStats(st *groupState, round, alive int) {
	prefix := int64(m.e.redPrefix[round])
	el := int64(alive) * prefix * etrie.VertexBytes
	et := st.trie.Bytes()
	st.ELBytesCum += el
	st.ETBytesCum += et
	st.ELBytesPeak = max(st.ELBytesPeak, el)
	st.ETBytesPeak = max(st.ETBytesPeak, et)
}

// chargeTrie reconciles the budget charge with the trie's current size.
func (m *machine) chargeTrie(st *groupState) error {
	cur := st.trie.Bytes()
	switch {
	case cur > st.chargedTrie:
		grown := cur - st.chargedTrie
		if err := m.e.cfg.Budget.Charge(m.id, grown); err != nil {
			st.relieve()
			if err = m.e.cfg.Budget.Charge(m.id, grown); err != nil {
				return err
			}
		}
	case cur < st.chargedTrie:
		m.e.cfg.Budget.Release(m.id, st.chargedTrie-cur)
	}
	st.chargedTrie = cur
	return nil
}
