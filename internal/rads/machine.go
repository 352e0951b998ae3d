package rads

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// machine is one query's state on one machine: it enumerates from the
// machine's partition slot, running SM-E then R-Meef over its region
// groups, and steals work when idle, while the Machine hosting it
// (daemon.go) answers the other machines' requests. Within the machine,
// SM-E candidates and region groups fan out across a bounded pool of
// engine.workers() goroutines; the region group is the unit a pool
// worker takes, from its own machine or by stealing. Each pool worker
// owns one reusable enumerator and each running region group its own
// groupState, so workers never contend on scratch state — only on the
// group queue, the shared adjacency-cache view, the machine's list of
// idle group states and the merge of commutative counters.
type machine struct {
	e  *engine
	id int

	// states holds the clean group states of finished groups for the
	// next ones (takeState/keepState). It lives and dies with the
	// machine, which serves one query: a process-wide pool would keep
	// every state's largest working set across queries.
	statesMu sync.Mutex
	states   []*groupState

	// view is the machine's local-knowledge discipline: own partition
	// plus the fetched-adjacency cache, shared by all pool workers under
	// its lock so each foreign vertex crosses the network once per
	// machine, not once per worker. Groups pin the lists they fetched
	// for their in-flight rounds (groupState.pinLog), so a concurrent
	// group's cache-pressure drop never invalidates them mid-use.
	view *view

	queue *groupQueue // unprocessed region groups (shared with daemon)

	// Results: region groups merge their counters in under mu as they
	// complete, the SM-E worker shards at the SM-E barrier; stealing
	// workers count their groups under it.
	mu sync.Mutex
	Counters
	elapsed time.Duration

	groupsFormed int
	groupsStolen int

	// embMu serializes OnEmbedding delivery within this machine so
	// streaming consumers observe one well-ordered stream per machine
	// regardless of Workers.
	embMu sync.Mutex
}

// response is the machine's result slice, the one per-machine result
// of both coordinators: the in-process engine folds it as is, a hosted
// Machine ships it back in reply to runQuery. runErr is what run
// returned; an out-of-budget run is an outcome (OOM), not an error.
func (m *machine) response(runErr error) *RunQueryResponse {
	return &RunQueryResponse{
		Counters: m.Counters,
		Stat: obs.MachineStat{
			Machine:   m.id,
			Seconds:   m.elapsed.Seconds(),
			TreeNodes: m.SMENodes + m.DistNodes,
			Groups:    m.groupsFormed,
			Stolen:    m.groupsStolen,
		},
		Rounds:       m.e.pl.NumRounds(),
		Workers:      m.e.workers(),
		DeferredEnds: len(m.e.deferred),
		PeakMemBytes: m.e.cfg.Budget.Peak(m.id),
		OOM:          errors.Is(runErr, cluster.ErrOutOfMemory),
		CacheHits:    m.view.hits.Load(),
		CacheMisses:  m.view.misses.Load(),
	}
}

func newMachine(e *engine, id int) *machine {
	return &machine{
		e:     e,
		id:    id,
		view:  newView(e, id),
		queue: new(groupQueue),
	}
}

// emit hands one embedding to the configured callback, serialized per
// machine.
func (m *machine) emit(f []graph.VertexID) {
	m.embMu.Lock()
	m.e.cfg.OnEmbedding(m.id, f)
	m.embMu.Unlock()
}

// serveVerifyE answers daemon functionality (1) — edge-existence bits
// for edges the machine can see — from a partition, which may be the
// full graph (in-process) or a shard (remote daemon): either way the
// owned endpoint's adjacency list is complete, which is all the check
// needs. Requests arrive sorted by U, the endpoint the asker routed on,
// so the owner check and U's list are looked up once per run of equal
// U; an edge owned only through V falls back to HasEdge.
func serveVerifyE(part *partition.Partition, id int, r *cluster.VerifyERequest) (cluster.Message, error) {
	exists := make([]bool, len(r.Edges))
	n := uint32(len(part.Owner))
	var (
		runU  graph.VertexID
		ownsU bool
		adjU  []graph.VertexID
	)
	for i, e := range r.Edges {
		if uint32(e.U) >= n || uint32(e.V) >= n {
			return nil, fmt.Errorf("machine %d asked to verify edge %v outside the %d-vertex graph", id, e, n)
		}
		if i == 0 || e.U != runU {
			runU, ownsU = e.U, part.Owner[e.U] == int32(id)
			if ownsU {
				adjU = part.G.Adj(e.U)
			}
		}
		switch {
		case ownsU:
			exists[i] = graph.ContainsSorted(adjU, e.V)
		case part.Owner[e.V] == int32(id):
			exists[i] = part.G.HasEdge(e.U, e.V)
		default:
			return nil, fmt.Errorf("machine %d asked to verify foreign edge %v", id, e)
		}
	}
	return &cluster.VerifyEResponse{Exists: exists}, nil
}

// serveFetchV answers daemon functionality (2) — adjacency lists of
// owned vertices.
func serveFetchV(part *partition.Partition, id int, r *cluster.FetchVRequest) (cluster.Message, error) {
	adj := make([][]graph.VertexID, len(r.Vertices))
	for i, v := range r.Vertices {
		if uint32(v) >= uint32(len(part.Owner)) || part.Owner[v] != int32(id) {
			return nil, fmt.Errorf("machine %d asked to fetch foreign vertex %d", id, v)
		}
		adj[i] = part.G.Adj(v)
	}
	return &cluster.FetchVResponse{Adj: adj}, nil
}

func (m *machine) run() (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: machine %d: %w", ErrAborted, m.id, err)
		}
	}()
	start := time.Now()
	defer func() {
		m.elapsed = time.Since(start)
		m.Kernels.AddToProcessTotals()
	}()
	machSp := m.e.cfg.Trace.Start("execute/machine", m.id, -1)
	defer machSp.End()

	c1, c2 := m.splitCandidates()

	// SM-E (Section 3.1).
	if len(c1) > 0 {
		smeSp := m.e.cfg.Trace.Start("execute/sme", m.id, -1)
		err := m.runSME(c1)
		smeSp.End()
		if err != nil {
			return err
		}
	}

	// Region groups (Section 6).
	grpSp := m.e.cfg.Trace.Start("execute/grouping", m.id, -1)
	groups := m.regionGroups(c2)
	m.groupsFormed = len(groups)
	m.queue.Fill(groups)
	grpSp.End()

	// Process own groups, then stolen ones, across the worker pool; the
	// daemon may give some of the own ones away concurrently via shareR.
	return m.processGroups()
}

// splitCandidates returns this machine's candidates of the starting
// query vertex, split by border distance (Proposition 1): c1 can only
// root embeddings that lie entirely on this machine and goes to SM-E,
// c2 goes through region groups.
func (m *machine) splitCandidates() (c1, c2 []graph.VertexID) {
	ustart := m.e.pl.Units[0].Piv
	span := m.e.p.Span(ustart)

	var cands []graph.VertexID
	for _, v := range m.e.part.Vertices(m.id) {
		if m.e.g.Degree(v) >= m.e.p.Degree(ustart) {
			cands = append(cands, v)
		}
	}
	if m.e.cfg.DisableSME {
		return nil, cands
	}
	bd := m.e.part.BD
	for _, v := range cands {
		if int(bd[v]) >= span {
			c1 = append(c1, v)
		} else {
			c2 = append(c2, v)
		}
	}
	return c1, c2
}

// processGroups runs region groups on engine.workers() pool workers
// until none is left anywhere: each worker pops its machine's queue and,
// once that is empty and stealing is on, steals groups from the other
// machines one at a time (steal). The first failure (context
// cancellation, ErrOutOfMemory, transport death) flips an abort flag so
// sibling workers stop before taking further groups.
func (m *machine) processGroups() error {
	workers := m.e.workers()
	var wg sync.WaitGroup
	var aborted atomic.Bool
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !aborted.Load() {
				g, err := m.nextGroup(w, &aborted)
				if err == nil && g == nil {
					return
				}
				if err == nil {
					err = m.processGroup(g, w)
				}
				if err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nextGroup returns worker w's next region group: one of its machine's
// own, else, with stealing on, one stolen from another machine; nil when
// there is none left.
func (m *machine) nextGroup(w int, aborted *atomic.Bool) ([]graph.VertexID, error) {
	if err := m.e.checkCtx(); err != nil {
		return nil, err
	}
	if g, ok := m.queue.Pop(); ok {
		return g, nil
	}
	if m.e.cfg.DisableLoadBalancing {
		return nil, nil
	}
	return m.steal(w, aborted)
}

// steal is the load balancer (Section 3.1 checkR/shareR), run by a pool
// worker whose machine's queue is empty: broadcast checkR, take a group
// from the most loaded machine via shareR, and poll again when another
// thief won the race for it. It returns nil once every other machine
// reports zero unprocessed groups, or once a sibling worker has failed.
// A worker takes one group per steal, so an idle machine never hoards
// groups a second thief could take.
func (m *machine) steal(w int, aborted *atomic.Bool) ([]graph.VertexID, error) {
	sp := m.e.cfg.Trace.Start("execute/steal", m.id, w)
	defer sp.End()
	for !aborted.Load() {
		if err := m.e.checkCtx(); err != nil {
			return nil, err
		}
		bestMachine, bestLoad := -1, 0
		for t := 0; t < m.e.part.M; t++ {
			if t == m.id {
				continue
			}
			resp, err := m.e.tr.Call(m.id, t, &cluster.CheckRRequest{})
			if err != nil {
				return nil, fmt.Errorf("checkR to %d: %w", t, err)
			}
			if n := resp.(*cluster.CheckRResponse).Unprocessed; n > bestLoad {
				bestMachine, bestLoad = t, n
			}
		}
		if bestMachine < 0 {
			return nil, nil // cluster drained
		}
		resp, err := m.e.tr.Call(m.id, bestMachine, &cluster.ShareRRequest{})
		if err != nil {
			return nil, fmt.Errorf("shareR to %d: %w", bestMachine, err)
		}
		if sr := resp.(*cluster.ShareRResponse); sr.OK {
			m.mu.Lock()
			m.groupsStolen++
			m.mu.Unlock()
			return sr.Group, nil
		}
	}
	return nil, nil
}

// runSME enumerates every C1 candidate with the single-machine
// algorithm, restricted to vertices this machine owns. Proposition 1
// fixes only where a local embedding starts (the plan's first pivot),
// so the enumerator runs on the connectivity-first order rooted there
// rather than on the plan's unit order, which serves the rounds'
// communication, not intersection; with no OnEmbedding it passes no
// callback and the last level is counted, not visited. Candidates fan
// out across the worker pool; every worker reuses one enumerator
// (frame, bitmaps and candidate scratch allocated once), so the
// steady-state loop is allocation-free. Counter shards merge at the
// barrier.
func (m *machine) runSME(c1 []graph.VertexID) error {
	var fn func(f []graph.VertexID) bool
	if m.e.cfg.OnEmbedding != nil {
		fn = func(f []graph.VertexID) bool { m.emit(f); return true }
	}
	opts := m.smeOptions(localenum.GreedyOrderFrom(m.e.p, m.e.pl.Units[0].Piv))
	workers := m.e.workers()
	if workers > len(c1) {
		workers = len(c1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	shards := make([]Counters, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := localenum.New(m.e.g, m.e.p, opts)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c1) {
					return
				}
				if err := m.e.checkCtx(); err != nil {
					errs[w] = err
					return
				}
				st := en.Run(fn, c1[i])
				shards[w].SME += st.Embeddings
				shards[w].SMENodes += st.TreeNodes
				shards[w].Kernels.Add(st.Kernels)
			}
		}(w)
	}
	wg.Wait()
	for w := range shards {
		if errs[w] != nil {
			return errs[w]
		}
		m.merge(&shards[w])
	}
	return nil
}

// smeOptions returns the options SM-E enumerates from C1 roots with on
// order: the engine's constraints, and the owner test only where the
// order does not already keep every candidate owned
// (ownedByConstruction).
func (m *machine) smeOptions(order []pattern.VertexID) localenum.Options {
	opts := localenum.Options{Order: order, Constraints: m.e.cons}
	if !ownedByConstruction(m.e.p, order) {
		opts.Allowed = func(v graph.VertexID) bool { return m.e.part.Owner[v] == int32(m.id) }
	}
	return opts
}

// ownedByConstruction reports whether an enumeration on order from a
// C1 root v0 (BD(v0) >= span(order[0]), Proposition 1) meets only owned
// candidates. Let D(order[0]) = 0 and D(u) = 1 + min D(p) over u's
// matched neighbours p. If every level has a matched neighbour p with
// D(p) < span, then by induction p is bound to an owned vertex within
// D(p) hops of v0 inside the part, so its border distance is at least
// BD(v0) - D(p) >= 1: it has no foreign neighbour, and every candidate,
// one of its neighbours, is owned and within D(u) hops. A level with no
// matched neighbour, or none that near, may meet a foreign vertex.
func ownedByConstruction(p *pattern.Pattern, order []pattern.VertexID) bool {
	span := p.Span(order[0])
	d := make([]int, p.N())
	for i := range d {
		d[i] = -1 // not yet matched
	}
	d[order[0]] = 0
	for _, u := range order[1:] {
		near := -1
		for _, w := range p.Adj(u) {
			if d[w] >= 0 && (near < 0 || d[w] < near) {
				near = d[w]
			}
		}
		if near < 0 || near >= span {
			return false
		}
		d[u] = near + 1
	}
	return true
}

// --- region grouping (Section 6, Algorithm 3) ---

// regionGroups splits the R-Meef candidates c2 into region groups of at
// most engine.segment candidates each: by proximity, or in arbitrary
// chunks under the RandomGrouping ablation. The paper sizes a group
// from an estimate of its intermediate results; here flush segments,
// the crowded round's halving and relieve bound what a group builds,
// so the group is bounded like a segment, by the trie nodes its roots
// take. A group is also the unit the pool and stealing hand out, so a
// machine with fewer candidates than its workers' segments still forms
// a group per worker, and with stealing on one more per worker, which
// the pool or a thief takes once a worker is done.
func (m *machine) regionGroups(c2 []graph.VertexID) [][]graph.VertexID {
	n := m.e.workers()
	if !m.e.cfg.DisableLoadBalancing {
		n *= 2
	}
	size := max(1, min(m.e.segment, (len(c2)+n-1)/n))
	if m.e.cfg.RandomGrouping {
		return chunkGroups(c2, size)
	}
	return proximityGroups(m.e.g, c2, size)
}

// proximityGroups partitions candidates into region groups: greedily
// grow each group by the candidate with the highest proximity
// (fraction of its neighbours adjacent to the group) until it holds
// size candidates.
//
// The per-vertex state is dense and stamped with the (1-based) id of
// the group being grown, so nothing is cleared between groups:
// inAdj[x] == id puts x in the union of the group's neighbourhoods, and
// seen[y] == id makes hits[y] the number of y's neighbours in it —
// y's proximity numerator, kept for the remaining candidates near the
// group, which touched lists in first-touch order.
func proximityGroups(g *graph.Graph, cands []graph.VertexID, size int) [][]graph.VertexID {
	n := g.NumVertices()
	remaining := make([]bool, n)
	for _, v := range cands {
		remaining[v] = true
	}
	inAdj, seen, hits := make([]int32, n), make([]int32, n), make([]int32, n)
	var touched []graph.VertexID
	var id int32
	grow := func(w graph.VertexID) {
		for _, x := range g.Adj(w) {
			if inAdj[x] == id {
				continue
			}
			inAdj[x] = id
			for _, y := range g.Adj(x) {
				if !remaining[y] {
					continue
				}
				if seen[y] != id {
					seen[y], hits[y] = id, 0
					touched = append(touched, y)
				}
				hits[y]++
			}
		}
	}

	var groups [][]graph.VertexID
	// Deterministic iteration: process candidates in sorted order.
	sorted := slices.Clone(cands)
	slices.Sort(sorted)
	for _, seed := range sorted {
		if !remaining[seed] {
			continue
		}
		remaining[seed] = false
		id = int32(len(groups) + 1)
		touched = touched[:0]
		rg := []graph.VertexID{seed}
		grow(seed)
		for len(rg) < size {
			// argmax proximity over the frontier; ties go to the smaller id.
			best, bestScore := graph.VertexID(-1), -1.0
			for _, v := range touched {
				if !remaining[v] {
					continue // joined the group since it was touched
				}
				score := float64(hits[v]) / float64(len(g.Adj(v)))
				if score > bestScore || (score == bestScore && v < best) {
					best, bestScore = v, score
				}
			}
			if best < 0 {
				break // no candidate within distance 2 of the group
			}
			remaining[best] = false
			rg = append(rg, best)
			grow(best)
		}
		groups = append(groups, rg)
	}
	return groups
}

// chunkGroups is the RandomGrouping ablation: fixed-size chunks with no
// locality.
func chunkGroups(cands []graph.VertexID, size int) [][]graph.VertexID {
	var groups [][]graph.VertexID
	for len(cands) > 0 {
		n := size
		if n > len(cands) {
			n = len(cands)
		}
		groups = append(groups, cands[:n])
		cands = cands[n:]
	}
	return groups
}

// --- group queue (shared between the machine loop and its daemon) ---

type groupQueue struct {
	mu     sync.Mutex
	groups [][]graph.VertexID
}

func (q *groupQueue) Fill(groups [][]graph.VertexID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.groups = append(q.groups, groups...)
}

func (q *groupQueue) Pop() ([]graph.VertexID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.groups) == 0 {
		return nil, false
	}
	g := q.groups[len(q.groups)-1]
	q.groups = q.groups[:len(q.groups)-1]
	return g, true
}

func (q *groupQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.groups)
}

// --- local-knowledge view ---

// view enforces the distribution discipline: a machine may read the
// adjacency list of a vertex only if it owns it or has fetched it.
// One view is shared by all of a machine's pool workers; cache writes
// are guarded by mu, and fetchMu serializes whole fetch phases
// (need-computation, the fetchV call, insertion), so each foreign
// adjacency list is fetched, transported and budget-charged once per
// machine regardless of Workers.
//
// Reads take no lock: R-Meef probes the cache once per foreign
// candidate, from every pool worker at once, so the resident lists are
// also published through slots, a paged array of atomic pointers
// indexed by vertex ID that writers keep in step with cache under mu.
//
// Entries a group's in-flight rounds depend on are pinned (a
// refcount): dropAll — the budget valve and the DisableCache ablation
// — skips pinned entries, so a list is evicted only when no round
// still relies on it, and everything resident stays budget-charged.
type view struct {
	e  *engine
	id int

	// fetchMu serializes fetch phases across the machine's pool
	// workers; held across the transport call, which is safe because
	// the remote daemon never touches this machine's view.
	fetchMu sync.Mutex

	mu    sync.Mutex
	cache map[graph.VertexID][]graph.VertexID
	pins  map[graph.VertexID]int

	// slots[x>>slotPageBits] is nil until a vertex of that page is
	// cached, so a view costs |V|/slotPageSize pointers up front and
	// one page per touched ID range after that.
	slots []atomic.Pointer[slotPage]

	// Fetch-phase cache effectiveness: hits are foreign pivots found
	// resident (pinCached success in a fetch phase), misses crossed the
	// network. Counted only in the batched fetch phases — not in the
	// adjKnown hot path, whose per-probe counting would distort the
	// enumeration inner loop.
	hits, misses atomic.Int64
}

const (
	slotPageBits = 10
	slotPageSize = 1 << slotPageBits
)

type slotPage [slotPageSize]atomic.Pointer[[]graph.VertexID]

func newView(e *engine, id int) *view {
	return &view{
		e:     e,
		id:    id,
		cache: make(map[graph.VertexID][]graph.VertexID),
		pins:  make(map[graph.VertexID]int),
		slots: make([]atomic.Pointer[slotPage], (len(e.part.Owner)+slotPageSize-1)/slotPageSize),
	}
}

func (v *view) owned(x graph.VertexID) bool { return v.e.part.Owner[x] == int32(v.id) }

// cachedAdj returns x's fetched adjacency list, if present.
func (v *view) cachedAdj(x graph.VertexID) ([]graph.VertexID, bool) {
	if pg := v.slots[x>>slotPageBits].Load(); pg != nil {
		if adj := pg[x&(slotPageSize-1)].Load(); adj != nil {
			return *adj, true
		}
	}
	return nil, false
}

// publish makes x's slot read adj (nil empties it). Callers hold mu.
func (v *view) publish(x graph.VertexID, adj *[]graph.VertexID) {
	pg := v.slots[x>>slotPageBits].Load()
	if pg == nil {
		pg = new(slotPage)
		v.slots[x>>slotPageBits].Store(pg)
	}
	pg[x&(slotPageSize-1)].Store(adj)
}

// adjKnown returns the adjacency list of x if locally determinable.
func (v *view) adjKnown(x graph.VertexID) ([]graph.VertexID, bool) {
	if v.owned(x) {
		return v.e.g.Adj(x), true
	}
	return v.cachedAdj(x)
}

// pinCached atomically pins x if it is cached, reporting whether it
// was. Every successful pin must be matched by one unpin.
func (v *view) pinCached(x graph.VertexID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.cache[x]; !ok {
		return false
	}
	v.pins[x]++
	return true
}

// insertPinned caches a fetched adjacency list (charging the budget if
// it is new) and pins it. The charge failure leaves the entry absent
// and unpinned.
func (v *view) insertPinned(x graph.VertexID, adj []graph.VertexID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.cache[x]; !ok {
		if err := v.e.cfg.Budget.Charge(v.id, cacheEntryBytes(adj)); err != nil {
			return err
		}
		v.cache[x] = adj
		resident := adj // escapes; keeps the hit path from allocating
		v.publish(x, &resident)
	}
	v.pins[x]++
	return nil
}

// unpin releases one pin on x. The entry stays cached (and charged)
// until a later dropAll finds it unpinned.
func (v *view) unpin(x graph.VertexID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.pins[x]--; v.pins[x] <= 0 {
		delete(v.pins, x)
	}
}

// dropAll empties the unpinned part of the cache (DisableCache
// ablation and the budget valve), releasing budget. Pinned entries —
// lists an in-flight round still depends on — survive, charged, until
// their frames unpin them.
func (v *view) dropAll() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for x, adj := range v.cache {
		if v.pins[x] > 0 {
			continue
		}
		v.e.cfg.Budget.Release(v.id, cacheEntryBytes(adj))
		delete(v.cache, x)
		v.publish(x, nil)
	}
}

func cacheEntryBytes(adj []graph.VertexID) int64 {
	return int64(len(adj))*4 + 24
}
