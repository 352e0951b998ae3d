// Package census enumerates *all* connected size-k subgraphs of a data
// graph and histograms them by isomorphism class — the motif-census
// workload of the ROADMAP's "new workloads" item, and the first batch
// analytics mode served beside the interactive pattern queries.
//
// The enumerator is ESU (Wernicke's FANMOD algorithm): every connected
// k-vertex subgraph is visited exactly once by growing from its
// minimum-id root through an extension set restricted to ids greater
// than the root and to exclusive neighbours of the current subgraph.
// Each worker keeps one byte per vertex, nbr: bit i of nbr[x] is set
// iff x is adjacent to the i-th vertex of the current subgraph. The
// bits are set while a new vertex's adjacency list is walked to grow
// the extension set, and cleared by a second walk on the way back. So
// nbr[u] == 0 for u above the root is ESU's exclusivity test, and a
// candidate's induced adjacency to the subgraph is the single load
// nbr[w] — no edge probe. The last level is counted in place, one
// level up: once the walk of a (k-1)-th vertex w has set its bit,
// each later candidate x of the parent's extension completes a
// subgraph whose last vertex has byte nbr[x], and each exclusive
// neighbour of w one whose byte is w's bit alone. So w looks up its
// count row (keyed by the packed adjacency mask of the first k-1
// vertices) once, no extension set is built for the last level, and
// no map is written per subgraph. Classes are keyed by
// pattern.CanonicalKey's string — the same labeling that keys the
// query service's result cache — so census classes and cached motif
// queries share one vocabulary. A run classifies each *labeled* adjacency mask once
// (classMemo, kept for one run), never each enumerated subgraph, and
// canonicalises only the first mask of each class: the others share
// its invariant.
//
// Parallelism follows "Shared Memory Parallel Subgraph Enumeration":
// root vertices are the independent work units, claimed one at a time
// by a worker pool through an atomic cursor. Under hub-first numbering
// the cursor hands out the heaviest roots first, so no worker is left
// with a long tail. Workers keep their count rows across roots and
// fold them into the shared tally, and report progress, whenever they
// have enumerated stopCheckMask+1 subgraphs since their last fold
// (polling for cancellation at the same points), and once more when
// the cursor runs out or they abort. A census runs on any graph — the
// synthetic analogs and ingested datasets alike.
package census

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/pattern"
)

// MaxK bounds the census subgraph size. 7 keeps the packed adjacency
// mask in 21 bits and the per-class canonicalization (factorial worst
// case) trivially cheap; beyond that enumeration on any interesting
// graph is intractable long before classification is.
const MaxK = 7

// stopCheckMask throttles the cancellation poll and the fold inside
// the hot enumeration loop: a worker reads the shared stop flag and
// folds its counts once per stopCheckMask+1 enumerated subgraphs, so a
// single hub root can neither pin it long after cancellation nor hide
// its counts from progress and checkpoints.
const stopCheckMask = 4095

// Config tunes one census run. The zero value of every field gets a
// sensible default except K, which is required.
type Config struct {
	// K is the subgraph size to enumerate, 1..MaxK.
	K int
	// Workers is the size of the enumeration pool (default
	// runtime.GOMAXPROCS(0), capped at the vertex count).
	Workers int
	// OnProgress, when set, is called with monotonically increasing
	// progress after a worker's fold, at most once per ProgressEvery,
	// and once more when the run finishes or is cancelled.
	OnProgress func(Progress)
	// ProgressEvery rate-limits OnProgress (default 0: every fold).
	ProgressEvery time.Duration
	// OnCheckpoint, when set, is called with a copy of the partial
	// histogram at most once per CheckpointEvery — the hook the job
	// manager persists partial results through.
	OnCheckpoint func(Histogram, Progress)
	// CheckpointEvery rate-limits OnCheckpoint (default 0: every
	// fold).
	CheckpointEvery time.Duration
	// Trace, when non-nil, receives per-worker enumeration spans.
	Trace *obs.Trace
}

// Progress is a point-in-time view of a running census. All fields are
// non-decreasing over the life of a run.
type Progress struct {
	// VerticesDone counts root vertices whose enumeration finished.
	VerticesDone int64 `json:"vertices_done"`
	// TotalVertices is the graph's vertex count (the denominator).
	TotalVertices int64 `json:"total_vertices"`
	// SubgraphsSeen counts subgraphs enumerated and folded so far
	// (folds happen inside a root too, so it moves even while a worker
	// is deep inside a hub root).
	SubgraphsSeen int64 `json:"subgraphs_seen"`
	// Elapsed is wall time since the run began.
	Elapsed time.Duration `json:"-"`
}

// Histogram maps canonical class keys (pattern.CanonicalKey strings,
// e.g. "3:111" for the triangle) to subgraph counts.
type Histogram map[string]int64

// Total sums all class counts.
func (h Histogram) Total() int64 {
	var t int64
	for _, c := range h {
		t += c
	}
	return t
}

// Keys returns the class keys sorted lexicographically — the stable
// iteration order of every serialized histogram.
func (h Histogram) Keys() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Result is a finished (or cancelled-partial) census.
type Result struct {
	// K echoes the subgraph size.
	K int `json:"k"`
	// Histogram holds the per-class counts. After a cancelled run it
	// holds the subgraphs of every root in VerticesDone, plus those
	// each root in flight at the stop had enumerated.
	Histogram Histogram `json:"histogram"`
	// Subgraphs is Histogram.Total(), precomputed.
	Subgraphs int64 `json:"subgraphs"`
	// VerticesDone / TotalVertices mirror the final progress.
	VerticesDone  int64 `json:"vertices_done"`
	TotalVertices int64 `json:"total_vertices"`
	// Partial marks a cancelled run's truncated histogram.
	Partial bool `json:"partial,omitempty"`
	// Seconds is the run's wall time; Workers the pool size used.
	Seconds float64 `json:"seconds"`
	Workers int     `json:"workers"`
}

// Run enumerates all connected size-K subgraphs of g and histograms
// them by canonical class. On cancellation it returns the partial
// result alongside the context's error, so callers can surface what
// was counted before the abort.
func Run(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil {
		return nil, errors.New("census: nil graph")
	}
	if cfg.K < 1 || cfg.K > MaxK {
		return nil, fmt.Errorf("census: k=%d out of range [1, %d]", cfg.K, MaxK)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	st := &state{
		cfg:   cfg,
		start: time.Now(),
		total: int64(n),
		masks: make(map[uint32]int64),
		memo:  newClassMemo(cfg.K),
	}

	// A watcher turns the context edge into a cheap atomic flag the
	// enumeration hot path can poll.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			st.stop.Store(true)
		case <-watchDone:
		}
	}()

	span := cfg.Trace.Start("enumerate", -1, -1)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wspan := cfg.Trace.Start("enumerate/worker", -1, w)
			defer wspan.End()
			e := newEnumerator(g, cfg.K, st)
			for {
				v := cursor.Add(1) - 1
				if v >= int64(n) || st.stop.Load() {
					break
				}
				e.enumerateRoot(graph.VertexID(v))
				if e.stopped {
					break
				}
				e.rootsDone++
			}
			st.fold(e)
		}(w)
	}
	wg.Wait()
	span.End()
	close(watchDone)

	fin := cfg.Trace.Start("finalize", -1, -1)
	res := st.finalResult(cfg.K, workers)
	fin.End()
	if err := ctx.Err(); err != nil {
		res.Partial = true
		st.report(true)
		return res, err
	}
	st.report(true)
	return res, nil
}

// state is the cross-worker shared tally of one run.
type state struct {
	cfg   Config
	start time.Time
	total int64
	stop  atomic.Bool

	verticesDone  atomic.Int64
	subgraphsSeen atomic.Int64

	mu    sync.Mutex
	masks map[uint32]int64 // packed adjacency mask -> count
	memo  *classMemo

	cbMu         sync.Mutex
	lastProgress time.Time
	lastCkpt     time.Time
}

func (st *state) elapsed() time.Duration { return time.Since(st.start) }

// fold moves a worker's unfolded counts — its dirty rows, finished
// roots and enumerated subgraphs — into the shared tally and fires the
// progress/checkpoint callbacks (rate-limited).
func (st *state) fold(e *enumerator) {
	base := uint32((e.k - 1) * (e.k - 2) / 2)
	st.mu.Lock()
	for _, parent := range e.dirty {
		r := &e.rows[parent]
		for b, c := range r.n {
			if c != 0 {
				st.masks[parent|uint32(b)<<base] += c
				r.n[b] = 0
			}
		}
		r.dirty = false
	}
	st.mu.Unlock()
	e.dirty = e.dirty[:0]
	st.verticesDone.Add(e.rootsDone)
	st.subgraphsSeen.Add(e.unfolded)
	e.rootsDone, e.unfolded = 0, 0
	st.report(false)
}

// report fires the progress and checkpoint callbacks, serialized and
// rate-limited; final reports bypass the rate limits. The snapshot is
// read under cbMu: taken before it, two workers could deliver theirs
// in the opposite order and break OnProgress's monotonic contract.
// Every worker has folded by the time the final report runs, so that
// one equals the Result.
func (st *state) report(final bool) {
	if st.cfg.OnProgress == nil && st.cfg.OnCheckpoint == nil {
		return
	}
	st.cbMu.Lock()
	defer st.cbMu.Unlock()
	p := Progress{
		VerticesDone:  st.verticesDone.Load(),
		TotalVertices: st.total,
		SubgraphsSeen: st.subgraphsSeen.Load(),
		Elapsed:       st.elapsed(),
	}
	now := time.Now()
	if st.cfg.OnProgress != nil && (final || now.Sub(st.lastProgress) >= st.cfg.ProgressEvery) {
		st.lastProgress = now
		st.cfg.OnProgress(p)
	}
	if st.cfg.OnCheckpoint != nil && (final || now.Sub(st.lastCkpt) >= st.cfg.CheckpointEvery) {
		st.lastCkpt = now
		st.cfg.OnCheckpoint(st.histogram(), p)
	}
}

// histogram converts the shared mask tally into canonical-class
// counts. It copies the tally under st.mu and classifies the copy
// after releasing it, so a checkpoint never holds up a worker's fold.
func (st *state) histogram() Histogram {
	st.mu.Lock()
	masks := maps.Clone(st.masks)
	st.mu.Unlock()
	return st.memo.histogram(masks)
}

func (st *state) finalResult(k, workers int) *Result {
	h := st.histogram()
	return &Result{
		K:             k,
		Histogram:     h,
		Subgraphs:     h.Total(),
		VerticesDone:  st.verticesDone.Load(),
		TotalVertices: st.total,
		Seconds:       st.elapsed().Seconds(),
		Workers:       workers,
	}
}

// classMemo maps packed adjacency masks to canonical keys for one run.
// Every labelling of a class has its own mask: at k = 7 a census meets
// tens of thousands of masks but at most 853 classes. So a mask is
// not canonicalised. Each vertex gets a signature — its degree, how
// many neighbours it has of each degree, and how many edges join its
// neighbours — and the sorted signatures are the mask's invariant.
// Up to MaxK vertices the invariant tells every two classes apart
// (TestInvariantSeparatesClasses counts it over all 2^21 masks of 7
// vertices), so it names the class, and only the first mask met with
// each invariant pays for pattern.CanonicalKey. Raising MaxK needs an
// isomorphism test within each invariant, or a proof that none is.
type classMemo struct {
	k    int
	mu   sync.Mutex
	keys map[[MaxK]uint32]string // invariant -> canonical key
}

func newClassMemo(k int) *classMemo {
	return &classMemo{k: k, keys: make(map[[MaxK]uint32]string)}
}

// histogram sums counts, keyed by packed mask, into class counts.
func (c *classMemo) histogram(masks map[uint32]int64) Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := make(Histogram)
	for m, n := range masks {
		h[c.key(m)] += n
	}
	return h
}

// key returns the canonical key of mask's class; the caller holds c.mu.
func (c *classMemo) key(mask uint32) string {
	adj := unpack(c.k, mask)
	inv := invariant(c.k, &adj)
	s, ok := c.keys[inv]
	if !ok {
		s = canonicalKey(c.k, &adj)
		c.keys[inv] = s
	}
	return s
}

// canonicalKey is pattern.CanonicalKey of the k-vertex graph with
// adjacency rows adj.
func canonicalKey(k int, adj *[MaxK]uint8) string {
	var pairs []int
	for j := 1; j < k; j++ {
		for i := 0; i < j; i++ {
			if adj[j]>>i&1 != 0 {
				pairs = append(pairs, i, j)
			}
		}
	}
	return pattern.New("census", k, pairs...).CanonicalKey()
}

// unpack turns a packed lower triangle into adjacency rows: bit j of
// adj[i] is set iff i ~ j.
func unpack(k int, mask uint32) [MaxK]uint8 {
	var adj [MaxK]uint8
	bit := 0
	for j := 1; j < k; j++ {
		for i := 0; i < j; i++ {
			if mask&(1<<bit) != 0 {
				adj[i] |= 1 << j
				adj[j] |= 1 << i
			}
			bit++
		}
	}
	return adj
}

// invariant returns the k vertex signatures of adj, sorted ascending.
// A signature packs 3 bits of degree, 3 bits per neighbour degree 1..6
// counting the neighbours of that degree, and 4 bits of edges among
// the neighbours.
func invariant(k int, adj *[MaxK]uint8) [MaxK]uint32 {
	var deg [MaxK]int
	for v := 0; v < k; v++ {
		deg[v] = bits.OnesCount8(adj[v])
	}
	var sig [MaxK]uint32
	for v := 0; v < k; v++ {
		s, inner := uint32(deg[v]), 0
		for nb := adj[v]; nb != 0; nb &= nb - 1 {
			u := bits.TrailingZeros8(nb)
			s += 1 << (3 * deg[u])
			inner += bits.OnesCount8(adj[u] & adj[v])
		}
		sig[v] = s | uint32(inner/2)<<21
		for j := v; j > 0 && sig[j] < sig[j-1]; j-- {
			sig[j], sig[j-1] = sig[j-1], sig[j]
		}
	}
	return sig
}

// enumerator is one worker's reusable ESU machinery: all scratch is
// allocated once and reused across every root it processes.
type enumerator struct {
	g  *graph.Graph
	k  int
	st *state

	root graph.VertexID
	// nbr[x] has bit i set iff x is adjacent to the subgraph's vertex
	// at depth i; nbr[u] == 0 && u > root is ESU's exclusivity test.
	nbr []uint8
	// masks[d] packs the induced adjacency of the subgraph's first d+1
	// vertices: bit j*(j-1)/2 + i set iff vertex i ~ vertex j (i < j).
	masks []uint32
	// ext[d] is the extension set at depth d.
	ext [][]graph.VertexID
	// rows[m] counts the subgraphs whose first k-1 vertices pack to
	// mask m, by the nbr byte of their last vertex; dirty lists, once
	// each, the masks whose rows hold counts not yet folded.
	rows  []countRow
	dirty []uint32
	// rootsDone and unfolded count the roots finished and the
	// subgraphs enumerated since the last fold.
	rootsDone int64
	unfolded  int64
	stopped   bool
}

// countRow is one parent mask's counts, allocated on the worker's
// first visit to that mask.
type countRow struct {
	n     []int64
	dirty bool
}

func newEnumerator(g *graph.Graph, k int, st *state) *enumerator {
	return &enumerator{
		g:     g,
		k:     k,
		st:    st,
		nbr:   make([]uint8, g.NumVertices()),
		masks: make([]uint32, k),
		ext:   make([][]graph.VertexID, k),
		rows:  make([]countRow, 1<<((k-1)*(k-2)/2)),
	}
}

// row returns the count row of the parent mask, marking it dirty.
func (e *enumerator) row(parent uint32) []int64 {
	r := &e.rows[parent]
	if !r.dirty {
		if r.n == nil {
			r.n = make([]int64, 1<<(e.k-1))
		}
		r.dirty = true
		e.dirty = append(e.dirty, parent)
	}
	return r.n
}

// count records n completed subgraphs. Once stopCheckMask+1 have
// piled up since the last fold it polls the stop flag and, unless the
// run is stopping, folds. A caller must fetch its row again after
// count: the fold clears the row's dirty mark.
func (e *enumerator) count(n int64) {
	e.unfolded += n
	if e.unfolded > stopCheckMask {
		if e.st.stop.Load() {
			e.stopped = true
			return
		}
		e.st.fold(e)
	}
}

// enumerateRoot runs ESU from root v: every connected k-subgraph whose
// minimum vertex is v is counted exactly once.
func (e *enumerator) enumerateRoot(v graph.VertexID) {
	if e.k == 1 {
		e.row(0)[0]++
		e.count(1)
		return
	}
	e.root = v
	e.masks[0] = 0
	// The initial extension is every neighbour beyond the root.
	adj := e.g.Adj(v)
	ext := e.ext[0][:0]
	for _, u := range adj {
		e.nbr[u] = 1
		if u > v {
			ext = append(ext, u)
		}
	}
	e.ext[0] = ext
	if e.k == 2 {
		e.row(0)[1] += int64(len(ext))
		e.count(int64(len(ext)))
	} else {
		e.extend(1, ext)
	}
	for _, u := range adj {
		e.nbr[u] = 0
	}
}

// extend is the ESU recursion: grow the depth-d subgraph by one vertex
// from ext, where ext holds only exclusive neighbours (> root) of it.
// At d = k-2 it counts the grown subgraph's children in place instead
// of recursing.
func (e *enumerator) extend(d int, ext []graph.VertexID) {
	mask := e.masks[d-1]
	base := uint32(d * (d - 1) / 2)
	bit := uint8(1) << d
	last := d == e.k-2
	for idx, w := range ext {
		if e.stopped {
			return
		}
		e.masks[d] = mask | uint32(e.nbr[w])<<base
		// Every neighbour of w takes bit d for the subtree; the
		// exclusive ones beyond the root extend it.
		adj := e.g.Adj(w)
		if last {
			// A child is a later candidate x, whose last-vertex byte
			// is nbr[x] with w's bit now set, or an exclusive
			// neighbour of w, adjacent to w alone.
			excl := int64(0)
			for _, u := range adj {
				if e.nbr[u] == 0 && u > e.root {
					excl++
				}
				e.nbr[u] |= bit
			}
			row := e.row(e.masks[d])
			rest := ext[idx+1:]
			for _, x := range rest {
				row[e.nbr[x]]++
			}
			row[bit] += excl
			for _, u := range adj {
				e.nbr[u] &^= bit
			}
			e.count(int64(len(rest)) + excl)
			continue
		}
		nxt := append(e.ext[d][:0], ext[idx+1:]...)
		for _, u := range adj {
			if e.nbr[u] == 0 && u > e.root {
				nxt = append(nxt, u)
			}
			e.nbr[u] |= bit
		}
		e.ext[d] = nxt
		e.extend(d+1, nxt)
		for _, u := range adj {
			e.nbr[u] &^= bit
		}
	}
}

// BruteForce is the census oracle: it enumerates every k-combination
// of vertices, keeps the connected ones, and histograms them by
// canonical class. Exponential — test- and smoke-sized graphs only.
// ESU must agree with it exactly (the Kavosh-parity check from the
// motif literature). It canonicalises every distinct mask it meets
// instead of trusting classMemo's invariant, so it checks that too.
func BruteForce(g *graph.Graph, k int) Histogram {
	n := g.NumVertices()
	h := make(Histogram)
	if k < 1 || k > n {
		return h
	}
	masks := make(map[uint32]int64)
	idx := make([]graph.VertexID, k)
	var rec func(start graph.VertexID, depth int)
	rec = func(start graph.VertexID, depth int) {
		if depth == k {
			if mask, connected := inducedMask(g, idx); connected {
				masks[mask]++
			}
			return
		}
		for v := start; int(v) < n; v++ {
			idx[depth] = v
			rec(v+1, depth+1)
		}
	}
	rec(0, 0)
	for mask, c := range masks {
		adj := unpack(k, mask)
		h[canonicalKey(k, &adj)] += c
	}
	return h
}

// inducedMask packs the induced adjacency of vs and reports whether
// the induced subgraph is connected.
func inducedMask(g *graph.Graph, vs []graph.VertexID) (uint32, bool) {
	var mask uint32
	bit := 0
	var compo uint32 // adjacency closure bitmap over vs indices
	adj := make([]uint32, len(vs))
	for j := 1; j < len(vs); j++ {
		for i := 0; i < j; i++ {
			if g.HasEdge(vs[i], vs[j]) {
				mask |= 1 << bit
				adj[i] |= 1 << j
				adj[j] |= 1 << i
			}
			bit++
		}
	}
	// BFS over the tiny index set.
	compo = 1
	frontier := uint32(1)
	for frontier != 0 {
		i := bits.TrailingZeros32(frontier)
		frontier &^= 1 << i
		grow := adj[i] &^ compo
		compo |= grow
		frontier |= grow
	}
	return mask, compo == 1<<len(vs)-1
}
