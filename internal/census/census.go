// Package census enumerates *all* connected size-k subgraphs of a data
// graph and histograms them by isomorphism class — the motif-census
// workload of the ROADMAP's "new workloads" item, and the first batch
// analytics mode served beside the interactive pattern queries.
//
// The enumerator is ESU (Wernicke's FANMOD algorithm): every connected
// k-vertex subgraph is visited exactly once by growing from its
// minimum-id root through an extension set restricted to ids greater
// than the root and to exclusive neighbours of the current subgraph.
// Classification goes through pattern.CanonicalKey — the same labeling
// that keys the query service's result cache — so census classes and
// cached motif queries share one vocabulary. Keys are computed at most
// once per *labeled* adjacency mask (a memo keyed by the packed lower
// triangle), never per enumerated subgraph.
//
// Parallelism follows "Shared Memory Parallel Subgraph Enumeration":
// root vertices are the independent work units, claimed by a worker
// pool in contiguous ranges through an atomic cursor. Workers keep
// mask-keyed local counts and fold them into the shared tally at range
// boundaries, where cancellation is also checked and progress
// reported. A census runs on any graph.Store — the synthetic analogs
// and ingested CSR datasets alike.
package census

import (
	"context"
	"errors"
	"fmt"
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

// stopCheckMask throttles the cancellation poll inside the hot
// enumeration loop: the shared stop flag is read once per this many
// enumerated subgraphs, so a single hub root cannot pin a worker long
// after cancellation.
const stopCheckMask = 4095

// Config tunes one census run. The zero value of every field gets a
// sensible default except K, which is required.
type Config struct {
	// K is the subgraph size to enumerate, 1..MaxK.
	K int
	// Workers is the size of the enumeration pool (default
	// runtime.GOMAXPROCS(0), capped at the vertex count).
	Workers int
	// ChunkVertices is how many consecutive root vertices one work
	// unit claims (default 64). Cancellation and progress happen at
	// chunk boundaries.
	ChunkVertices int
	// OnProgress, when set, is called with monotonically increasing
	// progress after chunk merges, at most once per ProgressEvery,
	// and once more when the run finishes or is cancelled.
	OnProgress func(Progress)
	// ProgressEvery rate-limits OnProgress (default 0: every chunk).
	ProgressEvery time.Duration
	// OnCheckpoint, when set, is called with a copy of the partial
	// histogram at most once per CheckpointEvery — the hook the job
	// manager persists partial results through.
	OnCheckpoint func(Histogram, Progress)
	// CheckpointEvery rate-limits OnCheckpoint (default 0: every
	// chunk merge that follows a progress report).
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
	// SubgraphsSeen counts subgraphs enumerated so far (published at
	// chunk merges and at mid-chunk pulses, so it moves even while a
	// worker is deep inside a hub root).
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
	// covers only the enumerated prefix.
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
func Run(ctx context.Context, g graph.Store, cfg Config) (*Result, error) {
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
	chunk := cfg.ChunkVertices
	if chunk <= 0 {
		chunk = 64
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
				lo := cursor.Add(int64(chunk)) - int64(chunk)
				if lo >= int64(n) || st.stop.Load() {
					return
				}
				hi := lo + int64(chunk)
				if hi > int64(n) {
					hi = int64(n)
				}
				done := int64(0)
				for v := lo; v < hi; v++ {
					if e.aborted() {
						break
					}
					e.enumerateRoot(graph.VertexID(v))
					done++
				}
				st.merge(e, done)
				if e.aborted() {
					return
				}
			}
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

// merge folds a worker's chunk-local counts into the shared tally and
// fires the progress/checkpoint callbacks (rate-limited). Called at
// every chunk boundary — the cancellation points of the run.
func (st *state) merge(e *enumerator, rootsDone int64) {
	if len(e.local) > 0 {
		st.mu.Lock()
		for m, c := range e.local {
			st.masks[m] += c
		}
		st.mu.Unlock()
		for m := range e.local {
			delete(e.local, m)
		}
	}
	st.verticesDone.Add(rootsDone)
	st.subgraphsSeen.Add(e.seenDelta)
	e.seenDelta = 0
	st.report(false)
}

// report fires the progress and checkpoint callbacks, serialized and
// rate-limited; final reports bypass the rate limits. The snapshot is
// read under cbMu: taken before it, two workers could deliver theirs
// in the opposite order and break OnProgress's monotonic contract.
// Every worker has merged by the time the final report runs, so that
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

// histogram converts the shared mask tally into canonical-class counts.
func (st *state) histogram() Histogram {
	st.mu.Lock()
	defer st.mu.Unlock()
	h := make(Histogram, len(st.masks))
	for m, c := range st.masks {
		h[st.memo.key(m)] += c
	}
	return h
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

// classMemo maps packed adjacency masks to canonical keys. Many masks
// collapse to one key (every labeling of a class has its own mask), but
// the domain is tiny — at most 2^(k(k-1)/2) masks, in practice the few
// dozen that occur — so keys are computed a handful of times per run.
type classMemo struct {
	k    int
	mu   sync.Mutex
	keys map[uint32]string
}

func newClassMemo(k int) *classMemo {
	return &classMemo{k: k, keys: make(map[uint32]string)}
}

func (c *classMemo) key(mask uint32) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.keys[mask]; ok {
		return s
	}
	var pairs []int
	bit := 0
	for j := 1; j < c.k; j++ {
		for i := 0; i < j; i++ {
			if mask&(1<<bit) != 0 {
				pairs = append(pairs, i, j)
			}
			bit++
		}
	}
	s := pattern.New("census", c.k, pairs...).CanonicalKey()
	c.keys[mask] = s
	return s
}

// enumerator is one worker's reusable ESU machinery: all scratch is
// allocated once and reused across every root it processes.
type enumerator struct {
	g  graph.Store
	k  int
	st *state

	root graph.VertexID
	sub  []graph.VertexID // current subgraph vertices, sub[0] = root
	// masks[d] packs the induced adjacency of sub[:d+1]: bit
	// j*(j-1)/2 + i set iff sub[i]~sub[j] (i < j).
	masks []uint32
	// marked flags Vsub ∪ N(Vsub) — the ESU exclusion set. undo[d]
	// lists vertices marked when sub reached depth d, unmarked on
	// backtrack.
	marked []bool
	undo   [][]graph.VertexID
	// ext[d] is the extension set at depth d.
	ext [][]graph.VertexID

	local     map[uint32]int64 // chunk-local mask counts
	seenDelta int64
	seenTick  int64
	lastPulse time.Time
	stopped   bool
}

func newEnumerator(g graph.Store, k int, st *state) *enumerator {
	e := &enumerator{
		g:      g,
		k:      k,
		st:     st,
		sub:    make([]graph.VertexID, 0, k),
		masks:  make([]uint32, k),
		marked: make([]bool, g.NumVertices()),
		undo:   make([][]graph.VertexID, k),
		ext:    make([][]graph.VertexID, k),
		local:  make(map[uint32]int64),
	}
	return e
}

// aborted reports whether this worker has observed cancellation.
func (e *enumerator) aborted() bool { return e.stopped }

// emit records one completed subgraph whose packed adjacency is mask.
func (e *enumerator) emit(mask uint32) {
	e.local[mask]++
	e.seenDelta++
	e.seenTick++
	if e.seenTick&stopCheckMask == 0 {
		if e.st.stop.Load() {
			e.stopped = true
			return
		}
		e.pulse()
	}
}

// pulseEvery bounds how often one worker flushes its seen-counter and
// reports progress from inside a chunk.
const pulseEvery = 20 * time.Millisecond

// pulse publishes enumeration progress mid-chunk. Chunk merges are the
// primary reporting points, but a hub root can occupy a worker for a
// long stretch — without pulses its subgraphs would stay invisible
// (and progress would look stalled) until the chunk ends.
func (e *enumerator) pulse() {
	if time.Since(e.lastPulse) < pulseEvery {
		return
	}
	e.lastPulse = time.Now()
	e.st.subgraphsSeen.Add(e.seenDelta)
	e.seenDelta = 0
	e.st.report(false)
}

// enumerateRoot runs ESU from root v: every connected k-subgraph whose
// minimum vertex is v is emitted exactly once.
func (e *enumerator) enumerateRoot(v graph.VertexID) {
	if e.k == 1 {
		e.emit(0)
		return
	}
	e.root = v
	e.sub = append(e.sub[:0], v)
	e.masks[0] = 0
	// Exclusion set starts as {v} ∪ N(v); the initial extension is
	// every neighbour beyond the root.
	und := e.undo[0][:0]
	e.marked[v] = true
	und = append(und, v)
	ext := e.ext[0][:0]
	for _, u := range e.g.Adj(v) {
		e.marked[u] = true
		und = append(und, u)
		if u > v {
			ext = append(ext, u)
		}
	}
	e.undo[0] = und
	e.ext[0] = ext
	e.extend(ext)
	for _, u := range e.undo[0] {
		e.marked[u] = false
	}
}

// extend is the ESU recursion: grow sub by one vertex from ext, where
// ext holds only exclusive neighbours (> root) of the current sub.
func (e *enumerator) extend(ext []graph.VertexID) {
	d := len(e.sub) // depth of the vertex being added
	mask := e.masks[d-1]
	base := uint32(d * (d - 1) / 2)
	if d == e.k-1 {
		// Last level: classify without materializing the recursion.
		for _, w := range ext {
			wm := mask
			for i, s := range e.sub {
				if e.g.HasEdge(w, s) {
					wm |= 1 << (base + uint32(i))
				}
			}
			e.emit(wm)
		}
		return
	}
	for idx, w := range ext {
		if e.stopped {
			return
		}
		wm := mask
		for i, s := range e.sub {
			if e.g.HasEdge(w, s) {
				wm |= 1 << (base + uint32(i))
			}
		}
		// ext' = remaining ext ∪ exclusive unseen neighbours of w
		// beyond the root; every newly seen neighbour (any id) joins
		// the exclusion set for the subtree under w.
		nxt := e.ext[d][:0]
		nxt = append(nxt, ext[idx+1:]...)
		und := e.undo[d][:0]
		for _, u := range e.g.Adj(w) {
			if !e.marked[u] {
				e.marked[u] = true
				und = append(und, u)
				if u > e.root {
					nxt = append(nxt, u)
				}
			}
		}
		e.undo[d] = und
		e.ext[d] = nxt
		e.sub = append(e.sub, w)
		e.masks[d] = wm
		e.extend(nxt)
		e.sub = e.sub[:d]
		for _, u := range und {
			e.marked[u] = false
		}
	}
}

// BruteForce is the census oracle: it enumerates every k-combination
// of vertices, keeps the connected ones, and histograms them by
// canonical class. Exponential — test- and smoke-sized graphs only.
// ESU must agree with it exactly (the Kavosh-parity check from the
// motif literature).
func BruteForce(g graph.Store, k int) Histogram {
	n := g.NumVertices()
	h := make(Histogram)
	if k < 1 || k > n {
		return h
	}
	memo := newClassMemo(k)
	idx := make([]graph.VertexID, k)
	var rec func(start graph.VertexID, depth int)
	rec = func(start graph.VertexID, depth int) {
		if depth == k {
			if mask, connected := inducedMask(g, idx); connected {
				h[memo.key(mask)]++
			}
			return
		}
		for v := start; int(v) < n; v++ {
			idx[depth] = v
			rec(v+1, depth+1)
		}
	}
	rec(0, 0)
	return h
}

// inducedMask packs the induced adjacency of vs and reports whether
// the induced subgraph is connected.
func inducedMask(g graph.Store, vs []graph.VertexID) (uint32, bool) {
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
