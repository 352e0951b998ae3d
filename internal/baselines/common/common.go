// Package common provides the synchronous dataflow substrate shared by
// the baseline engines (PSgL, TwinTwig, SEED, Crystal, BigJoin): a
// superstep driver with barriers, the one exchange that moves
// intermediate rows between machines (Send routes, shuffles and counts
// them; Receive drains and charges them in the next superstep), memory
// accounting for cached intermediate results, the one result tail
// (Result, Finish), and the vertex-at-a-time level plan PSgL and
// BigJoin expand with (Levels).
//
// The paper's central criticism of these systems is that they shuffle
// and cache intermediate results and synchronize between rounds; this
// package is that criticism made executable. RADS never touches it.
package common

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Row is one partial result: data vertices for the query vertices
// matched so far, in a fixed engine-specific layout.
type Row = []graph.VertexID

// RowBytes is the accounted size of a row of length n.
func RowBytes(n int) int64 { return int64(n)*4 + 8 }

// inbox collects the shuffled rows addressed to one machine, one
// buffer per superstep parity, so that a machine can receive the rows
// sent in the previous superstep while its peers already send the next.
type inbox struct {
	mu   sync.Mutex
	rows [2][]Row
}

// put appends rows sent in superstep step.
func (in *inbox) put(step int, rows []Row) {
	in.mu.Lock()
	in.rows[step&1] = append(in.rows[step&1], rows...)
	in.mu.Unlock()
}

// drain removes and returns the rows sent in superstep step.
func (in *inbox) drain(step int) []Row {
	in.mu.Lock()
	rows := in.rows[step&1]
	in.rows[step&1] = nil
	in.mu.Unlock()
	return rows
}

// Runtime wires m machines with inboxes over a transport and runs
// synchronous supersteps.
type Runtime struct {
	M        int
	Tr       cluster.Transport
	Metrics  *cluster.Metrics
	Budget   *cluster.MemBudget
	ctx      context.Context
	inboxes  []*inbox
	ownTr    bool
	start    time.Time
	step     int     // supersteps started
	shuffled []int64 // rows each machine has sent
}

// NewRuntime builds the dataflow runtime from cfg. If cfg.Transport is
// nil an in-process transport is created (and closed by Close). The
// run's elapsed time counts from here.
func NewRuntime(m int, cfg Config) *Runtime {
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = cluster.NewMetrics(m)
	}
	tr := cfg.Transport
	own := false
	if tr == nil {
		tr = cluster.NewLocalTransport(metrics)
		own = true
	}
	rt := &Runtime{M: m, Tr: tr, Metrics: metrics, Budget: cfg.Budget, ctx: cfg.Context, ownTr: own,
		start: time.Now(), shuffled: make([]int64, m)}
	for i := 0; i < m; i++ {
		in := &inbox{}
		rt.inboxes = append(rt.inboxes, in)
		id := i
		tr.Register(id, func(from int, req cluster.Message) (cluster.Message, error) {
			sh, ok := req.(*cluster.ShuffleRequest)
			if !ok {
				return nil, fmt.Errorf("baseline machine %d: unexpected %T", id, req)
			}
			in.put(sh.Round, sh.Rows)
			return &cluster.ShuffleResponse{}, nil
		})
	}
	return rt
}

// Close drops rows nobody received and releases the transport if the
// runtime owns it.
func (rt *Runtime) Close() {
	for _, in := range rt.inboxes {
		in.drain(0)
		in.drain(1)
	}
	if rt.ownTr {
		rt.Tr.Close()
	}
}

// Superstep runs fn concurrently on every machine and barriers until
// all complete — the synchronization delay the paper attributes to
// these systems. The first error aborts the run. A configured context
// is checked at the barrier: once it is cancelled the next superstep
// refuses to start and the run unwinds with the context's error
// (returned as-is, so errors.Is(err, context.Canceled) holds), which
// is what makes every baseline engine cancellable between rounds.
func (rt *Runtime) Superstep(fn func(id int) error) error {
	if rt.ctx != nil {
		if err := rt.ctx.Err(); err != nil {
			return err
		}
	}
	rt.step++
	var wg sync.WaitGroup
	errs := make([]error, rt.M)
	for i := 0; i < rt.M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("baseline machine %d: %w", i, err)
		}
	}
	return nil
}

// Send is the sending half of the exchange, called by machine id inside
// a superstep: it routes each row to the machine to picks, ships each
// destination's batch as one ShuffleRequest stamped with the
// superstep, and counts the rows as shuffled intermediate results.
// Rows addressed to id itself stay in its own inbox without network
// accounting (local hand-off). The receivers collect the rows with
// Receive in the next superstep (or never: Close drops them).
func (rt *Runtime) Send(id int, rows []Row, to func(Row) int) error {
	rt.shuffled[id] += int64(len(rows))
	batches := make([][]Row, rt.M)
	for _, row := range rows {
		t := to(row)
		batches[t] = append(batches[t], row)
	}
	for t, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if t == id {
			rt.inboxes[id].put(rt.step, batch)
			continue
		}
		if _, err := rt.Tr.Call(id, t, &cluster.ShuffleRequest{Round: rt.step, Rows: batch}); err != nil {
			return err
		}
	}
	return nil
}

// Receive is the receiving half of the exchange, called by machine id
// in the superstep after the Sends: it drains the rows they addressed
// to id and charges them to id's budget as rows of the given width.
// The machine may Send again in the same superstep.
func (rt *Runtime) Receive(id, width int) ([]Row, error) {
	rows := rt.inboxes[id].drain(rt.step - 1)
	return rows, rt.ChargeRows(id, len(rows), width)
}

// ByOwner routes a row to the machine that owns its vertex at
// position at.
func ByOwner(part *partition.Partition, at int) func(Row) int {
	return func(row Row) int { return int(part.Owner[row[at]]) }
}

// Result is the run's record for total embeddings found over the given
// rounds: the elapsed time, traffic, shuffled rows and budget peak are
// the runtime's own.
func (rt *Runtime) Result(total int64, rounds int) *Result {
	res := &Result{
		Total:          total,
		Rounds:         rounds,
		ElapsedSeconds: time.Since(rt.start).Seconds(),
		CommBytes:      rt.Metrics.TotalBytes(),
		CommMessages:   rt.Metrics.TotalMessages(),
		PeakMemBytes:   rt.Budget.MaxPeak(),
	}
	for _, n := range rt.shuffled {
		res.IntermediateRows += n
	}
	return res
}

// Finish releases every machine's final rows, of the given width, and
// returns the Result counting them as the embeddings found.
func (rt *Runtime) Finish(rows [][]Row, width, rounds int) *Result {
	var total int64
	for id, r := range rows {
		total += int64(len(r))
		rt.ReleaseRows(id, len(r), width)
	}
	return rt.Result(total, rounds)
}

// ChargeRows accounts rows of width w cached at machine id.
func (rt *Runtime) ChargeRows(id, count, width int) error {
	return rt.Budget.Charge(id, int64(count)*RowBytes(width))
}

// Charger charges row production incrementally so that a machine
// aborts with ErrOutOfMemory *while* materializing an oversized batch
// rather than after — both the simulated machines of the paper and the
// real process die if accounting lags behind allocation.
type Charger struct {
	rt      *Runtime
	id      int
	width   int
	pending int
	charged int64
}

// NewCharger tracks rows of the given width produced at machine id.
func (rt *Runtime) NewCharger(id, width int) *Charger {
	return &Charger{rt: rt, id: id, width: width}
}

const chargerChunk = 1024

// Add records n more rows, charging the budget in chunks.
func (c *Charger) Add(n int) error {
	c.pending += n
	if c.pending >= chargerChunk {
		return c.Flush()
	}
	return nil
}

// Flush charges any pending rows immediately.
func (c *Charger) Flush() error {
	if c.pending == 0 {
		return nil
	}
	bytes := int64(c.pending) * RowBytes(c.width)
	c.pending = 0
	if err := c.rt.Budget.Charge(c.id, bytes); err != nil {
		return err
	}
	c.charged += bytes
	return nil
}

// ReleaseAll releases every byte this charger charged.
func (c *Charger) ReleaseAll() {
	c.rt.Budget.Release(c.id, c.charged)
	c.charged = 0
	c.pending = 0
}

// ReleaseRows undoes ChargeRows.
func (rt *Runtime) ReleaseRows(id, count, width int) {
	rt.Budget.Release(id, int64(count)*RowBytes(width))
}

// ConstraintChecker incrementally enforces symmetry-breaking
// constraints: Check reports whether a row (indexed by query vertex,
// -1 for unmatched) satisfies every constraint whose endpoints are
// both matched.
type ConstraintChecker struct {
	cons []pattern.OrderConstraint
}

// NewConstraintChecker derives the checker from the pattern.
func NewConstraintChecker(p *pattern.Pattern) *ConstraintChecker {
	return &ConstraintChecker{cons: p.SymmetryBreaking()}
}

// Check verifies all fully-matched constraints on f (indexed by query
// vertex; unmatched entries are -1).
func (c *ConstraintChecker) Check(f []graph.VertexID) bool {
	for _, cn := range c.cons {
		l, g := f[cn.Less], f[cn.Greater]
		if l >= 0 && g >= 0 && !(l < g) {
			return false
		}
	}
	return true
}

// Oracle is the single-machine count the baselines are checked against.
func Oracle(g *graph.Graph, p *pattern.Pattern) int64 {
	return localenum.Count(g, p, localenum.Options{})
}

// Config configures a baseline run; the zero value uses an in-process
// transport, fresh metrics, no memory budget, and no cancellation.
type Config struct {
	Transport cluster.Transport
	Metrics   *cluster.Metrics
	Budget    *cluster.MemBudget
	// Context, if non-nil, cancels the run between supersteps: the
	// runtime checks it at every barrier and the run unwinds with the
	// context's error. Long-lived callers (the resident query service)
	// use this to abort queries whose client has gone away — the
	// paper's baselines had no such story.
	Context context.Context
}

// Result is the uniform baseline result record; the harness compares
// it against rads.Result.
type Result struct {
	Total            int64
	ElapsedSeconds   float64
	CommBytes        int64
	CommMessages     int64
	PeakMemBytes     int64
	IntermediateRows int64 // rows shuffled between machines over the run
	Rounds           int
}
