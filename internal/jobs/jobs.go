// Package jobs is the long-running-job plane of the serving stack: a
// manager for batch analytics work (the motif census, and whatever
// comes next) that runs for seconds to hours beside the interactive
// query path.
//
// Interactive queries hold an HTTP connection open; jobs cannot. A
// submitted job gets an id immediately and runs detached — clients
// poll its status, read monotonic progress, cancel it, and fetch its
// result after completion. The manager sits on the same admission gate
// as the query scheduler (internal/admission): at most MaxConcurrent
// jobs run at once, excess submissions queue up to MaxQueued, and
// beyond that Submit fails fast with ErrOverloaded.
//
// Runners checkpoint partial results through their Update handle, so a
// completed job's result survives in the manager after the runner
// returns and a cancelled job still reports the partials it counted.
// Progress is monotonic by construction: regressing updates are
// clamped, so pollers never watch a job move backwards.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/admission"
	"rads/internal/obs"
)

// Errors returned by Submit and Cancel.
var (
	ErrClosed     = errors.New("jobs: manager closed")
	ErrOverloaded = errors.New("jobs: overloaded, queue full")
	ErrNotFound   = errors.New("jobs: no such job")
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: submitted, waiting for an admission slot.
	StateQueued State = "queued"
	// StateRunning: the runner is executing.
	StateRunning State = "running"
	// StateCompleted: the runner returned a result.
	StateCompleted State = "completed"
	// StateCancelled: cancelled by the client or by shutdown; the last
	// checkpoint, if any, is the partial result.
	StateCancelled State = "cancelled"
	// StateFailed: the runner returned a non-cancellation error.
	StateFailed State = "failed"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateCancelled || s == StateFailed
}

// Progress is a job's monotonic progress vector. The field names match
// the census workload (the first job kind) but are generic counters:
// work done, total work, items produced.
type Progress struct {
	VerticesDone   int64   `json:"vertices_done"`
	TotalVertices  int64   `json:"total_vertices"`
	SubgraphsSeen  int64   `json:"subgraphs_seen"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Fraction is the completed share in [0, 1], 0 when the total is
// unknown.
func (p Progress) Fraction() float64 {
	if p.TotalVertices <= 0 {
		return 0
	}
	f := float64(p.VerticesDone) / float64(p.TotalVertices)
	if f > 1 {
		f = 1
	}
	return f
}

// Runner executes one job. The context is cancelled by Cancel and by
// manager shutdown; a runner that returns the context's error is
// recorded cancelled, any other error failed, and a nil error
// completed with the returned value as the job's result.
type Runner func(ctx context.Context, up *Update) (any, error)

// Config tunes a Manager. The zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent caps jobs running at once (default 1 — batch jobs
	// are heavyweight; the interactive path keeps its own slots).
	MaxConcurrent int
	// MaxQueued caps jobs waiting for admission (default 16).
	MaxQueued int
	// Retain caps terminal jobs kept for status/result polling; the
	// oldest are evicted first (default 64).
	Retain int
	// Events, when set, receives job lifecycle entries (submitted,
	// completed, cancelled, failed); nil records nothing.
	Events *obs.EventLog
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.Retain <= 0 {
		c.Retain = 64
	}
	return c
}

// Manager owns the job table and the admission gate. Safe for
// concurrent use.
type Manager struct {
	cfg  Config
	gate *admission.Gate

	mu    sync.Mutex
	jobs  map[uint64]*Job
	order []uint64 // submission order, for Retain eviction and List

	ids atomic.Uint64

	// Counters surfaced through metrics.
	submitted   atomic.Int64
	completed   atomic.Int64
	cancelled   atomic.Int64
	failed      atomic.Int64
	checkpoints atomic.Int64
	itemsSeen   atomic.Int64 // cumulative SubgraphsSeen across all jobs
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:  cfg,
		gate: admission.New(cfg.MaxConcurrent, cfg.MaxQueued),
		jobs: make(map[uint64]*Job),
	}
}

// Job is one submitted unit of long-running work. All fields are
// guarded by mu; clients read through Snapshot.
type Job struct {
	id   uint64
	kind string
	desc string

	mu           sync.Mutex
	state        State
	progress     Progress
	result       any
	err          error
	checkpoint   any
	checkpointAt time.Time
	checkpoints  int64
	profile      *obs.Profile

	submitted time.Time
	started   time.Time
	finished  time.Time

	trace  *obs.Trace
	cancel context.CancelFunc
	done   chan struct{}
}

// ID returns the manager-assigned job id.
func (j *Job) ID() uint64 { return j.id }

// Kind returns the job kind ("census", ...).
func (j *Job) Kind() string { return j.kind }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is the poll-friendly snapshot of a job — the GET /jobs/{id}
// payload.
type Status struct {
	ID       uint64   `json:"id"`
	Kind     string   `json:"kind"`
	Desc     string   `json:"desc,omitempty"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Fraction is Progress.Fraction(), precomputed for dashboards.
	Fraction float64 `json:"fraction"`
	Error    string  `json:"error,omitempty"`
	// Checkpoints counts persisted partials; CheckpointUnixMs stamps
	// the newest one.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointUnixMs int64 `json:"checkpoint_unix_ms,omitempty"`

	SubmittedUnixMs int64   `json:"submitted_unix_ms"`
	StartedUnixMs   int64   `json:"started_unix_ms,omitempty"`
	FinishedUnixMs  int64   `json:"finished_unix_ms,omitempty"`
	RuntimeSeconds  float64 `json:"runtime_seconds,omitempty"`

	// Profile is the job's span-free execution profile, present once
	// the job is terminal (per-job traces ride the jobs API the same
	// way per-query traces ride /debug/trace).
	Profile *obs.Profile `json:"profile,omitempty"`
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.id,
		Kind:            j.kind,
		Desc:            j.desc,
		State:           j.state,
		Progress:        j.progress,
		Fraction:        j.progress.Fraction(),
		Checkpoints:     j.checkpoints,
		SubmittedUnixMs: j.submitted.UnixMilli(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.checkpointAt.IsZero() {
		st.CheckpointUnixMs = j.checkpointAt.UnixMilli()
	}
	if !j.started.IsZero() {
		st.StartedUnixMs = j.started.UnixMilli()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RuntimeSeconds = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		st.FinishedUnixMs = j.finished.UnixMilli()
	}
	if j.profile != nil {
		cp := *j.profile
		cp.Spans = nil
		st.Profile = &cp
	}
	return st
}

// Outcome describes a terminal job's result surface.
type Outcome struct {
	State State
	// Value is the runner's result (completed) or the last checkpoint
	// (cancelled/failed; nil if the runner never checkpointed).
	Value any
	// Partial is true when Value is a checkpoint, not a final result.
	Partial bool
	Err     error
}

// Result returns the job's outcome, or ok=false while it is still
// queued or running.
func (j *Job) Result() (Outcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return Outcome{}, false
	}
	out := Outcome{State: j.state, Err: j.err}
	if j.state == StateCompleted {
		out.Value = j.result
	} else {
		out.Value = j.checkpoint
		out.Partial = true
	}
	return out, true
}

// Update is the runner's handle back into its job: progress,
// checkpoints and the per-job trace.
type Update struct {
	j *Job
	m *Manager
}

// Progress merges p into the job's progress, clamped to be monotonic
// per field — a late or out-of-order update can never move the
// observable progress backwards.
func (u *Update) Progress(p Progress) {
	j := u.j
	j.mu.Lock()
	cur := &j.progress
	if p.VerticesDone > cur.VerticesDone {
		cur.VerticesDone = p.VerticesDone
	}
	if p.TotalVertices > cur.TotalVertices {
		cur.TotalVertices = p.TotalVertices
	}
	var itemsDelta int64
	if p.SubgraphsSeen > cur.SubgraphsSeen {
		itemsDelta = p.SubgraphsSeen - cur.SubgraphsSeen
		cur.SubgraphsSeen = p.SubgraphsSeen
	}
	if p.ElapsedSeconds > cur.ElapsedSeconds {
		cur.ElapsedSeconds = p.ElapsedSeconds
	}
	j.mu.Unlock()
	if itemsDelta > 0 {
		u.m.itemsSeen.Add(itemsDelta)
	}
}

// Checkpoint records a partial result. Ownership of partial transfers
// to the job — the runner must not mutate it afterwards.
func (u *Update) Checkpoint(partial any) {
	j := u.j
	j.mu.Lock()
	j.checkpoint = partial
	j.checkpointAt = time.Now()
	j.checkpoints++
	j.mu.Unlock()
	u.m.checkpoints.Add(1)
}

// Trace returns the job's trace for span recording (never nil).
func (u *Update) Trace() *obs.Trace { return u.j.trace }

// Submit enqueues a job and returns it immediately; the runner starts
// as soon as an admission slot frees up.
func (m *Manager) Submit(kind, desc string, run Runner) (*Job, error) {
	if kind == "" || run == nil {
		return nil, errors.New("jobs: submit needs a kind and a runner")
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind:      kind,
		desc:      desc,
		state:     StateQueued,
		submitted: time.Now(),
		trace:     obs.NewTrace(),
		cancel:    cancel,
		done:      make(chan struct{}),
	}

	// Enter and the table insert share one critical section, so Close
	// (which closes the gate, then sweeps the table) cancels every job
	// the gate let in.
	m.mu.Lock()
	tk, err := m.gate.Enter()
	if err != nil {
		m.mu.Unlock()
		cancel()
		if errors.Is(err, admission.ErrFull) {
			return nil, fmt.Errorf("%w (%d waiting)", ErrOverloaded, m.cfg.MaxQueued)
		}
		return nil, ErrClosed
	}
	j.id = m.ids.Add(1)
	m.submitted.Add(1)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()

	m.cfg.Events.Recordf("job_submitted", -1, "job %d (%s): %s", j.id, kind, desc)
	go m.serve(ctx, j, run, tk)
	return j, nil
}

// serve runs one job through admission, execution and completion.
func (m *Manager) serve(ctx context.Context, j *Job, run Runner, tk *admission.Ticket) {
	defer tk.Release()
	if err := tk.Wait(ctx); err != nil {
		// Shutdown cancels queued jobs like any other cancellation.
		if errors.Is(err, admission.ErrClosed) {
			err = context.Canceled
		}
		m.finish(j, nil, err)
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	res, err := run(ctx, &Update{j: j, m: m})
	m.finish(j, res, err)
}

// finish transitions a job to its terminal state.
func (m *Manager) finish(j *Job, res any, err error) {
	wall := time.Duration(0)
	j.mu.Lock()
	j.finished = time.Now()
	if !j.started.IsZero() {
		wall = j.finished.Sub(j.started)
	}
	switch {
	case err == nil:
		j.state = StateCompleted
		j.result = res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.err = err
		// A cancelled runner may still have handed back its partial
		// tally; keep the freshest partial available.
		if res != nil {
			j.checkpoint = res
			j.checkpointAt = j.finished
			j.checkpoints++
		}
	default:
		j.state = StateFailed
		j.err = err
	}
	j.profile = j.trace.Snapshot(wall)
	j.profile.ID = j.id
	j.profile.Query = j.desc
	j.profile.Engine = j.kind
	if j.err != nil {
		j.profile.Error = j.err.Error()
	}
	state := j.state
	j.mu.Unlock()

	switch state {
	case StateCompleted:
		m.completed.Add(1)
		m.cfg.Events.Recordf("job_completed", -1, "job %d (%s) in %s", j.id, j.kind, wall)
	case StateCancelled:
		m.cancelled.Add(1)
		m.cfg.Events.Recordf("job_cancelled", -1, "job %d (%s) after %s", j.id, j.kind, wall)
	default:
		m.failed.Add(1)
		m.cfg.Events.Recordf("job_failed", -1, "job %d (%s): %v", j.id, j.kind, err)
	}
	j.cancel() // release the context regardless of how we got here
	close(j.done)
}

// Get returns a job by id.
func (m *Manager) Get(id uint64) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns a status snapshot of every retained job, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]uint64(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel requests cancellation of a queued or running job. Cancelling
// a terminal job is a no-op (the terminal state wins); an unknown id
// is ErrNotFound.
func (m *Manager) Cancel(id uint64) error {
	j, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.cancel()
	return nil
}

// evictLocked drops the oldest terminal jobs beyond Retain. Live jobs
// are never evicted. Caller holds m.mu.
func (m *Manager) evictLocked() {
	excess := len(m.order) - m.cfg.Retain
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.state.Terminal()
		}() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Close stops admitting jobs, cancels everything queued or running,
// waits for runners to unwind (persisting their final checkpoints),
// and returns. Idempotent.
func (m *Manager) Close() error {
	m.gate.Close()
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	m.gate.Drain()
	return nil
}

// Stats is a point-in-time counter snapshot (the /stats jobs block).
type Stats struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Cancelled   int64 `json:"cancelled"`
	Failed      int64 `json:"failed"`
	Rejected    int64 `json:"rejected"`
	Running     int64 `json:"running"`
	Queued      int64 `json:"queued"`
	Checkpoints int64 `json:"checkpoints"`
	ItemsSeen   int64 `json:"items_seen"`
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Cancelled:   m.cancelled.Load(),
		Failed:      m.failed.Load(),
		Rejected:    m.gate.Rejected(),
		Running:     m.gate.Running(),
		Queued:      m.gate.Queued(),
		Checkpoints: m.checkpoints.Load(),
		ItemsSeen:   m.itemsSeen.Load(),
	}
}

// RegisterMetrics exposes the job plane on a metrics registry:
// lifecycle counters, running/queued gauges, an aggregate progress
// gauge over running jobs, and census throughput families. Families
// are polled at scrape time — the job path pays nothing for them.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("rads_jobs_submitted_total",
		"Jobs submitted.", m.submitted.Load)
	reg.CounterFunc("rads_jobs_rejected_total",
		"Jobs rejected by admission (queue full or closed).", m.gate.Rejected)
	reg.CounterFunc("rads_job_checkpoints_total",
		"Partial-result checkpoints persisted across all jobs.", m.checkpoints.Load)
	reg.CounterVecFunc("rads_jobs_total",
		"Jobs finished by outcome.", "outcome", func() map[string]int64 {
			return map[string]int64{
				"completed": m.completed.Load(),
				"cancelled": m.cancelled.Load(),
				"failed":    m.failed.Load(),
			}
		})
	reg.GaugeFunc("rads_jobs_running",
		"Jobs currently executing.", func() float64 {
			return float64(m.gate.Running())
		})
	reg.GaugeFunc("rads_jobs_queued",
		"Jobs waiting for an admission slot.", func() float64 {
			return float64(m.gate.Queued())
		})
	reg.GaugeFunc("rads_job_progress",
		"Mean completed fraction across running jobs (0 when idle).",
		func() float64 {
			var sum float64
			var n int
			for _, st := range m.List() {
				if st.State == StateRunning {
					sum += st.Fraction
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		})
	reg.CounterFunc("rads_census_subgraphs_total",
		"Subgraphs enumerated across all census jobs.", m.itemsSeen.Load)
	reg.GaugeFunc("rads_census_subgraphs_per_second",
		"Aggregate enumeration rate of running census jobs.",
		func() float64 {
			var rate float64
			for _, st := range m.List() {
				if st.State == StateRunning && st.Progress.ElapsedSeconds > 0 {
					rate += float64(st.Progress.SubgraphsSeen) / st.Progress.ElapsedSeconds
				}
			}
			return rate
		})
}
