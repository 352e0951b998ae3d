package rads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/cluster"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
)

// Machine hosts one RADS machine: the per-machine daemon of Section
// 3.1. It holds the machine's slice of the partitioned graph (the full
// partition in-process, a snapshot-loaded shard in a radsworker) and
// serves the data-plane requests (verifyE, fetchV, checkR, shareR)
// against it and against cur, the query's machine while one runs. Both
// coordinators host machines through it: Run registers one Machine per
// slot on its transport with cur set to the run's machine; in a worker
// process a RunQueryRequest makes the Machine build the query's engine
// state and machine, run it and reply with its result slice.
//
// Handle is safe for concurrent calls (the transport serves it from
// many connections at once); queries themselves are serialized, since
// cur holds one query at a time, so the coordinator runs one cluster
// query at a time. The wire's QueryID attributes the worker's traces
// and journal events to the query.
type Machine struct {
	id   int
	part *partition.Partition
	tr   cluster.Transport

	// fingerprint is PartitionFingerprint(part), hashed on the first
	// ping or statsPull and kept: the partition never changes.
	fingerprint func() uint64

	avgDeg  float64
	workers int
	metrics *cluster.Metrics
	obsReg  *obs.Registry // statsPull snapshots; nil without a registry
	events  *obs.EventLog // operational journal; nil-tolerant

	// Pre-resolved observability families (nil without a registry).
	// Machines hosted in one process share the registry, so these are
	// process-level totals with per-family labels, not per-machine.
	obsQueryLatency *obs.Histogram
	obsWaitLatency  *obs.Histogram
	obsQueries      obs.CounterVec
	obsSteals       *obs.Counter
	obsGroups       *obs.Counter
	obsTreeNodes    *obs.Counter
	obsCacheHits    *obs.Counter
	obsCacheMisses  *obs.Counter
	obsVerifyEdges  *obs.Counter
	obsPulledLists  *obs.Counter
	obsPulledEdges  *obs.Counter

	runMu sync.Mutex              // serializes runQuery
	cur   atomic.Pointer[machine] // active query's per-machine state, nil when idle
}

// MachineOptions tunes a hosted machine.
type MachineOptions struct {
	// AvgDegree is the global data graph's average degree, recorded at
	// snapshot time; a shard cannot derive it and the pull rule
	// (pullPays) prices a pulled list by it. 0 falls back to the hosted
	// graph's own figure.
	AvgDegree float64
	// Workers is the default enumeration worker count for queries that
	// do not request one (0 = GOMAXPROCS, the whole process; hosts
	// running several machines should divide accordingly).
	Workers int
	// Metrics, when set, is the metrics object the machine's outgoing
	// transport accounts into; per-query deltas are reported back to
	// the coordinator in each RunQueryResponse.
	Metrics *cluster.Metrics
	// Obs, when set, receives the machine's serving metrics: query
	// latency, queue wait (time serialized behind an earlier query),
	// steal/group/tree-node counters, adjacency-cache hit rates and the
	// verify-or-pull tallies.
	// Machines hosted in one process share one registry.
	Obs *obs.Registry
	// Events, when set, receives the machine's operational journal
	// entries (query start/done); machines hosted in one process share
	// one journal.
	Events *obs.EventLog
}

// NewMachine hosts machine id of part, calling other machines through
// tr. The partition may be shard-backed: only machine id's adjacency
// lists need to be complete.
func NewMachine(id int, part *partition.Partition, tr cluster.Transport, opts MachineOptions) *Machine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	d := &Machine{
		id:          id,
		part:        part,
		tr:          tr,
		fingerprint: fingerprintOf(part),
		avgDeg:      opts.AvgDegree,
		workers:     w,
		metrics:     opts.Metrics,
		obsReg:      opts.Obs,
		events:      opts.Events,
	}
	if reg := opts.Obs; reg != nil {
		d.obsQueryLatency = reg.HistogramVec("rads_query_seconds",
			"Query execution latency by engine.", "engine", nil).With("RADS")
		d.obsWaitLatency = reg.Histogram("rads_admission_wait_seconds",
			"Time queries waited behind earlier queries before starting.", nil)
		d.obsQueries = reg.CounterVec("rads_queries_total",
			"Queries executed by outcome.", "outcome")
		d.obsSteals = reg.Counter("rads_steals_total",
			"Region groups stolen via shareR.")
		d.obsGroups = reg.Counter("rads_groups_total",
			"Region groups formed.")
		d.obsTreeNodes = reg.Counter("rads_tree_nodes_total",
			"Successful partial matches (search-tree nodes) linked.")
		d.obsCacheHits = reg.Counter("rads_cache_hits_total",
			"Adjacency-cache hits in fetch phases.")
		d.obsCacheMisses = reg.Counter("rads_cache_misses_total",
			"Adjacency-cache misses (fetched over the network).")
		d.obsVerifyEdges = reg.Counter("rads_verify_edges_total",
			"Undetermined edges sent to verifyE.")
		d.obsPulledLists = reg.Counter("rads_pulled_lists_total",
			"Verification neighbours' adjacency lists pulled ahead of a round instead of asked about.")
		d.obsPulledEdges = reg.Counter("rads_pulled_edges_total",
			"verifyE edges the pull rule counted its pulls to pre-empt.")
	}
	return d
}

// ID returns the hosted machine id.
func (d *Machine) ID() int { return d.id }

// Handle is the daemon thread, the one entry point for every request
// kind: the four of Section 3.1, served concurrently with the machine's
// own enumeration, and the coordinator's ping, runQuery and statsPull.
// Register it on the transport (or TCP server) under the machine's id.
func (d *Machine) Handle(from int, req cluster.Message) (cluster.Message, error) {
	switch r := req.(type) {
	case *cluster.PingRequest:
		return &cluster.PingResponse{
			Machine:       d.id,
			Vertices:      d.part.G.NumVertices(),
			PartitionHash: d.fingerprint(),
			Contract:      cluster.WireContract,
		}, nil
	case *cluster.VerifyERequest:
		return serveVerifyE(d.part, d.id, r)
	case *cluster.FetchVRequest:
		return serveFetchV(d.part, d.id, r)
	case *cluster.CheckRRequest:
		// Between queries there is nothing to give away; thieves from a
		// query this machine has already finished see an empty queue.
		if m := d.cur.Load(); m != nil {
			return &cluster.CheckRResponse{Unprocessed: m.queue.Len()}, nil
		}
		return &cluster.CheckRResponse{}, nil
	case *cluster.ShareRRequest:
		if m := d.cur.Load(); m != nil {
			if g, ok := m.queue.Pop(); ok {
				return &cluster.ShareRResponse{OK: true, Group: g}, nil
			}
		}
		return &cluster.ShareRResponse{OK: false}, nil
	case *RunQueryRequest:
		return d.runQuery(r)
	case *StatsPullRequest:
		resp := &StatsPullResponse{
			Machine:     d.id,
			Fingerprint: d.fingerprint(),
		}
		if d.obsReg != nil {
			resp.Families = d.obsReg.Export()
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("machine %d: unknown request %T", d.id, req)
	}
}

// runQuery executes one coordinator-shipped query on this machine's
// shard and reports the machine's result slice.
func (d *Machine) runQuery(r *RunQueryRequest) (cluster.Message, error) {
	waitStart := time.Now()
	d.runMu.Lock()
	defer d.runMu.Unlock()
	if d.obsWaitLatency != nil {
		d.obsWaitLatency.Observe(time.Since(waitStart).Seconds())
	}

	p, err := pattern.Parse(r.Pattern)
	if err != nil {
		return nil, fmt.Errorf("machine %d: bad pattern: %w", d.id, err)
	}
	if err := checkConstraints(p, r.Constraints); err != nil {
		return nil, fmt.Errorf("machine %d: %w", d.id, err)
	}
	pl, err := plan.Build(p, r.Units)
	if err != nil {
		return nil, fmt.Errorf("machine %d: refused the coordinator's plan for %s: %w", d.id, p.Name, err)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = d.workers
	}
	trace := obs.NewTrace()
	cfg := Config{
		Plan:                 pl,
		Transport:            d.tr,
		Workers:              workers,
		Trace:                trace,
		DisableLoadBalancing: r.DisableLoadBalancing,
	}
	if r.BudgetBytes > 0 {
		cfg.Budget = cluster.NewMemBudget(d.part.M, r.BudgetBytes)
	}
	eng, err := newEngine(d.part, p, r.Constraints, cfg)
	if err != nil {
		return nil, fmt.Errorf("machine %d: %w", d.id, err)
	}
	if d.avgDeg > 0 {
		eng.avgDeg = d.avgDeg
	}
	m := newMachine(eng, d.id)

	commBytes0, commMsgs0 := int64(0), int64(0)
	if d.metrics != nil {
		commBytes0, commMsgs0 = d.metrics.TotalBytes(), d.metrics.TotalMessages()
	}

	d.events.Recordf("query_start", d.id, "query %d pattern %s", r.QueryID, p.Name)
	d.cur.Store(m)
	runErr := m.run()
	d.cur.Store(nil)
	if runErr != nil {
		d.events.Recordf("query_done", d.id, "query %d error: %v", r.QueryID, runErr)
	} else {
		d.events.Recordf("query_done", d.id, "query %d ok in %s", r.QueryID, m.elapsed)
	}

	resp := m.response(runErr)
	resp.Spans = trace.Spans()
	if d.metrics != nil {
		resp.CommBytes = d.metrics.TotalBytes() - commBytes0
		resp.CommMessages = d.metrics.TotalMessages() - commMsgs0
	}
	d.observeQuery(resp, runErr)
	if runErr != nil && !resp.OOM {
		return nil, runErr
	}
	return resp, nil
}

// checkConstraints vets a request's symmetry-breaking constraints: each
// names two distinct vertices of p, and a pattern with automorphisms
// must come with some — a request without them is from a coordinator
// that predates shipping them, and enumerating under the machine's own
// convention could miscount.
func checkConstraints(p *pattern.Pattern, cons []pattern.OrderConstraint) error {
	for _, c := range cons {
		if c.Less < 0 || int(c.Less) >= p.N() || c.Greater < 0 || int(c.Greater) >= p.N() || c.Less == c.Greater {
			return fmt.Errorf("constraint %v is not over two distinct vertices of the %d-vertex pattern", c, p.N())
		}
	}
	if len(cons) > 0 {
		return nil
	}
	if auts := p.AutomorphismCount(); auts > 1 {
		return fmt.Errorf("request carries no symmetry-breaking constraints for %s, which has %d automorphisms; upgrade the coordinator", p.Name, auts)
	}
	return nil
}

// observeQuery feeds one finished query into the registry families.
func (d *Machine) observeQuery(r *RunQueryResponse, runErr error) {
	if d.obsQueryLatency == nil {
		return
	}
	d.obsQueryLatency.Observe(r.Stat.Seconds)
	outcome := "ok"
	switch {
	case r.OOM:
		outcome = "oom"
	case runErr != nil:
		outcome = "error"
	}
	d.obsQueries.With(outcome).Inc()
	d.obsSteals.Add(int64(r.Stat.Stolen))
	d.obsGroups.Add(int64(r.Stat.Groups))
	d.obsTreeNodes.Add(r.Stat.TreeNodes)
	d.obsCacheHits.Add(r.CacheHits)
	d.obsCacheMisses.Add(r.CacheMisses)
	d.obsVerifyEdges.Add(r.VerifyEdges)
	d.obsPulledLists.Add(r.PulledLists)
	d.obsPulledEdges.Add(r.PulledEdges)
}

// PartitionFingerprint hashes a partition's identity — machine count
// and the full ownership vector (FNV-1a) — so a coordinator and its
// workers can cheaply prove they were built from the same snapshot.
// Shards fingerprint identically to the full partition: the ownership
// vector is global on both.
func PartitionFingerprint(part *partition.Partition) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, int64(part.M))
	binary.Write(h, binary.LittleEndian, part.Owner)
	return h.Sum64()
}

// fingerprintOf returns PartitionFingerprint(part), computed on the
// first call and remembered.
func fingerprintOf(part *partition.Partition) func() uint64 {
	return sync.OnceValue(func() uint64 { return PartitionFingerprint(part) })
}

// Ping verifies that machine `to` of the cluster behind tr is hosted
// and correctly routed, retrying transport failures until the absolute
// deadline — workers may still be starting when the coordinator comes
// up. Application-level replies (cluster.ErrRemote, e.g. "machine N is
// not hosted here" from a misrouted spec) fail immediately: the worker
// is up and will answer the same way forever. So does a reply the
// decoder refuses (cluster.ErrMalformed), which is what a worker built
// to an older wire contract sends. It returns the machine's
// ping response for consistency checks.
func Ping(tr cluster.Transport, to int, until time.Time) (*cluster.PingResponse, error) {
	for {
		resp, err := tr.Call(cluster.Coordinator, to, &cluster.PingRequest{})
		if err == nil {
			pr, ok := resp.(*cluster.PingResponse)
			if !ok {
				return nil, fmt.Errorf("rads: ping %d: unexpected response %T", to, resp)
			}
			if pr.Machine != to {
				return nil, fmt.Errorf("rads: address book says machine %d, process there hosts %d", to, pr.Machine)
			}
			return pr, nil
		}
		if errors.Is(err, cluster.ErrRemote) || errors.Is(err, cluster.ErrMalformed) {
			return nil, fmt.Errorf("rads: ping %d: %w", to, err)
		}
		if !time.Now().Before(until) {
			return nil, fmt.Errorf("rads: machine %d unreachable: %w", to, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
