package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/cluster"
	"rads/internal/engine"
	_ "rads/internal/engine/all" // registers RADS
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/plan"
	"rads/internal/rads"
	"rads/internal/snapshot"
)

// unbudgeted is enum_local's budget: a limit nothing reaches, so that
// peaks are still accounted.
const unbudgeted = 1 << 40

// fleet is a loopback radsworker-style deployment: four hosted
// machines behind one TCP server, each with its own outgoing client,
// fronted by a cluster coordinator engine.
type fleet struct {
	srv     *cluster.TCPServer
	clients []*cluster.RetryTransport
	coord   *cluster.TCPClient
	engine  *rads.ClusterEngine
	metrics []*cluster.Metrics // the workers' outgoing accounting
	reg     *obs.Registry      // the workers' shared registry

	retried, timedOut atomic.Int64

	observing atomic.Bool // latency observer gate: traced passes only
	latMu     sync.Mutex
	latency   map[string][]float64 // seconds by message kind
}

func (f *fleet) observe(kind string, seconds float64) {
	if !f.observing.Load() {
		return
	}
	f.latMu.Lock()
	f.latency[kind] = append(f.latency[kind], seconds)
	f.latMu.Unlock()
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, c := range f.clients {
		c.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
}

// startFleet snapshots the partition, opens the shards the way a
// worker hosting all four machines does, and brings the fleet up.
func startFleet(r *run, parent int, fx *csrFixture, dir string) (_ *fleet, err error) {
	f := &fleet{reg: obs.NewRegistry(), latency: make(map[string][]float64)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	snapDir := filepath.Join(dir, "snapshot")
	err = r.stage(parent, "snapshot.WriteDataset", "snapshot.write_s", func() error {
		return snapshot.WriteDataset(snapDir, fx.part, "benchmark", fx.man)
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int, machines)
	for i := range ids {
		ids[i] = i
	}
	var shards []*partition.Partition
	var man snapshot.Manifest
	err = r.stage(parent, "snapshot.OpenShards", "snapshot.open_shards_s", func() (err error) {
		shards, man, err = snapshot.OpenShards(snapDir, ids)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.stage(parent, "cluster.fleet", "", func() error {
		var err error
		if f.srv, err = cluster.NewTCPServer("127.0.0.1:0"); err != nil {
			return err
		}
		spec := cluster.ClusterSpec{}
		for range ids {
			spec.Machines = append(spec.Machines, f.srv.Addr())
		}
		for _, id := range ids {
			metrics := cluster.NewMetrics(machines)
			if r.opt.trace {
				metrics.SetLatencyObserver(f.observe)
			}
			tcp := cluster.NewTCPClient(spec, metrics)
			tcp.SetCallTimeout(10 * time.Second)
			tcp.SetTimeoutObserver(func(string) { f.timedOut.Add(1) })
			client := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{
				MaxAttempts: 3,
				OnRetry:     func(string) { f.retried.Add(1) },
			})
			f.clients = append(f.clients, client)
			f.metrics = append(f.metrics, metrics)
			d := rads.NewMachine(id, shards[id], client, rads.MachineOptions{
				AvgDegree: man.AvgDegree, Workers: workers, Metrics: metrics, Obs: f.reg,
			})
			f.srv.Register(id, d.Handle)
		}
		f.coord = cluster.NewTCPClient(spec, nil)
		f.engine = rads.NewClusterEngine(f.coord, machines)
		return f.engine.WaitReady(fx.part, 10*time.Second)
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// kindTotals sums one per-kind view over the workers' metrics.
func (f *fleet) kindTotals(view func(*cluster.Metrics) map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range f.metrics {
		for k, v := range view(m) {
			out[k] += v
		}
	}
	return out
}

// enumRig is what an enum workload measures: the fixture, the engine
// in front of it and the budget every query runs under.
type enumRig struct {
	fx     *csrFixture
	fleet  *fleet // nil in-process
	eng    engine.Engine
	cache  *engine.ArtifactCache
	budget int64
	want   map[string]oracleResult
}

// passStats is one pass over the query list.
type passStats struct {
	seconds   float64
	comm      int64 // transport bytes
	peak      int64 // max over the queries of the accounted per-machine peak
	treeNodes int64
	splits    int64
	adapterNs int64 // Engine.Run wall minus the engine's own Result.Seconds
	profiles  []*obs.Profile
	byKind    map[string]int64 // coordinator-side bytes by kind
	msgs      map[string]int64 // coordinator-side messages by kind
}

// pass runs the query list once, sequentially, each query through the
// warm artifact cache, and checks every total against the oracle.
func (rig *enumRig) pass(r *run, parent int) passStats {
	ps := passStats{byKind: make(map[string]int64), msgs: make(map[string]int64)}
	id := r.rec.start(parent, 0, "benchmark.pass")
	t0 := time.Now()
	for qi, name := range enumQueries {
		req := uint64(qi + 1)
		pat := patternByName(name)
		r.attempted.Add(1)
		var art engine.Artifact
		var err error
		r.rec.do(id, req, "engine.ArtifactCache.Get", func(int) {
			art, err = rig.cache.Get(r.ctx, rig.eng, rig.fx.part, pat)
		})
		if err != nil {
			r.failf("%s: prepare: %v", name, err)
			continue
		}
		metrics := cluster.NewMetrics(machines)
		budget := cluster.NewMemBudget(machines, rig.budget)
		var res engine.Result
		var wall time.Duration
		r.rec.do(id, req, "engine.Engine.Run", func(int) {
			q0 := time.Now()
			res, err = rig.eng.Run(r.ctx, engine.Request{
				Part: rig.fx.part, Pattern: pat, Artifact: art,
				Metrics: metrics, Budget: budget, Workers: workers,
			})
			wall = time.Since(q0)
		})
		switch {
		case err != nil:
			r.failf("%s: %v", name, err)
			continue
		case res.OOM:
			r.failf("%s: out of its %d-byte budget", name, rig.budget)
		case res.Total != rig.want[name].count:
			r.failf("%s: engine counted %d, oracle %d", name, res.Total, rig.want[name].count)
		case rig.budget != unbudgeted && res.PeakMemBytes > rig.budget:
			r.failf("%s: peak %d bytes exceeds the %d-byte budget", name, res.PeakMemBytes, rig.budget)
		}
		ps.comm += metrics.TotalBytes()
		if res.PeakMemBytes > ps.peak {
			ps.peak = res.PeakMemBytes
		}
		ps.treeNodes += res.TreeNodes
		ps.splits += res.FrontierSplits
		ps.adapterNs += wall.Nanoseconds() - int64(res.Seconds*1e9)
		ps.profiles = append(ps.profiles, res.Profile)
		for k, v := range metrics.ByKind() {
			ps.byKind[k] += v
		}
		for k, v := range metrics.MessagesByKind() {
			ps.msgs[k] += v
		}
	}
	ps.seconds = time.Since(t0).Seconds()
	r.rec.end(id)
	return ps
}

// passesFor repeats pass until the window has elapsed (and at least
// minPasses times), stopping early only when the run is interrupted.
func passesFor[T any](r *run, window float64, pass func() T) ([]T, float64) {
	var out []T
	t0 := time.Now()
	for len(out) < r.cfg.minPasses || time.Since(t0).Seconds() < window {
		if r.ctx.Err() != nil {
			break
		}
		out = append(out, pass())
	}
	return out, time.Since(t0).Seconds()
}

func passSeconds(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.seconds
	}
	return out
}

// reportLatency publishes the three latency-derived end-to-end metrics
// of a timed window: secs are its latency samples, attempted and failed
// the operation counters as they stood when it began.
func reportLatency(r *run, secs []float64, attempted, failed int64, elapsed float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	r.putQ("lat_p50_ms", ms, 0.5)
	r.putQ("lat_tail_ms", ms, tailQuantile(len(ms), tailOf[r.opt.workload]))
	correct := (r.attempted.Load() - attempted) - (r.failed.Load() - failed)
	r.put("ops_per_s", float64(correct)/elapsed)
}

// localRig puts the registered in-process RADS engine in front of fx.
func localRig(fx *csrFixture, budget int64) (*enumRig, error) {
	eng, ok := engine.Lookup("RADS")
	if !ok {
		return nil, fmt.Errorf("engine RADS is not registered")
	}
	return &enumRig{fx: fx, eng: eng, cache: engine.NewArtifactCache(0), budget: budget}, nil
}

func runEnumLocal(r *run) error {
	fx, err := timeSetups(r, func(parent int, dir string) (*csrFixture, error) {
		return buildCSRFixture(r, parent, dir, true)
	}, func(*csrFixture) {})
	if err != nil {
		return err
	}
	rig, err := localRig(fx, unbudgeted)
	if err != nil {
		return err
	}
	return runEnum(r, rig)
}

func runEnumTCP(r *run) error {
	type product struct {
		fx *csrFixture
		fl *fleet
	}
	p, err := timeSetups(r, func(parent int, dir string) (product, error) {
		fx, err := buildCSRFixture(r, parent, dir, true)
		if err != nil {
			return product{}, err
		}
		fl, err := startFleet(r, parent, fx, dir)
		return product{fx, fl}, err
	}, func(p product) { p.fl.close() })
	defer p.fl.close()
	if err != nil {
		return err
	}
	rig := &enumRig{fx: p.fx, fleet: p.fl, eng: p.fl.engine, cache: engine.NewArtifactCache(0), budget: r.cfg.tcpBudget}
	return runEnum(r, rig)
}

// runEnum is the body shared by enum_local and enum_tcp: oracle, one
// warm pass, then the timed passes — all untraced for the end-to-end
// metrics, or half untraced and half traced for the layer metrics.
func runEnum(r *run, rig *enumRig) error {
	rig.fx.describe(r)
	r.fixture["budget_bytes"] = rig.budget
	rig.want = oracle(r, rig.fx.csr, enumQueries, true)
	if r.opt.trace {
		enginePrepareMetrics(r, rig)
	}
	rig.pass(r, 0) // warm: artifact cache, connections, heap

	if !r.opt.trace {
		attempted, failed := r.attempted.Load(), r.failed.Load()
		passes, elapsed := passesFor(r, r.opt.seconds, func() passStats { return rig.pass(r, 0) })
		reportLatency(r, passSeconds(passes), attempted, failed, elapsed)
		var peaks []float64
		for _, p := range passes {
			peaks = append(peaks, float64(p.peak)/(1<<20))
		}
		r.putQ("peak_mem_mb", peaks, 0.5)
		return nil
	}

	plain, _ := passesFor(r, r.opt.seconds/2, func() passStats { return rig.pass(r, 0) })
	traced := tracedEnumPasses(r, rig, r.opt.seconds/2)
	base, with := median(passSeconds(plain)), median(passSeconds(traced))
	r.put("obs.trace_overhead_ratio", with/base)
	r.put("localenum.cost_ratio", base/r.metrics["localenum.pass_s"].Value)
	kernelMicros(r, rig.fx.csr, "u32")
	if rig.fleet == nil {
		directRADSPass(r, rig)
		return nil
	}
	return tcpExtras(r, rig, base)
}

// tracedEnumPasses repeats the pass with everything the traced run
// switches on — spans, kernel counting, the latency observer, runtime
// statistics around each pass — and publishes the rads, graph.calls
// and cluster layer metrics as per-pass medians.
func tracedEnumPasses(r *run, rig *enumRig, window float64) []passStats {
	graph.SetKernelCounting(true)
	defer graph.SetKernelCounting(false)
	if rig.fleet != nil {
		rig.fleet.observing.Store(true)
		defer rig.fleet.observing.Store(false)
	}
	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var skew []float64

	passes, _ := passesFor(r, window, func() passStats {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		kernels0 := graph.KernelCounts()
		var bytes0, msgs0 map[string]int64
		var hits0, misses0 int64
		if fl := rig.fleet; fl != nil {
			bytes0, msgs0 = fl.kindTotals((*cluster.Metrics).ByKind), fl.kindTotals((*cluster.Metrics).MessagesByKind)
			hits0 = fl.reg.Counter("rads_cache_hits_total", "").Value()
			misses0 = fl.reg.Counter("rads_cache_misses_total", "").Value()
		}
		id := r.rec.start(0, 0, "benchmark.tracedPass")
		ps := rig.pass(r, id)
		r.rec.end(id)
		runtime.ReadMemStats(&ms1)

		add("rads.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		add("rads.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		add("rads.comm_mb", float64(ps.comm)/(1<<20))
		add("rads.tree_nodes", float64(ps.treeNodes))
		add("rads.tree_nodes_per_s", float64(ps.treeNodes)/ps.seconds)
		add("rads.frontier_splits", float64(ps.splits))
		add("engine.adapter_overhead_ms", float64(ps.adapterNs)/1e6)
		kernels := graph.KernelCountsDelta(kernels0)
		for _, k := range []string{"merge", "gallop", "kway", "merge_u32", "gallop_u32", "kway_u32"} {
			add("graph.calls."+k, float64(kernels[k]))
		}
		if pairwise := kernels["merge_u32"] + kernels["gallop_u32"]; pairwise > 0 {
			add("graph.gallop_share_u32", float64(kernels["gallop_u32"])/float64(pairwise))
		}
		phases := make(map[string]float64)
		var groups, stolen int
		var poll float64
		for _, prof := range ps.profiles {
			if prof == nil {
				continue
			}
			for name, s := range prof.PhaseSeconds() {
				phases[name] += s
			}
			stolen += prof.Steals
			var maxS, sumS float64
			for _, m := range prof.Machines {
				groups += m.Groups
				sumS += m.Seconds
				if m.Seconds > maxS {
					maxS = m.Seconds
				}
			}
			if sumS > 0 {
				skew = append(skew, maxS/(sumS/float64(len(prof.Machines))))
			}
			poll += stealPollSeconds(prof.Spans)
		}
		for _, ph := range []string{"sme", "grouping", "group", "splitRound", "steal", "fetchV", "verifyE", "machine"} {
			add("rads.phase."+ph+"_s", phases["execute/"+ph])
		}
		add("rads.phase.fold_s", phases["fold"])
		add("rads.steal_poll_s", poll)
		add("rads.region_groups", float64(groups))
		add("rads.stolen_groups", float64(stolen))

		if fl := rig.fleet; fl != nil {
			bytes1, msgs1 := fl.kindTotals((*cluster.Metrics).ByKind), fl.kindTotals((*cluster.Metrics).MessagesByKind)
			for _, k := range []string{"fetchV", "verifyE", "checkR", "shareR"} {
				add("cluster.msgs."+k, float64(msgs1[k]-msgs0[k]))
			}
			add("cluster.msgs.runQuery", float64(ps.msgs["runQuery"]))
			add("cluster.bytes.fetchV", float64(bytes1["fetchV"]-bytes0["fetchV"]))
			add("cluster.bytes.verifyE", float64(bytes1["verifyE"]-bytes0["verifyE"]))
			add("cluster.bytes.runQuery", float64(ps.byKind["runQuery"]))
			hits := fl.reg.Counter("rads_cache_hits_total", "").Value() - hits0
			misses := fl.reg.Counter("rads_cache_misses_total", "").Value() - misses0
			if hits+misses > 0 {
				add("rads.cache_hit_ratio", float64(hits)/float64(hits+misses))
			}
		}
		return ps
	})
	for name, xs := range samples {
		r.putQ(name, xs, 0.5)
	}
	r.putQ("rads.machine_skew", skew, 0.5)
	r.put("rads.rss_mb", peakRSSMiB(0))
	return passes
}

// stealPollSeconds answers what the steal phase spends its time on. A
// machine leaves the phase as soon as no other machine reports an
// unprocessed group, so it never waits at a barrier there; its time is
// either processing groups it stole (execute/group spans on the same
// machine inside the steal span) or the checkR/shareR polling around
// them. This returns the second part, summed over machines.
func stealPollSeconds(spans []obs.Span) float64 {
	var poll int64
	for _, st := range spans {
		if st.Name != "execute/steal" {
			continue
		}
		lo, hi := st.StartNs, st.StartNs+st.DurNs
		// Two pool workers may process stolen groups at once; the steal
		// span is busy while either does.
		var iv [][2]int64
		for _, g := range spans {
			if g.Name != "execute/group" || g.Machine != st.Machine {
				continue
			}
			a, b := g.StartNs, g.StartNs+g.DurNs
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		poll += st.DurNs - unionLength(iv)
	}
	return float64(poll) / 1e9
}

// directRADSPass calls rads.Run itself, once per query, for the result
// fields the engine API does not carry.
func directRADSPass(r *run, rig *enumRig) {
	var sme, total, hits, misses, et, el int64
	id := r.rec.start(0, 0, "benchmark.directPass")
	for qi, name := range enumQueries {
		art, err := rig.cache.Get(r.ctx, rig.eng, rig.fx.part, patternByName(name))
		if err != nil {
			r.failf("%s: prepare: %v", name, err)
			continue
		}
		r.attempted.Add(1)
		var res *rads.Result
		r.rec.do(id, uint64(qi+1), "rads.Run", func(int) {
			res, err = rads.Run(rig.fx.part, patternByName(name), rads.Config{
				Context: r.ctx, Plan: art.(rads.PlanArtifact).Plan, Workers: workers,
				Metrics: cluster.NewMetrics(machines), Budget: cluster.NewMemBudget(machines, rig.budget),
			})
		})
		if err != nil {
			r.failf("%s: rads.Run: %v", name, err)
			continue
		}
		if res.Total != rig.want[name].count {
			r.failf("%s: rads.Run counted %d, oracle %d", name, res.Total, rig.want[name].count)
		}
		sme += res.SME
		total += res.Total
		hits += res.CacheHits
		misses += res.CacheMisses
		et += res.ETBytesCum
		el += res.ELBytesCum
	}
	r.rec.end(id)
	if total > 0 {
		r.put("rads.sme_share", float64(sme)/float64(total))
	}
	if hits+misses > 0 {
		r.put("rads.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if el > 0 {
		r.put("rads.et_el_ratio", float64(et)/float64(el))
	}
}

// tcpExtras publishes what only the fleet can tell: the RPC latency
// distribution, the floor of one round trip, and the wire's share of
// the pass — the same passes under the same budget re-run on the
// in-process transport, subtracted.
func tcpExtras(r *run, rig *enumRig, tcpPass float64) error {
	fl := rig.fleet
	us := func(kind string, q float64) float64 { return quantile(fl.latency[kind], q) * 1e6 }
	fl.latMu.Lock()
	r.put("cluster.call_p50_us.fetchV", us("fetchV", 0.5))
	r.put("cluster.call_p50_us.verifyE", us("verifyE", 0.5))
	r.put("cluster.call_p99_us.verifyE", us("verifyE", 0.99))
	fl.latMu.Unlock()

	var rtt []float64
	id := r.rec.start(0, 0, "benchmark.pings")
	for i := 0; i < r.cfg.pings; i++ {
		t0 := time.Now()
		if _, err := rads.Ping(fl.coord, i%machines, t0.Add(time.Second)); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.rec.end(id)
	r.putQ("cluster.ping_rtt_us", rtt, 0.5)
	r.put("cluster.rpc_failed", float64(fl.timedOut.Load()))
	r.put("cluster.rpc_retried", float64(fl.retried.Load()))

	local, err := localRig(rig.fx, rig.budget)
	if err != nil {
		return err
	}
	local.want = rig.want
	local.pass(r, 0)
	id = r.rec.start(0, 0, "benchmark.budgetLocal")
	var secs []float64
	for i := 0; i < 2; i++ {
		secs = append(secs, local.pass(r, id).seconds)
	}
	r.rec.end(id)
	r.putQ("rads.budget_local_pass_s", secs, 0.5)
	r.put("cluster.wire_overhead_s", tcpPass-median(secs))
	r.na("rads.sme_share", "the cluster coordinator folds SME and distributed counts into one total")
	r.na("rads.et_el_ratio", "trie and list bytes stay on the workers; the wire does not carry them")
	return nil
}

// enginePrepareMetrics times the planner and the artifact cache, cold
// and warm, over the query list.
func enginePrepareMetrics(r *run, rig *enumRig) {
	var planUs, hitUs []float64
	cache := engine.NewArtifactCache(0)
	id := r.rec.start(0, 0, "benchmark.prepare")
	for _, name := range enumQueries {
		pat := patternByName(name)
		r.rec.do(id, 0, "plan.Compute", func(int) {
			t0 := time.Now()
			if _, err := plan.Compute(pat); err != nil {
				r.failf("plan %s: %v", name, err)
			}
			planUs = append(planUs, float64(time.Since(t0).Nanoseconds())/1e3)
		})
	}
	t0 := time.Now()
	for _, name := range enumQueries {
		r.rec.do(id, 0, "engine.ArtifactCache.Get", func(int) {
			if _, err := cache.Get(r.ctx, rig.eng, rig.fx.part, patternByName(name)); err != nil {
				r.failf("prepare %s: %v", name, err)
			}
		})
	}
	r.put("engine.prepare_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	for i := 0; i < 100; i++ {
		for _, name := range enumQueries {
			t0 := time.Now()
			_, _ = cache.Get(r.ctx, rig.eng, rig.fx.part, patternByName(name)) // checked cold above
			hitUs = append(hitUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	r.rec.end(id)
	r.putQ("plan.compute_us", planUs, 0.5)
	r.putQ("engine.artifact_hit_us", hitUs, 0.5)
}
