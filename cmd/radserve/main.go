// Command radserve exposes the resident query service over HTTP: it
// loads and partitions a data graph once at startup, then serves many
// pattern queries against it.
//
// Usage:
//
//	radserve -dataset DBLP -machines 10 -addr :8080
//	radserve -graph edges.txt -max-concurrent 8 -budget-mb 64
//	radserve -registry datasets -dataset lj -machines 10
//
// -dataset resolves built-in synthetic analogs first, then real
// ingested .radsgraph datasets by name in the -registry directory
// (see cmd/radsprep). A snapshot references a registry dataset's
// .radsgraph by checksum; any other graph is written into the snapshot
// as graph.radsgraph and referenced the same way.
//
// With -snapshot DIR the service warm-starts: if DIR holds a snapshot
// it is loaded (no re-partitioning, border distances and prepared
// artifacts restored); otherwise the graph is partitioned once and
// persisted there for next time. -snapshot-only writes the snapshot
// and exits — the handoff point to radsworker processes.
//
// With -cluster spec.json radserve becomes the ingress of a
// multi-process deployment: RADS queries are dispatched to remote
// radsworker daemons over TCP (the baselines keep running in-process
// against the coordinator's copy of the partition).
//
// Endpoints:
//
//	GET  /query?pattern=triangle[&engine=RADS][&nocache=1]
//	POST /query    {"pattern":"triangle","engine":"RADS","stream":true,"limit":100}
//	GET  /engines  registered engines with their declared capabilities
//	GET  /stats    service counters, cache and communication totals
//	GET  /patterns built-in pattern names and the free-form syntax
//	GET  /healthz
//
// A pattern is a built-in name (q1..q8, cq1..cq4, triangle, fig2) or
// the textual form "name:n:u-v,u-v,...". Count queries return one JSON
// object; stream queries return NDJSON — one {"embedding":[...]} line
// per match, then a final {"result":{...}} line.
//
// An edge list (-graph) or analog (-dataset DBLP) is served hub-first
// (graph.HubFirst), so matches are rooted at their lowest-degree
// vertex, but streamed embeddings name each vertex by its ID in the
// input file, or in the analog's generator: radserve maps them through
// the relabel's labels, which a -snapshot stores beside its graph. A
// registry dataset is served, and named, in its own numbering.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rads/internal/buildinfo"
	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/graph"
	"rads/internal/harness"
	"rads/internal/jobs"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
	"rads/internal/service"
	"rads/internal/snapshot"
)

// options collects the radserve flag surface.
type options struct {
	addr          string
	dataset       string
	graphFile     string
	scale         float64
	machines      int
	maxConcurrent int
	maxQueued     int
	budgetMB      int64
	cacheEntries  int
	defEngine     string

	registry string
	snapDir  string
	snapOnly bool
	specPath string
	waitFor  time.Duration

	callTimeout  time.Duration
	queryTimeout time.Duration
	rpcRetries   int
	heartbeat    time.Duration
	breakThresh  int
	breakCool    time.Duration
	fallback     bool

	slowQuery time.Duration
	debugAddr string
	eventsCap int

	jobsConcurrent int
	jobsQueued     int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.dataset, "dataset", "DBLP", "dataset to serve: a built-in analog (RoadNet DBLP LiveJournal UK2002) or a -registry dataset name")
	flag.StringVar(&o.registry, "registry", "datasets", "dataset registry directory (ingested .radsgraph graphs, see radsprep)")
	flag.StringVar(&o.graphFile, "graph", "", "edge-list file overriding -dataset")
	flag.Float64Var(&o.scale, "scale", 1.0, "dataset scale factor")
	flag.IntVar(&o.machines, "machines", 8, "number of simulated machines")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", 4, "queries running at once")
	flag.IntVar(&o.maxQueued, "max-queued", 64, "queries waiting before 503")
	flag.Int64Var(&o.budgetMB, "budget-mb", 0, "per-machine memory budget per query in MiB (0 = unlimited)")
	flag.IntVar(&o.cacheEntries, "cache", 256, "result-cache capacity (negative disables)")
	flag.StringVar(&o.defEngine, "engine", "RADS", "default engine ("+strings.Join(engine.Names(), " ")+")")
	flag.StringVar(&o.snapDir, "snapshot", "", "snapshot directory: load the partition from it if present, write it otherwise")
	flag.BoolVar(&o.snapOnly, "snapshot-only", false, "write the snapshot and exit (requires -snapshot)")
	flag.StringVar(&o.specPath, "cluster", "", "cluster spec JSON: dispatch RADS queries to remote radsworker daemons")
	flag.DurationVar(&o.waitFor, "wait-workers", 30*time.Second, "how long to wait for cluster workers at startup")
	flag.DurationVar(&o.callTimeout, "call-timeout", 5*time.Second, "per-RPC deadline for cluster control-plane calls (0 = unbounded)")
	flag.DurationVar(&o.queryTimeout, "query-timeout", 0, "deadline for a dispatched cluster query (0 = unbounded; long queries legitimately run for minutes)")
	flag.IntVar(&o.rpcRetries, "rpc-retries", 3, "attempts per idempotent cluster RPC (fetchV/verifyE/ping); 1 disables retries")
	flag.DurationVar(&o.heartbeat, "heartbeat", 2*time.Second, "worker heartbeat sweep interval")
	flag.IntVar(&o.breakThresh, "breaker-threshold", 3, "consecutive RPC failures that mark a worker down")
	flag.DurationVar(&o.breakCool, "breaker-cooldown", 0, "wait before probing a down worker again (0 = 2x heartbeat)")
	flag.BoolVar(&o.fallback, "cluster-fallback", false, "serve RADS queries from the in-process engine while the cluster is unhealthy")
	flag.DurationVar(&o.slowQuery, "slow-query", 0, "log queries slower than this and keep their profiles in the slow ring (0 disables)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "optional second listener serving /metrics, /healthz and /debug/pprof")
	flag.IntVar(&o.eventsCap, "events", 1024, "operational event journal capacity (/debug/events)")
	flag.IntVar(&o.jobsConcurrent, "jobs-concurrent", 1, "batch jobs (motif census) running at once")
	flag.IntVar(&o.jobsQueued, "jobs-queued", 16, "batch jobs waiting before 503")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "radserve:", err)
		os.Exit(1)
	}
}

// loadPartition resolves the resident partition: from the snapshot
// when one exists, from the dataset/graph flags otherwise (persisting
// the result when -snapshot names a directory).
func loadPartition(o options) (*partition.Partition, []graph.VertexID, error) {
	if o.snapDir != "" && snapshot.Exists(o.snapDir) {
		start := time.Now()
		parts, man, err := snapshot.OpenShards(o.snapDir, nil, o.registry)
		var labels []graph.VertexID
		if err == nil {
			labels, err = snapshot.ReadLabels(o.snapDir)
		}
		switch {
		case err == nil:
			log.Printf("snapshot %s: %d machines, %d vertices, %d edges (source %s), loaded in %v — no re-partitioning",
				o.snapDir, man.Machines, man.Vertices, man.Edges, man.Source, time.Since(start).Round(time.Millisecond))
			return parts[0], labels, nil
		case errors.Is(err, snapshot.ErrVersion):
			// A snapshot from an older binary is a cache miss, not a
			// fatal condition: the graph source is in hand, so rebuild
			// and overwrite (the ErrVersion contract of the codec).
			log.Printf("snapshot %s is an incompatible format version — re-partitioning from source (%v)", o.snapDir, err)
		default:
			return nil, nil, err
		}
	}
	g, labels, ds, err := harness.LoadStore(o.graphFile, o.dataset, o.registry, o.scale)
	if err != nil {
		return nil, nil, err
	}
	source := o.dataset
	if o.graphFile != "" {
		source = o.graphFile
	}
	if ds != nil {
		log.Printf("dataset %s: graph from registry %s (%s)", ds.Name, o.registry, ds.Checksum)
	}
	log.Printf("graph %s: %d vertices, %d edges", source, g.NumVertices(), g.NumEdges())
	part := partition.KWay(g, o.machines, service.DefaultPartitionSeed)
	if o.snapDir != "" {
		start := time.Now()
		if ds != nil {
			// The snapshot references the registered .radsgraph by
			// checksum instead of copying it. Record an absolute path so
			// local workers open it directly; remote ones search their
			// own -dataset-dir.
			man := *ds
			if !filepath.IsAbs(man.Path) {
				if abs, aerr := filepath.Abs(filepath.Join(o.registry, man.Path)); aerr == nil {
					man.Path = abs
				}
			}
			err = snapshot.WriteDataset(o.snapDir, part, source, man)
		} else {
			err = snapshot.Write(o.snapDir, part, source, labels)
		}
		if err != nil {
			return nil, nil, err
		}
		log.Printf("snapshot written to %s (%d shards) in %v", o.snapDir, part.M, time.Since(start).Round(time.Millisecond))
	}
	return part, labels, nil
}

func run(o options) error {
	// Fail on a bad default engine now, before the expensive graph
	// load and partitioning, not on the first query.
	if _, ok := engine.Lookup(o.defEngine); !ok {
		return fmt.Errorf("unknown default engine %q (registered: %s)", o.defEngine, strings.Join(engine.Names(), " "))
	}
	if o.snapOnly && o.snapDir == "" {
		return fmt.Errorf("-snapshot-only needs -snapshot DIR")
	}
	part, labels, err := loadPartition(o)
	if err != nil {
		return err
	}
	if o.snapOnly {
		return nil
	}

	start := time.Now()
	// The operational event journal: breaker flips, RPC timeouts and
	// retries, fallback transitions, slow queries, job lifecycle — the
	// timeline behind /debug/events.
	events := obs.NewEventLog(o.eventsCap)
	svc, err := service.OpenPartitioned(part, service.Config{
		MaxConcurrent:    o.maxConcurrent,
		MaxQueued:        o.maxQueued,
		QueryBudgetBytes: o.budgetMB << 20,
		CacheEntries:     o.cacheEntries,
		DefaultEngine:    o.defEngine,
		SlowQuery:        o.slowQuery,
		Events:           events,
		OnSlowQuery: func(p *obs.Profile) {
			log.Printf("slow query id=%d pattern=%s engine=%s wall=%.3fs queued=%.3fs (GET /debug/trace?id=%d)",
				p.ID, p.Query, p.Engine, p.WallSeconds, p.QueuedSeconds, p.ID)
		},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	events.RegisterMetrics(svc.Metrics())
	buildinfo.Register(svc.Metrics())
	log.Printf("build %s", buildinfo.String())

	// Warm-start the prepared-artifact cache from the snapshot.
	if o.snapDir != "" {
		arts, err := snapshot.ReadArtifacts(o.snapDir)
		if err != nil {
			log.Printf("artifact restore skipped: %v", err)
		} else {
			for key, art := range arts {
				svc.Artifacts().Seed(key, art)
			}
			if len(arts) > 0 {
				log.Printf("restored %d prepared artifacts", len(arts))
			}
		}
	}

	// Cluster mode: front remote radsworker daemons for RADS queries.
	var clusterEng *rads.ClusterEngine
	if o.specPath != "" {
		spec, err := cluster.LoadSpec(o.specPath)
		if err != nil {
			return err
		}
		if spec.M() != part.M {
			return fmt.Errorf("cluster spec has %d machines, partition %d", spec.M(), part.M)
		}
		client := cluster.NewTCPClient(spec, nil)
		client.SetCallTimeout(o.callTimeout)
		// Dispatched queries legitimately run as long as the query does;
		// they get their own (usually unbounded) budget, not the short
		// control-plane deadline.
		client.SetKindTimeout("runQuery", o.queryTimeout)
		timeouts := svc.Metrics().CounterVec("rads_cluster_rpc_timeouts_total",
			"Cluster RPCs that hit their per-call deadline.", "kind")
		client.SetTimeoutObserver(func(kind string) {
			timeouts.With(kind).Inc()
			events.Recordf("rpc_timeout", -1, "cluster RPC %s hit its deadline", kind)
		})
		retries := svc.Metrics().CounterVec("rads_cluster_rpc_retries_total",
			"Retry attempts on idempotent cluster RPCs.", "kind")
		tr := cluster.NewRetryTransport(client, cluster.RetryPolicy{
			MaxAttempts: o.rpcRetries,
			OnRetry: func(kind string) {
				retries.With(kind).Inc()
				events.Recordf("rpc_retry", -1, "retrying cluster RPC %s", kind)
			},
		})
		defer tr.Close()
		ce := rads.NewClusterEngine(tr, part.M)
		log.Printf("cluster mode: waiting up to %v for %d workers", o.waitFor, spec.M())
		if err := ce.WaitReady(part, o.waitFor); err != nil {
			return err
		}
		// Fleet-health flips (all-up <-> degraded) are derived inside the
		// per-worker transition hook; with -cluster-fallback they are
		// exactly the moments queries re-route between legs.
		var healthyAll atomic.Bool
		healthyAll.Store(true)
		ce.StartHealth(rads.HealthOptions{
			Interval:         o.heartbeat,
			FailureThreshold: o.breakThresh,
			Cooldown:         o.breakCool,
			Registry:         svc.Metrics(),
			OnTransition: func(machine int, up bool) {
				if up {
					log.Printf("cluster: worker %d recovered", machine)
					events.Recordf("breaker_close", machine, "worker %d recovered (breaker closed)", machine)
				} else {
					log.Printf("cluster: worker %d down (breaker open)", machine)
					events.Recordf("breaker_open", machine, "worker %d down (breaker open)", machine)
				}
				if h := ce.Healthy(); healthyAll.Swap(h) != h && o.fallback {
					if h {
						events.Record("fallback_off", -1, "cluster healthy again; RADS queries dispatch remotely")
					} else {
						events.Record("fallback_on", -1, "cluster degraded; RADS queries served by the in-process engine")
					}
				}
			},
		})
		defer ce.Close()
		clusterEng = ce
		if o.fallback {
			ce.EnableFallback()
			log.Printf("cluster mode: degraded-mode fallback to the in-process engine enabled")
		}
		if err := svc.Register(ce); err != nil {
			return err
		}
		log.Printf("cluster mode: RADS queries dispatch to remote workers (%s)", strings.Join(spec.Machines, " "))
	}

	log.Printf("resident: %d machines, edge cut %d, balance %.3f, warmed in %v",
		part.M, part.EdgeCut(), part.Balance(), time.Since(start).Round(time.Millisecond))

	// The job plane: long-running motif-census work beside the
	// interactive query path, with its own admission cap.
	source := o.dataset
	if o.graphFile != "" {
		source = o.graphFile
	}
	js := newJobsServer(svc, source, jobs.Config{
		MaxConcurrent: o.jobsConcurrent,
		MaxQueued:     o.jobsQueued,
		Events:        events,
	})
	defer js.Close()

	srv := obs.NewHTTPServer(o.addr, newMux(svc, js, clusterEng, events, labels))
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", o.addr)
		errCh <- srv.ListenAndServe()
	}()
	// The debug listener carries pprof (opt-in: profiling endpoints
	// should not ride on the public query port).
	if o.debugAddr != "" {
		dbgMux := obs.DebugMux(svc.Metrics(), nil)
		dbgMux.Handle("/debug/events", events.Handler())
		dbg := obs.NewHTTPServer(o.debugAddr, dbgMux)
		go func() {
			log.Printf("debug listener on %s (/metrics /healthz /debug/pprof)", o.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	// Cancel running jobs and wait for their runners to unwind — their
	// final checkpoints persist and the jobs report cancelled, so a
	// restart tells clients the truth about interrupted work.
	js.Close()
	// Persist prepared artifacts so the next boot answers warm.
	if o.snapDir != "" {
		if arts := svc.Artifacts().Export(); len(arts) > 0 {
			if err := snapshot.WriteArtifacts(o.snapDir, arts); err != nil {
				log.Printf("artifact persist failed: %v", err)
			} else {
				log.Printf("persisted %d prepared artifacts", len(arts))
			}
		}
	}
	return nil
}

// newMux wires the HTTP surface over a service and a job plane; split
// out so tests can drive it through httptest. ce is the cluster
// coordinator engine in cluster mode — the health view in /healthz and
// /stats and the fleet endpoints (/metrics/cluster, /debug/cluster) —
// nil otherwise; events is the journal behind /debug/events, nil to
// leave the route unregistered; labels maps each vertex of the served
// graph to its ID in the graph's source, nil when the two agree.
func newMux(svc *service.Service, js *jobsServer, ce *rads.ClusterEngine, events *obs.EventLog, labels []graph.VertexID) *http.ServeMux {
	s := &server{svc: svc, cluster: ce, labels: labels}
	mux := http.NewServeMux()
	if js != nil {
		js.register(mux)
	}
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/engines", s.handleEngines)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/patterns", s.handlePatterns)
	mux.Handle("/metrics", svc.Metrics().Handler())
	mux.HandleFunc("/metrics/cluster", s.handleMetricsCluster)
	mux.HandleFunc("/debug/cluster", s.handleClusterSummary)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if events != nil {
		mux.Handle("/debug/events", events.Handler())
	}
	return mux
}

type server struct {
	svc     *service.Service
	cluster *rads.ClusterEngine
	labels  []graph.VertexID // streamed embeddings name labels[v], not v
}

// handleHealthz reports ingress liveness, plus the per-machine cluster
// view in cluster mode so operators see worker state without scraping
// metrics. Always 200: the ingress itself is up, and in degraded mode
// it is still serving (fallback) or failing fast (typed 503s) — the
// "status" field carries the distinction.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{
		"status":  "ok",
		"build":   buildinfo.String(),
		"version": buildinfo.Version,
		"commit":  buildinfo.Commit,
	}
	if s.cluster != nil {
		report := s.cluster.HealthReport()
		if !report.Healthy {
			out["status"] = "degraded"
		}
		out["cluster"] = report
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetricsCluster serves the fleet-merged Prometheus view: the
// coordinator's own families exactly as /metrics shows them, plus
// every reachable worker's families re-labeled with machine="N".
func (s *server) handleMetricsCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("not in cluster mode; per-process metrics are at /metrics"))
		return
	}
	resps, errs := s.cluster.PullStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteFleet(w, s.svc.Metrics(), rads.FleetFamilies(resps))
	for t, err := range errs {
		if err != nil {
			fmt.Fprintf(w, "# machine %d statsPull failed: %v\n", t, err)
		}
	}
}

// handleClusterSummary serves the /debug/cluster fleet table: per
// machine up/breaker/heartbeat-age from the health tracker joined with
// cache effectiveness and the snapshot fingerprint from a fresh
// statsPull.
func (s *server) handleClusterSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("not in cluster mode"))
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Summary())
}

type queryRequest struct {
	Pattern string `json:"pattern"`
	Engine  string `json:"engine,omitempty"`
	Stream  bool   `json:"stream,omitempty"`
	NoCache bool   `json:"nocache,omitempty"`
	// Limit truncates a stream after this many embeddings (0 = all).
	Limit int64 `json:"limit,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Pattern = q.Get("pattern")
		req.Engine = q.Get("engine")
		req.Stream = q.Get("stream") == "1" || q.Get("stream") == "true"
		req.NoCache = q.Get("nocache") == "1" || q.Get("nocache") == "true"
		if v := q.Get("limit"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
				return
			}
			req.Limit = n
		}
	case http.MethodPost:
		if !decodeBody(w, r, &req) {
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		return
	}

	p, err := resolvePattern(req.Pattern)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	h, err := s.svc.Submit(ctx, service.Query{
		Pattern: p,
		Engine:  req.Engine,
		Stream:  req.Stream,
		NoCache: req.NoCache,
	})
	if err != nil {
		switch {
		case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			// Includes engine.ErrUnsupported (e.g. streaming from an
			// engine whose capabilities lack it): the client asked for
			// something this engine declaredly cannot do.
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}

	if req.Stream {
		s.streamResponse(w, ctx, cancel, h, req, p.Name)
		return
	}
	res, err := h.Result(ctx)
	if err != nil {
		// A down worker is a clean, typed, retryable condition — the
		// cluster heals via breaker probes — not an internal error.
		if errors.Is(err, rads.ErrWorkerDown) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resultPayload(res))
}

// streamResponse writes NDJSON: one {"embedding":[...]} line per match
// followed by a terminal {"result":{...}} line. Embeddings name the
// vertices by their IDs in the graph's source (s.labels).
func (s *server) streamResponse(w http.ResponseWriter, ctx context.Context, cancel context.CancelFunc, h *service.Handle, req queryRequest, patternName string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	var emitted int64
	truncated := false
	for f := range h.Embeddings() {
		if s.labels != nil {
			// Each embedding is the handle's own copy: rename in place.
			for i, v := range f {
				f[i] = s.labels[v]
			}
		}
		if err := enc.Encode(map[string]any{"embedding": f}); err != nil {
			cancel() // client went away: abort the engine
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
		emitted++
		if req.Limit > 0 && emitted >= req.Limit {
			truncated = true
			cancel() // stop the engine; drain whatever it already sent
			break
		}
	}
	for range h.Embeddings() {
		// Drain anything buffered after cancellation or client loss.
	}
	res, err := h.Result(context.Background())
	if err != nil {
		if !truncated {
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
		// Truncation cancelled the engine on purpose: there is no
		// final Result, only what we counted ourselves.
		res = service.Result{Pattern: patternName, Engine: h.Engine()}
	}
	payload := resultPayload(res)
	payload["emitted"] = emitted
	if truncated {
		payload["truncated"] = true
		delete(payload, "total") // unknown: the engine was stopped early
	}
	enc.Encode(map[string]any{"result": payload})
}

// handleEngines lists the engines this service routes to, with the
// capabilities each declared through the engine API.
func (s *server) handleEngines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"engines": s.svc.Engines()})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, s.svc.Stats())
		return
	}
	// Embed so the cluster view rides alongside the flat service stats
	// without changing their shape.
	report := s.cluster.HealthReport()
	writeJSON(w, http.StatusOK, struct {
		service.Stats
		Cluster *rads.ClusterHealth `json:"cluster"`
	}{s.svc.Stats(), &report})
}

// handleTrace serves retained query profiles. Without an id it lists
// recent and slow queries as span-free summaries; ?id=N returns one
// query's full profile, spans included.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if v := r.URL.Query().Get("id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad id %q", v))
			return
		}
		p := s.svc.FindProfile(id)
		if p == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no retained profile for query %d", id))
			return
		}
		writeJSON(w, http.StatusOK, p)
		return
	}
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k > 0 {
			n = k
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"recent": summarize(s.svc.RecentProfiles(n)),
		"slow":   summarize(s.svc.SlowProfiles(n)),
	})
}

// summarize strips raw span lists from profiles — the listing payload
// stays small; fetch one id for the full trace.
func summarize(ps []*obs.Profile) []obs.Profile {
	out := make([]obs.Profile, 0, len(ps))
	for _, p := range ps {
		cp := *p
		cp.Spans = nil
		out = append(out, cp)
	}
	return out
}

func (s *server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, p := range pattern.QuerySet() {
		names = append(names, p.Name)
	}
	for _, p := range pattern.CliqueQuerySet() {
		names = append(names, p.Name)
	}
	names = append(names, "triangle", "fig2")
	writeJSON(w, http.StatusOK, map[string]any{
		"builtin": names,
		"syntax":  "name:n:u-v,u-v,...  e.g. square:4:0-1,1-2,2-3,3-0",
	})
}

// resolvePattern accepts a built-in name or the textual pattern form.
func resolvePattern(s string) (*pattern.Pattern, error) {
	if s == "" {
		return nil, errors.New("missing pattern")
	}
	if p := pattern.ByName(s); p != nil {
		return p, nil
	}
	p, err := pattern.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("pattern %q is neither a built-in name nor name:n:edges: %w", s, err)
	}
	return p, nil
}

func resultPayload(res service.Result) map[string]any {
	out := map[string]any{
		"pattern":   res.Pattern,
		"engine":    res.Engine,
		"total":     res.Total,
		"seconds":   res.Seconds,
		"comm_mb":   res.CommMB,
		"cache_hit": res.CacheHit,
		"queued_ms": float64(res.Queued) / float64(time.Millisecond),
	}
	if res.QueryID > 0 {
		out["query_id"] = res.QueryID
	}
	if res.OOM {
		out["oom"] = true
	}
	if res.PeakMB > 0 {
		out["peak_mb"] = res.PeakMB
	}
	if res.TreeNodes > 0 {
		out["tree_nodes"] = res.TreeNodes
	}
	return out
}

// maxBodyBytes bounds the POST /query and POST /jobs bodies; real
// requests are a few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes a size-bounded JSON request body into v. On
// failure it writes the response itself — 413 for an oversized body,
// 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("bad request body: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
