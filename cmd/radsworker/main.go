// Command radsworker hosts RADS machine daemons in their own OS
// process: the worker half of a multi-process deployment. Each worker
// loads its machines' shards from a snapshot directory (written by
// `radserve -snapshot DIR` or `-snapshot-only`), listens for daemon
// and control requests on its address from the cluster spec, and dials
// fellow workers directly for verifyE/fetchV/checkR/shareR — the
// coordinator (cluster-mode radserve) only ever sends control
// messages.
//
// Usage:
//
//	radsworker -spec spec.json -snapshot snap/ -machines 0,1
//	radsworker -spec spec.json -snapshot snap/ -listen 127.0.0.1:9102
//
// With -machines the listen address defaults to those machines' spec
// entry; with -listen the hosted machines are everything the spec
// places at that address. The worker runs until SIGINT/SIGTERM.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rads/internal/buildinfo"
	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/rads"
	"rads/internal/snapshot"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "cluster spec JSON (machine id -> host:port)")
		snapDir   = flag.String("snapshot", "", "snapshot directory with the machines' shards")
		machines  = flag.String("machines", "", "comma-separated machine ids to host (default: all at -listen)")
		listen    = flag.String("listen", "", "listen address (default: the hosted machines' spec entry)")
		workers   = flag.Int("workers", 0, "enumeration workers per hosted machine (0 = GOMAXPROCS/hosted)")
		dsDir     = flag.String("dataset-dir", "", "extra directory searched for the .radsgraph file a snapshot references")
		debugAddr = flag.String("debug-addr", "", "optional HTTP listener serving /metrics, /healthz and /debug/pprof")
		callTO    = flag.Duration("call-timeout", 10*time.Second, "per-RPC deadline for worker-to-worker calls (0 = unbounded)")
		retries   = flag.Int("rpc-retries", 3, "attempts per idempotent worker-to-worker RPC (fetchV/verifyE); 1 disables retries")
	)
	flag.Parse()
	if err := run(*specPath, *snapDir, *machines, *listen, *workers, *dsDir, *debugAddr, *callTO, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "radsworker:", err)
		os.Exit(1)
	}
}

func run(specPath, snapDir, machineList, listen string, workers int, dsDir, debugAddr string, callTimeout time.Duration, rpcRetries int) error {
	if specPath == "" || snapDir == "" {
		return fmt.Errorf("need -spec and -snapshot")
	}
	spec, err := cluster.LoadSpec(specPath)
	if err != nil {
		return err
	}
	ids, err := resolveMachines(spec, machineList, &listen)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / len(ids)
		if workers < 1 {
			workers = 1
		}
	}

	srv, err := cluster.NewTCPServer(listen)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Closing the retry wrappers cancels pending backoff sleeps and
	// closes the inner TCP clients.
	var clients []*cluster.RetryTransport
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	// The snapshot's graph resolves by recorded path, the snapshot
	// directory, then -dataset-dir — always pinned to the manifest
	// checksum, so every worker enumerates the same bytes.
	// OpenShards loads and validates that file once, shared across
	// every machine this worker hosts.
	parts, man, err := snapshot.OpenShards(snapDir, ids, dsDir)
	if err != nil {
		return err
	}
	if man.Machines != spec.M() {
		return fmt.Errorf("snapshot has %d machines, spec %d", man.Machines, spec.M())
	}
	// One registry for the whole process: machines hosted together
	// share families, exposed on -debug-addr and pulled by the
	// coordinator over statsPull. The event journal rides beside it.
	reg := obs.NewRegistry()
	events := obs.NewEventLog(1024)
	events.RegisterMetrics(reg)
	buildinfo.Register(reg)
	log.Printf("build %s", buildinfo.String())
	reg.CounterVecFunc("rads_kernel_selections_total",
		"Adaptive intersection kernel selections.", "kernel", graph.KernelCounts)
	handleLatency := reg.HistogramVec("rads_handle_seconds",
		"Daemon request handling latency by message kind.", "kind", nil)
	srv.SetObserver(func(kind string, seconds float64) {
		handleLatency.With(kind).Observe(seconds)
	})
	transportLatency := reg.HistogramVec("rads_transport_latency_seconds",
		"Outgoing exchange latency by message kind.", "kind", nil)
	rpcTimeouts := reg.CounterVec("rads_cluster_rpc_timeouts_total",
		"Worker-to-worker RPCs that hit their per-call deadline.", "kind")
	rpcRetried := reg.CounterVec("rads_cluster_rpc_retries_total",
		"Retry attempts on idempotent worker-to-worker RPCs.", "kind")

	var allMetrics []*cluster.Metrics
	for i, id := range ids {
		part := parts[i]
		metrics := cluster.NewMetrics(spec.M())
		metrics.SetLatencyObserver(func(kind string, seconds float64) {
			transportLatency.With(kind).Observe(seconds)
		})
		allMetrics = append(allMetrics, metrics)
		tcp := cluster.NewTCPClient(spec, metrics)
		tcp.SetCallTimeout(callTimeout)
		tcp.SetTimeoutObserver(func(kind string) { rpcTimeouts.With(kind).Inc() })
		client := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{
			MaxAttempts: rpcRetries,
			OnRetry:     func(kind string) { rpcRetried.With(kind).Inc() },
		})
		clients = append(clients, client)
		d := rads.NewMachine(id, part, client, rads.MachineOptions{
			AvgDegree: man.AvgDegree,
			Workers:   workers,
			Metrics:   metrics,
			Obs:       reg,
			Events:    events,
		})
		srv.Register(id, d.Handle)
		log.Printf("machine %d: shard loaded (%d owned vertices of %d, %d border-distance entries warm)",
			id, len(part.Vertices(id)), man.Vertices, len(part.BorderDistances(id)))
	}
	reg.CounterVecFunc("rads_transport_bytes_total",
		"Outgoing bytes by message kind, summed over hosted machines.", "kind",
		func() map[string]int64 { return sumByKind(allMetrics, (*cluster.Metrics).ByKind) })
	reg.CounterVecFunc("rads_transport_messages_total",
		"Outgoing messages by message kind, summed over hosted machines.", "kind",
		func() map[string]int64 { return sumByKind(allMetrics, (*cluster.Metrics).MessagesByKind) })

	if debugAddr != "" {
		fingerprint := rads.PartitionFingerprint(parts[0])
		health := healthzHandler(ids, fingerprint)
		dbgMux := obs.DebugMux(reg, health)
		dbgMux.Handle("/debug/events", events.Handler())
		dbg := obs.NewHTTPServer(debugAddr, dbgMux)
		go func() {
			log.Printf("debug listener on %s (/metrics /healthz /debug/pprof)", debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
	}
	log.Printf("hosting machines %v on %s (%d workers each)", ids, srv.Addr(), workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down", s)
	return nil
}

// sumByKind folds one per-kind view across every hosted machine's
// metrics object.
func sumByKind(ms []*cluster.Metrics, view func(*cluster.Metrics) map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range ms {
		for k, v := range view(m) {
			out[k] += v
		}
	}
	return out
}

// healthzHandler reports the worker's identity: hosted machines and
// the snapshot fingerprint, so an operator (or the smoke script) can
// verify every process serves the same partition the coordinator
// loaded. The worker only starts this listener after every shard is
// registered, so reachable means ready.
func healthzHandler(ids []int, fingerprint uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":               "ok",
			"ready":                true,
			"machines":             ids,
			"snapshot_fingerprint": fmt.Sprintf("%016x", fingerprint),
			"build":                buildinfo.String(),
			"version":              buildinfo.Version,
			"commit":               buildinfo.Commit,
		})
	})
}

// resolveMachines determines which machine ids this worker hosts and
// on what address, from -machines and/or -listen.
func resolveMachines(spec cluster.ClusterSpec, machineList string, listen *string) ([]int, error) {
	var ids []int
	if machineList != "" {
		for _, tok := range strings.Split(machineList, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || id < 0 || id >= spec.M() {
				return nil, fmt.Errorf("bad machine id %q (spec has %d machines)", tok, spec.M())
			}
			ids = append(ids, id)
		}
		if *listen == "" {
			*listen = spec.Addr(ids[0])
		}
		for _, id := range ids {
			if spec.Addr(id) != *listen {
				return nil, fmt.Errorf("machine %d lives at %s in the spec, but this worker listens on %s",
					id, spec.Addr(id), *listen)
			}
		}
		return ids, nil
	}
	if *listen == "" {
		return nil, fmt.Errorf("need -machines or -listen to know what to host")
	}
	ids = spec.MachinesAt(*listen)
	if len(ids) == 0 {
		return nil, fmt.Errorf("the spec places no machines at %s", *listen)
	}
	return ids, nil
}
