package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"rads/internal/graph"
	"rads/internal/pattern"
	"rads/internal/service"
)

// serveClasses are the pattern classes the request stream draws from,
// uniformly; every request relabels its class's vertices afresh, so
// the server sees a new labelled pattern of a known isomorphism class.
var serveClasses = []string{"triangle", "q1", "q2", "q4"}

const (
	serveClients  = 2   // closed loop: each client waits for its reply
	noCacheShare  = 0.1 // share of requests that bypass the result cache
	serveMaxConc  = 4   // radserve -max-concurrent
	healthTimeout = 20 * time.Second
)

// buildRadserve builds cmd/radserve from the checkout's source into
// .bench_build/bin. Build time is no part of any metric.
func buildRadserve(ctx context.Context, repo string) (string, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("building cmd/radserve: %w", err)
	}
	bin := filepath.Join(repo, ".bench_build", "bin", "radserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/radserve")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/radserve: %v\n%s", err, out)
	}
	return bin, nil
}

// request is one element of the request stream.
type request struct {
	class   int
	noCache bool
	pattern string // name:n:edges, vertices relabelled
}

// requestStream returns the deterministic request generator of one
// client: same seed and client, same stream.
func requestStream(seed int64, client int) func() request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return func() request {
		class := rng.Intn(len(serveClasses))
		p := patternByName(serveClasses[class])
		perm := rng.Perm(p.N())
		var b strings.Builder
		fmt.Fprintf(&b, "r:%d:", p.N())
		for i, e := range p.Edges() {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d-%d", perm[e[0]], perm[e[1]])
		}
		return request{class: class, noCache: rng.Float64() < noCacheShare, pattern: b.String()}
	}
}

// radserveProc is a running cmd/radserve child.
type radserveProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *bytes.Buffer
}

// stop terminates the child and waits until it has ended.
func (p *radserveProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// startRadserve starts the server on a free loopback port and waits
// for the first 200 from /healthz.
func startRadserve(ctx context.Context, bin, edgePath string) (*radserveProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		// Ask the kernel for a free port, then hand it to the child. The
		// gap between closing the probe and the child's bind can lose a
		// race with another process; a child that fails to come up is
		// retried on a fresh port.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		p := &radserveProc{base: "http://" + addr, logs: new(bytes.Buffer)}
		p.cmd = exec.Command(bin, "-graph", edgePath, "-machines", fmt.Sprint(machines),
			"-max-concurrent", fmt.Sprint(serveMaxConc), "-addr", addr)
		p.cmd.Stdout, p.cmd.Stderr = p.logs, p.logs
		dieWithParent(p.cmd)
		if err := p.cmd.Start(); err != nil {
			return nil, err
		}
		if lastErr = waitHealthy(ctx, p.base); lastErr == nil {
			return p, nil
		}
		p.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("radserve did not come up: %w", lastErr)
}

func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(healthTimeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// reply is the part of the /query payload the benchmark reads.
type reply struct {
	Total    int64   `json:"total"`
	Seconds  float64 `json:"seconds"`
	CacheHit bool    `json:"cache_hit"`
	QueuedMs float64 `json:"queued_ms"`
}

// exchange is one measured request.
type exchange struct {
	ms       float64
	hit      bool
	queuedMs float64
	ok       bool
}

// load drives the server in a closed loop from serveClients keep-alive
// clients for the window and returns every exchange.
func load(r *run, base string, want []int64, window float64, streams []func() request, parent int) ([]exchange, float64) {
	per := make([][]exchange, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(time.Duration(window * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			for n := uint64(1); time.Now().Before(deadline) && r.ctx.Err() == nil; n++ {
				req := streams[c]()
				u := base + "/query?pattern=" + url.QueryEscape(req.pattern)
				if req.noCache {
					u += "&nocache=1"
				}
				r.attempted.Add(1)
				id := r.rec.start(parent, uint64(c)<<32|n, "radserve.GET /query")
				q0 := time.Now()
				rep, err := get(client, u)
				ex := exchange{ms: float64(time.Since(q0).Nanoseconds()) / 1e6}
				r.rec.end(id)
				switch {
				case err != nil:
					r.failf("GET %s: %v", u, err)
				case rep.Total != want[req.class]:
					r.failf("GET %s: total %d, oracle %d", u, rep.Total, want[req.class])
				default:
					ex.ok, ex.hit, ex.queuedMs = true, rep.CacheHit, rep.QueuedMs
				}
				per[c] = append(per[c], ex)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	var all []exchange
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// get performs one exchange; anything but a 200 with a decodable body
// (a 503 refusal included) is an error.
func get(client *http.Client, u string) (reply, error) {
	var rep reply
	resp, err := client.Get(u)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return rep, json.Unmarshal(body, &rep)
}

func getStats(base string) (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runServeHTTP(r *run) error {
	bin := r.opt.radserve
	if bin == "" {
		var err error
		if bin, err = buildRadserve(r.ctx, r.opt.repo); err != nil {
			return err
		}
	}
	type product struct {
		edgePath string
		proc     *radserveProc
	}
	var boots []float64
	p, err := timeSetups(r, func(parent int, dir string) (product, error) {
		edgePath := filepath.Join(dir, "serve.txt")
		err := r.stage(parent, "gen.Community", "", func() error {
			return os.WriteFile(edgePath, serveEdgeList(r.cfg, r.opt.seed), 0o644)
		})
		if err != nil {
			return product{}, err
		}
		var proc *radserveProc
		t0 := time.Now()
		err = r.stage(parent, "radserve.boot", "", func() (err error) {
			proc, err = startRadserve(r.ctx, bin, edgePath)
			return err
		})
		boots = append(boots, time.Since(t0).Seconds())
		return product{edgePath, proc}, err
	}, func(p product) { p.proc.stop() })
	defer p.proc.stop()
	if err != nil {
		return err
	}
	r.putQ("radserve.boot_s", boots, 0.5)

	// The oracle reads the edge list the way radserve does and counts
	// each class once; counts are invariant under the relabelling.
	f, err := os.Open(p.edgePath)
	if err != nil {
		return err
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return err
	}
	r.fixture["n"], r.fixture["edges"], r.fixture["max_degree"] = g.NumVertices(), g.NumEdges(), g.MaxDegree()
	counts := oracle(r, g, serveClasses, false)
	want := make([]int64, len(serveClasses))
	for i, c := range serveClasses {
		want[i] = counts[c].count
	}
	streams := make([]func() request, serveClients)
	for c := range streams {
		streams[c] = requestStream(r.opt.seed, c)
	}

	// Warm-up fills the result cache with every class and lets the
	// server's heap settle; its exchanges are checked but not timed.
	load(r, p.proc.base, want, r.cfg.warmSeconds, streams, 0)

	if !r.opt.trace {
		attempted, failed := r.attempted.Load(), r.failed.Load()
		exs, elapsed := load(r, p.proc.base, want, r.opt.seconds, streams, 0)
		var secs []float64
		for _, ex := range exs {
			if ex.ok { // a failed request has no latency to report
				secs = append(secs, ex.ms/1e3)
			}
		}
		reportLatency(r, secs, attempted, failed, elapsed)
		r.put("peak_mem_mb", peakRSSMiB(p.proc.cmd.Process.Pid))
		return nil
	}

	plain, plainElapsed := load(r, p.proc.base, want, r.opt.seconds/2, streams, 0)
	st0, err := getStats(p.proc.base)
	if err != nil {
		return err
	}
	id := r.rec.start(0, 0, "benchmark.tracedLoad")
	traced, tracedElapsed := load(r, p.proc.base, want, r.opt.seconds/2, streams, id)
	r.rec.end(id)
	st1, err := getStats(p.proc.base)
	if err != nil {
		return err
	}
	r.put("obs.trace_overhead_ratio", (tracedElapsed/float64(len(traced)))/(plainElapsed/float64(len(plain))))

	var all, hits, misses, queued []float64
	for _, ex := range traced {
		if !ex.ok {
			continue
		}
		all = append(all, ex.ms)
		queued = append(queued, ex.queuedMs)
		if ex.hit {
			hits = append(hits, ex.ms)
		} else {
			misses = append(misses, ex.ms)
		}
	}
	r.putQ("radserve.hit_p50_ms", hits, 0.5)
	r.putQ("radserve.miss_p50_ms", misses, 0.5)
	r.putQ("radserve.miss_p95_ms", misses, 0.95)
	r.putQ("radserve.lat_p999_ms", all, 0.999)
	r.putQ("service.queued_ms_p99", queued, 0.99)
	r.put("radserve.rss_mb", peakRSSMiB(p.proc.cmd.Process.Pid))
	if submitted := st1.Submitted - st0.Submitted; submitted > 0 {
		// Over every request of the window: the nocache tenth never
		// consults the cache and counts against the ratio.
		r.put("service.cache_hit_ratio", float64(st1.CacheHits-st0.CacheHits)/float64(submitted))
	}
	r.put("service.engine_runs", float64(st1.EngineRuns-st0.EngineRuns))
	r.put("service.rejected", float64(st1.Rejected-st0.Rejected))

	if err := replayInProcess(r, g, want); err != nil {
		return err
	}
	r.put("radserve.http_overhead_us", median(hits)*1e3-r.metrics["service.hit_us"].Value)
	kernelMicros(r, g, "generic")
	return nil
}

// replayInProcess replays the head of the request stream against
// service.Open on the same graph, so that the serving plane's own cost
// can be read without HTTP around it.
func replayInProcess(r *run, g *graph.Graph, want []int64) error {
	var svc *service.Service
	err := r.stage(0, "service.Open", "service.open_s", func() (err error) {
		svc, err = service.Open(g, service.Config{Machines: machines, MaxConcurrent: serveMaxConc})
		return err
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	next := requestStream(r.opt.seed, 0)
	var canonUs, hitUs, missOverUs []float64
	root := r.rec.start(0, 0, "benchmark.replay")
	defer r.rec.end(root)
	for i := 0; i < r.cfg.replay && r.ctx.Err() == nil; i++ {
		req := next()
		rid := uint64(i + 1)
		var pat *pattern.Pattern
		t0 := time.Now()
		r.rec.do(root, rid, "pattern.Parse+CanonicalKey", func(int) {
			if pat, err = pattern.Parse(req.pattern); err == nil {
				_ = pat.CanonicalKey()
			}
		})
		if err != nil {
			return err
		}
		canonUs = append(canonUs, float64(time.Since(t0).Nanoseconds())/1e3)
		r.attempted.Add(1)
		var res service.Result
		t0 = time.Now()
		r.rec.do(root, rid, "service.Submit→Result", func(int) {
			var h *service.Handle
			if h, err = svc.Submit(r.ctx, service.Query{Pattern: pat, NoCache: req.noCache}); err == nil {
				res, err = h.Result(r.ctx)
			}
		})
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		switch {
		case err != nil:
			r.failf("replay %s: %v", req.pattern, err)
		case res.Total != want[req.class]:
			r.failf("replay %s: total %d, oracle %d", req.pattern, res.Total, want[req.class])
		case res.CacheHit:
			hitUs = append(hitUs, us)
		default:
			missOverUs = append(missOverUs, us-res.Seconds*1e6)
		}
	}
	r.putQ("pattern.parse_canon_us", canonUs, 0.5)
	r.putQ("service.hit_us", hitUs, 0.5)
	r.putQ("service.miss_overhead_us", missOverUs, 0.5)
	return nil
}
