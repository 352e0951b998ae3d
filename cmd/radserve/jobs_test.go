package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"rads/internal/census"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/jobs"
	"rads/internal/service"
)

// newJobsTestServer serves g with a job plane configured by cfg.
func newJobsTestServer(t *testing.T, g *graph.Graph, cfg jobs.Config) (*httptest.Server, *jobsServer) {
	t.Helper()
	svc, err := service.Open(g, service.Config{Machines: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	js := newJobsServer(svc, "test", cfg)
	ts := httptest.NewServer(newMux(svc, js, nil, nil, nil))
	t.Cleanup(func() {
		ts.Close()
		js.Close()
		svc.Close()
	})
	return ts, js
}

func loadKarate(t *testing.T) *graph.Graph {
	t.Helper()
	f, err := os.Open("../../internal/dataset/testdata/karate.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postJob(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs %s -> %d: %v", body, resp.StatusCode, out)
	}
	return out
}

func jobStatus(t *testing.T, ts *httptest.Server, id float64) map[string]any {
	t.Helper()
	var st map[string]any
	getJSON(t, fmt.Sprintf("%s/jobs/%.0f", ts.URL, id), &st)
	return st
}

// pollUntilTerminal polls a job's status to completion, asserting the
// progress counters never regress across polls — the acceptance
// criterion for GET /jobs/{id}.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, id float64) map[string]any {
	t.Helper()
	var lastDone, lastSeen float64
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := jobStatus(t, ts, id)
		prog := st["progress"].(map[string]any)
		done, seen := prog["vertices_done"].(float64), prog["subgraphs_seen"].(float64)
		if done < lastDone || seen < lastSeen {
			t.Fatalf("progress regressed: %v/%v after %v/%v", done, seen, lastDone, lastSeen)
		}
		lastDone, lastSeen = done, seen
		switch st["state"].(string) {
		case string(jobs.StateCompleted), string(jobs.StateCancelled), string(jobs.StateFailed):
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return nil
}

// TestJobsCensusEndToEnd is the headline acceptance test: a census
// k=4 job on the karate fixture, submitted and polled over HTTP, must
// produce exactly the brute-force oracle's histogram.
func TestJobsCensusEndToEnd(t *testing.T) {
	g := loadKarate(t)
	ts, _ := newJobsTestServer(t, g, jobs.Config{})

	sub := postJob(t, ts, `{"kind":"census","size":4,"dataset":"test"}`)
	id := sub["id"].(float64)
	st := pollUntilTerminal(t, ts, id)
	if st["state"] != string(jobs.StateCompleted) {
		t.Fatalf("job ended %v", st["state"])
	}
	if st["profile"] == nil {
		t.Error("terminal status lacks the execution profile")
	}

	var res struct {
		State   string `json:"state"`
		Partial bool   `json:"partial"`
		Result  struct {
			Histogram map[string]int64 `json:"histogram"`
			Subgraphs int64            `json:"subgraphs"`
		} `json:"result"`
	}
	resp := getJSON(t, fmt.Sprintf("%s/jobs/%.0f/result", ts.URL, id), &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result -> %d", resp.StatusCode)
	}
	if res.Partial {
		t.Error("completed census marked partial")
	}
	want := census.BruteForce(g, 4)
	if len(res.Result.Histogram) != len(want) {
		t.Fatalf("histogram %v, oracle %v", res.Result.Histogram, want)
	}
	for k, c := range want {
		if res.Result.Histogram[k] != c {
			t.Errorf("class %s: got %d, oracle %d", k, res.Result.Histogram[k], c)
		}
	}
	if res.Result.Subgraphs != want.Total() {
		t.Errorf("subgraphs %d, oracle %d", res.Result.Subgraphs, want.Total())
	}
}

// TestJobsCancelMidRun submits a census big enough to outlive the
// polls, cancels it mid-flight over HTTP, and expects `cancelled` with
// a partial checkpointed histogram.
func TestJobsCancelMidRun(t *testing.T) {
	g := gen.PowerLaw(5000, 8, 2.6, 1500, 9)
	ts, _ := newJobsTestServer(t, g, jobs.Config{})

	sub := postJob(t, ts, `{"kind":"census","size":5,"workers":2}`)
	id := sub["id"].(float64)

	// Wait until the census has demonstrably counted something, then
	// cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts, id)
		if st["state"] == string(jobs.StateCompleted) {
			t.Skip("census finished before it could be cancelled; graph too small for this machine")
		}
		prog := st["progress"].(map[string]any)
		if prog["subgraphs_seen"].(float64) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("census never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%.0f", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE -> %d", resp.StatusCode)
	}

	st := pollUntilTerminal(t, ts, id)
	if st["state"] != string(jobs.StateCancelled) {
		t.Fatalf("job ended %v, want cancelled", st["state"])
	}

	var res struct {
		State   string `json:"state"`
		Partial bool   `json:"partial"`
		Result  struct {
			Histogram map[string]int64 `json:"histogram"`
			Partial   bool             `json:"partial"`
		} `json:"result"`
	}
	rr := getJSON(t, fmt.Sprintf("%s/jobs/%.0f/result", ts.URL, id), &res)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result of cancelled job -> %d", rr.StatusCode)
	}
	if res.State != string(jobs.StateCancelled) || !res.Partial {
		t.Errorf("result state=%s partial=%v, want cancelled partial", res.State, res.Partial)
	}
	var total int64
	for _, c := range res.Result.Histogram {
		total += c
	}
	if total == 0 {
		t.Error("cancelled job reported an empty partial histogram despite observed progress")
	}
}

// TestJobsResultConflictWhileRunning pins the 409 contract.
func TestJobsResultConflictWhileRunning(t *testing.T) {
	ts, js := newJobsTestServer(t, gen.Grid(4, 4), jobs.Config{})
	release := make(chan struct{})
	js.kinds["block"] = func(req jobRequest) (string, jobs.Runner, error) {
		return "block", func(ctx context.Context, up *jobs.Update) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, nil
	}
	sub := postJob(t, ts, `{"kind":"block"}`)
	id := sub["id"].(float64)
	url := fmt.Sprintf("%s/jobs/%.0f/result", ts.URL, id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jobStatus(t, ts, id)["state"] == string(jobs.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp := getJSON(t, url, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running -> %d, want 409", resp.StatusCode)
	}
	close(release)
	pollUntilTerminal(t, ts, id)
	if resp := getJSON(t, url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("result after completion -> %d", resp.StatusCode)
	}
}

func TestJobsBadRequests(t *testing.T) {
	ts, _ := newJobsTestServer(t, gen.Grid(4, 4), jobs.Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"nonsense"}`, http.StatusBadRequest},
		{`{"kind":"census","size":0}`, http.StatusBadRequest},
		{`{"kind":"census","size":99}`, http.StatusBadRequest},
		{`{"kind":"census","size":3,"workers":-1}`, http.StatusBadRequest},
		{`{"kind":"census","size":3,"dataset":"other"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s -> %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if resp := getJSON(t, ts.URL+"/jobs/999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job -> %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric id -> %d, want 400", resp.StatusCode)
	}
}

// TestJobsNDJSONResult checks the streaming histogram format: one
// class per line (key, name, count), then a summary line.
func TestJobsNDJSONResult(t *testing.T) {
	g := loadKarate(t)
	ts, _ := newJobsTestServer(t, g, jobs.Config{})
	sub := postJob(t, ts, `{"kind":"census","size":3}`)
	id := sub["id"].(float64)
	pollUntilTerminal(t, ts, id)

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%.0f/result?format=ndjson", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	classes := map[string]int64{}
	var summary map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if s, ok := m["summary"]; ok {
			summary = s.(map[string]any)
			continue
		}
		classes[m["class"].(string)] = int64(m["count"].(float64))
	}
	want := map[string]int64{"wedge": 393, "triangle": 45}
	if len(classes) != len(want) {
		t.Fatalf("classes %v, want %v", classes, want)
	}
	for name, c := range want {
		if classes[name] != c {
			t.Errorf("%s = %d, want %d", name, classes[name], c)
		}
	}
	if summary == nil || summary["state"] != string(jobs.StateCompleted) {
		t.Errorf("summary %v", summary)
	}
}

// TestJobsOverloadAndQueue exercises the admission cap over HTTP: one
// running, one queued, the next 503.
func TestJobsOverloadAndQueue(t *testing.T) {
	ts, js := newJobsTestServer(t, gen.Grid(4, 4), jobs.Config{MaxConcurrent: 1, MaxQueued: 1})
	js.kinds["block"] = func(req jobRequest) (string, jobs.Runner, error) {
		return "block", func(ctx context.Context, up *jobs.Update) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil
	}
	first := postJob(t, ts, `{"kind":"block"}`)
	second := postJob(t, ts, `{"kind":"block"}`)
	if second["state"] != string(jobs.StateQueued) {
		t.Errorf("second job %v, want queued", second["state"])
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"block"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third job -> %d, want 503", resp.StatusCode)
	}

	var list struct {
		Jobs  []map[string]any `json:"jobs"`
		Stats map[string]any   `json:"stats"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Errorf("listed %d jobs, want 2", len(list.Jobs))
	}
	if list.Stats["rejected"].(float64) != 1 {
		t.Errorf("stats %v", list.Stats)
	}
	for _, sub := range []map[string]any{first, second} {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%.0f", ts.URL, sub["id"].(float64)), nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestJobsMetricsOnServiceRegistry asserts the job families ride the
// same /metrics endpoint as the query plane.
func TestJobsMetricsOnServiceRegistry(t *testing.T) {
	g := loadKarate(t)
	ts, _ := newJobsTestServer(t, g, jobs.Config{})
	sub := postJob(t, ts, `{"kind":"census","size":3}`)
	pollUntilTerminal(t, ts, sub["id"].(float64))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"rads_jobs_submitted_total 1",
		`rads_jobs_total{outcome="completed"} 1`,
		"rads_jobs_running 0",
		"rads_jobs_queued 0",
		"rads_job_progress",
		"rads_census_subgraphs_total 438", // 393 wedges + 45 triangles
		"rads_census_subgraphs_per_second",
		"rads_job_checkpoints_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobsShutdownCancelsRunning is the graceful-shutdown satellite at
// the radserve layer: closing the job plane (what run() does after
// srv.Shutdown) cancels a running job, keeps its checkpoint as the
// partial result, and leaks no goroutines.
func TestJobsShutdownCancelsRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	g := gen.PowerLaw(5000, 8, 2.6, 1500, 11)
	svc, err := service.Open(g, service.Config{Machines: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	js := newJobsServer(svc, "test", jobs.Config{})
	ts := httptest.NewServer(newMux(svc, js, nil, nil, nil))
	defer ts.Close()

	sub := postJob(t, ts, `{"kind":"census","size":5,"workers":2}`)
	id := sub["id"].(float64)
	deadline := time.Now().Add(30 * time.Second)
	for jobStatus(t, ts, id)["state"] != string(jobs.StateRunning) {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { js.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("jobsServer.Close hung with a census running")
	}

	st := jobStatus(t, ts, id)
	if st["state"] != string(jobs.StateCancelled) {
		t.Fatalf("job state %v after shutdown, want cancelled", st["state"])
	}
	var res struct {
		Partial bool `json:"partial"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%.0f/result", ts.URL, id), &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result after shutdown -> %d", resp.StatusCode)
	}
	if !res.Partial {
		t.Error("shutdown-cancelled job's result not marked partial")
	}

	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 { // httptest + service pool overhead
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}
