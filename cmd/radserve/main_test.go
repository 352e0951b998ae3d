package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rads/internal/engine"
	"rads/internal/engine/enginetest"
	"rads/internal/gen"
	"rads/internal/jobs"
	"rads/internal/localenum"
	"rads/internal/pattern"
	"rads/internal/service"
)

func newTestServer(t *testing.T) (*httptest.Server, *service.Service, int64) {
	t.Helper()
	g := gen.Community(8, 25, 0.2, 42)
	svc, err := service.Open(g, service.Config{Machines: 4, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	js := newJobsServer(svc, "test", jobs.Config{})
	ts := httptest.NewServer(newMux(svc, js, nil, nil, nil))
	t.Cleanup(func() {
		ts.Close()
		js.Close()
		svc.Close()
	})
	return ts, svc, localenum.Count(g, pattern.Triangle(), localenum.Options{})
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestConcurrentQueriesOverHTTP drives the acceptance scenario: the
// resident graph serves multiple concurrent pattern queries over HTTP
// with correct counts.
func TestConcurrentQueriesOverHTTP(t *testing.T) {
	ts, _, wantTriangles := newTestServer(t)

	queries := []string{"triangle", "path3:3:0-1,1-2", "triangle", "square:4:0-1,1-2,2-3,3-0"}
	results := make([]map[string]any, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?pattern=" + q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d (%s): status %d", i, q, resp.StatusCode)
				return
			}
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = out
		}(i, q)
	}
	wg.Wait()

	for i, q := range queries {
		if results[i] == nil {
			t.Fatalf("query %d (%s) produced no result", i, q)
		}
	}
	for _, i := range []int{0, 2} {
		if got := int64(results[i]["total"].(float64)); got != wantTriangles {
			t.Errorf("triangle count over HTTP = %d, oracle says %d", got, wantTriangles)
		}
	}
}

// TestCacheHitOverHTTP submits the same motif twice (second time under
// a different labeling) and checks the cache answered.
func TestCacheHitOverHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t)

	var first, second map[string]any
	getJSON(t, ts.URL+"/query?pattern=vee:3:0-1,1-2", &first)
	getJSON(t, ts.URL+"/query?pattern=vee2:3:1-0,0-2", &second)
	if first["cache_hit"].(bool) {
		t.Fatal("first query must not hit the cache")
	}
	if !second["cache_hit"].(bool) {
		t.Fatal("isomorphic relabeling must hit the cache")
	}
	if first["total"] != second["total"] {
		t.Fatalf("cached total %v != original %v", second["total"], first["total"])
	}
}

// TestEnginesEndpoint checks GET /engines lists every registered
// engine with its declared capabilities.
func TestEnginesEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)

	var payload struct {
		Engines []service.EngineInfo `json:"engines"`
	}
	resp := getJSON(t, ts.URL+"/engines", &payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	byName := make(map[string]service.EngineInfo)
	for _, e := range payload.Engines {
		byName[e.Name] = e
	}
	for _, name := range []string{"RADS", "PSgL", "TwinTwig", "SEED", "Crystal", "BigJoin"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("engine %s missing from /engines: %v", name, payload.Engines)
		}
	}
	rads := byName["RADS"]
	if !rads.Streaming || !rads.Cancellation || !rads.PreparedArtifacts || !rads.Default {
		t.Errorf("RADS capabilities wrong: %+v", rads)
	}
	psgl := byName["PSgL"]
	if psgl.Streaming || !psgl.Cancellation {
		t.Errorf("PSgL capabilities wrong: %+v", psgl)
	}
	crystal := byName["Crystal"]
	if !crystal.PreparedArtifacts || crystal.ArtifactScope != "canonical" {
		t.Errorf("Crystal capabilities wrong: %+v", crystal)
	}
}

// TestStreamUnsupportedEngineRejected asks a non-streaming engine for
// a stream and expects a 400 from the capability check, not a mid-run
// failure.
func TestStreamUnsupportedEngineRejected(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/query?pattern=triangle&engine=SEED&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "stream") {
		t.Errorf("error %q does not mention streaming", body["error"])
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, svc, _ := newTestServer(t)
	getJSON(t, ts.URL+"/query?pattern=triangle", nil)
	getJSON(t, ts.URL+"/query?pattern=triangle", nil)

	var st service.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Completed < 2 {
		t.Errorf("stats report %d completed, want >= 2", st.Completed)
	}
	if st.CacheHits < 1 {
		t.Errorf("stats report %d cache hits, want >= 1", st.CacheHits)
	}
	if st.Machines != svc.Partition().M {
		t.Errorf("stats machines = %d, want %d", st.Machines, svc.Partition().M)
	}
	if st.EngineRuns < 1 || st.CommBytes < 0 {
		t.Errorf("implausible stats: %+v", st)
	}
}

// TestStreamedQueryOverHTTP checks the NDJSON stream: embedding lines
// then a terminal result line whose total matches the stream length.
func TestStreamedQueryOverHTTP(t *testing.T) {
	ts, _, wantTriangles := newTestServer(t)

	body, _ := json.Marshal(queryRequest{Pattern: "triangle", Stream: true})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var embeddings int64
	var final map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line["embedding"] != nil:
			embeddings++
		case line["result"] != nil:
			final = line["result"].(map[string]any)
		case line["error"] != nil:
			t.Fatalf("stream error: %v", line["error"])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a result line")
	}
	if embeddings != wantTriangles {
		t.Errorf("streamed %d embeddings, oracle says %d", embeddings, wantTriangles)
	}
	if got := int64(final["total"].(float64)); got != wantTriangles {
		t.Errorf("final total %d, oracle says %d", got, wantTriangles)
	}
}

// TestStreamLimitTruncates asks for at most 3 embeddings and checks
// the stream stops there with a truncated result line.
func TestStreamLimitTruncates(t *testing.T) {
	ts, _, wantTriangles := newTestServer(t)
	if wantTriangles <= 3 {
		t.Fatalf("test graph has only %d triangles; need > 3", wantTriangles)
	}
	body, _ := json.Marshal(queryRequest{Pattern: "triangle", Stream: true, Limit: 3})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var embeddings int64
	var final map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line["embedding"] != nil:
			embeddings++
		case line["result"] != nil:
			final = line["result"].(map[string]any)
		case line["error"] != nil:
			t.Fatalf("stream error: %v", line["error"])
		}
	}
	if embeddings != 3 {
		t.Errorf("limit 3 streamed %d embeddings", embeddings)
	}
	if final == nil {
		t.Fatal("stream ended without a result line")
	}
	if final["truncated"] != true {
		t.Errorf("truncated flag missing from %v", final)
	}
	if got := int64(final["emitted"].(float64)); got != 3 {
		t.Errorf("emitted = %d, want 3", got)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/query", http.StatusBadRequest},                           // no pattern
		{"/query?pattern=nosuch", http.StatusBadRequest},            // unknown name
		{"/query?pattern=triangle&engine=x", http.StatusBadRequest}, // unknown engine
		{"/query?pattern=disc:4:0-1,2-3", http.StatusBadRequest},    // disconnected
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestOversizedBodyReturns413: POST bodies are read through a fixed
// 1 MiB bound on both planes, so a client cannot make the ingress
// buffer an arbitrarily large JSON document.
func TestOversizedBodyReturns413(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body := `{"pattern":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/query", "/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// TestOverloadReturns503 saturates a tiny service and expects 503 +
// Retry-After on the overflow query.
func TestOverloadReturns503(t *testing.T) {
	g := gen.Community(8, 25, 0.2, 42)
	svc, err := service.Open(g, service.Config{Machines: 4, MaxConcurrent: 1, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	svc.Register(enginetest.Func{EngineName: "block", RunFunc: func(ctx context.Context, req engine.Request) (engine.Result, error) {
		started <- struct{}{}
		<-release
		return engine.Result{}, nil
	}})
	ts := httptest.NewServer(newMux(svc, nil, nil, nil, nil))
	defer ts.Close()
	defer close(release)

	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/query?pattern=triangle&engine=block&nocache=1")
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
	}
	<-started // one running, one queued; the next must bounce
	waitQueued(t, svc, 1)
	resp, err := http.Get(ts.URL + "/query?pattern=triangle&engine=block&nocache=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func waitQueued(t *testing.T, svc *service.Service, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().Queued >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never saw %d queued queries", want)
}

// TestMetricsEndpoint: after a served query, /metrics exposes the
// required families with non-empty series.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)

	getJSON(t, ts.URL+"/query?pattern=triangle", nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	for _, line := range []string{
		`rads_query_seconds_count{engine="RADS"} 1`,
		"rads_admission_wait_seconds_count 1",
		`rads_queries_total{outcome="ok"} 1`,
		"rads_cache_misses_total 1",
		`rads_transport_bytes_total{kind=`,
		`rads_transport_latency_seconds_count{kind=`,
	} {
		if !strings.Contains(expo, line) {
			t.Errorf("/metrics missing %q:\n%s", line, expo)
		}
	}
}

// TestDebugTraceEndpoint: a completed query's id resolves to its full
// profile; the bare listing summarizes recent queries without spans.
func TestDebugTraceEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)

	var out map[string]any
	getJSON(t, ts.URL+"/query?pattern=triangle", &out)
	id, ok := out["query_id"].(float64)
	if !ok || id == 0 {
		t.Fatalf("query payload carries no query_id: %v", out)
	}

	var listing struct {
		Recent []map[string]any `json:"recent"`
		Slow   []map[string]any `json:"slow"`
	}
	getJSON(t, ts.URL+"/debug/trace", &listing)
	if len(listing.Recent) != 1 {
		t.Fatalf("trace listing has %d recent entries, want 1", len(listing.Recent))
	}
	if _, hasSpans := listing.Recent[0]["spans"]; hasSpans {
		t.Error("listing entries must omit raw spans")
	}

	var prof struct {
		ID     float64          `json:"id"`
		Query  string           `json:"query"`
		Engine string           `json:"engine"`
		Phases []map[string]any `json:"phases"`
		Spans  []map[string]any `json:"spans"`
	}
	resp := getJSON(t, ts.URL+"/debug/trace?id="+strconv.FormatInt(int64(id), 10), &prof)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace by id: status %d", resp.StatusCode)
	}
	if prof.ID != id || prof.Engine != "RADS" || len(prof.Phases) == 0 || len(prof.Spans) == 0 {
		t.Errorf("full profile incomplete: %+v", prof)
	}

	resp2, err := http.Get(ts.URL + "/debug/trace?id=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp2.StatusCode)
	}
}
