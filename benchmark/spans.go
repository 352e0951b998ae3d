package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded only from the benchmark's own files, around calls into
// exported functions; nothing inside the program is instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Request uint64 `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs thread it unconditionally.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(parent int, request uint64, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNs: now, EndNs: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(parent int, request uint64, name string, fn func(id int)) {
	id := r.start(parent, request, name)
	fn(id)
	r.end(id)
}

// finish closes any span still open and fills in self times.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].EndNs < 0 {
			r.spans[i].EndNs = now
		}
	}
	selfTimes(r.spans)
	return r.spans
}

// selfTimes sets every span's SelfNs to its duration minus the part of
// its interval that its direct children cover (overlapping children —
// concurrent calls — are counted once).
func selfTimes(spans []span) {
	children := make(map[int][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNs = s.EndNs - s.StartNs - unionLength(children[s.ID])
	}
}

// unionLength is the total length the intervals cover, overlaps
// counted once. It reorders iv.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	reach := int64(-1 << 62)
	for _, x := range iv {
		lo, hi := max(x[0], reach), x[1]
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return covered
}

// layerTotal aggregates spans by layer: the part of the span name
// before the first dot ("dataset.Ingest" -> "dataset").
type layerTotal struct {
	Spans        int     `json:"spans"`
	TotalSeconds float64 `json:"total_s"`
	SelfSeconds  float64 `json:"self_s"`
}

func layerTotals(spans []span) map[string]layerTotal {
	out := make(map[string]layerTotal)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		t := out[layer]
		t.Spans++
		t.TotalSeconds += float64(s.EndNs-s.StartNs) / 1e9
		t.SelfSeconds += float64(s.SelfNs) / 1e9
		out[layer] = t
	}
	return out
}

// writeSpans writes the span file of a traced run.
func writeSpans(path string, workload string, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Layers   map[string]layerTotal `json:"layers"`
		Spans    []span                `json:"spans"`
	}{workload, layerTotals(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
