package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rads/internal/census"
	"rads/internal/graph"
	"rads/internal/jobs"
	"rads/internal/service"
)

// jobsServer is the batch-analytics plane of radserve: long-running
// jobs (the motif census) submitted beside the interactive query path
// and driven through the jobs.Manager.
type jobsServer struct {
	mgr *jobs.Manager
	g   *graph.Graph
	// source names the graph being served (dataset name or edge-list
	// path); a request naming a different dataset is rejected rather
	// than silently censusing the wrong graph.
	source string
	// kinds maps job kind names to runner factories. Populated before
	// the listener starts; tests inject controllable kinds.
	kinds map[string]jobFactory
}

// jobRequest is the POST /jobs payload.
type jobRequest struct {
	Kind string `json:"kind"`
	// Size is the subgraph size k for kind=census.
	Size int `json:"size,omitempty"`
	// Workers overrides the enumeration pool size (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// Dataset, when set, must name the served graph (safety check —
	// radserve holds exactly one graph resident).
	Dataset string `json:"dataset,omitempty"`
}

// jobFactory validates a request and builds its runner.
type jobFactory func(req jobRequest) (desc string, run jobs.Runner, err error)

// newJobsServer wires a job manager over the service's resident graph
// and registers the job metrics families on the service registry.
func newJobsServer(svc *service.Service, source string, cfg jobs.Config) *jobsServer {
	js := &jobsServer{
		mgr:    jobs.NewManager(cfg),
		g:      svc.Partition().G,
		source: source,
		kinds:  make(map[string]jobFactory),
	}
	js.kinds["census"] = js.censusFactory
	js.mgr.RegisterMetrics(svc.Metrics())
	return js
}

// Close shuts the job manager down: running jobs are cancelled, their
// checkpoints persist as partial results, runners unwind before Close
// returns.
func (js *jobsServer) Close() error { return js.mgr.Close() }

// censusFactory builds a motif-census runner: census.Run over the
// resident graph with progress, checkpoints and trace spans flowing
// into the job.
func (js *jobsServer) censusFactory(req jobRequest) (string, jobs.Runner, error) {
	if req.Size < 1 || req.Size > census.MaxK {
		return "", nil, fmt.Errorf("census size must be 1..%d, got %d", census.MaxK, req.Size)
	}
	if req.Workers < 0 {
		return "", nil, fmt.Errorf("bad workers %d", req.Workers)
	}
	k, workers, g := req.Size, req.Workers, js.g
	desc := fmt.Sprintf("census k=%d on %s", k, js.source)
	run := func(ctx context.Context, up *jobs.Update) (any, error) {
		res, err := census.Run(ctx, g, census.Config{
			K:               k,
			Workers:         workers,
			OnProgress:      func(p census.Progress) { up.Progress(toJobProgress(p)) },
			ProgressEvery:   100 * time.Millisecond,
			OnCheckpoint:    func(h census.Histogram, p census.Progress) { up.Checkpoint(h) },
			CheckpointEvery: 250 * time.Millisecond,
			Trace:           up.Trace(),
		})
		// Cancelled: hand the partial result back as the final
		// checkpoint so the job reports exactly what was counted.
		return res, err
	}
	return desc, run, nil
}

func toJobProgress(p census.Progress) jobs.Progress {
	return jobs.Progress{
		VerticesDone:   p.VerticesDone,
		TotalVertices:  p.TotalVertices,
		SubgraphsSeen:  p.SubgraphsSeen,
		ElapsedSeconds: p.Elapsed.Seconds(),
	}
}

// register adds the jobs routes to the mux (Go 1.22 method+wildcard
// patterns).
func (js *jobsServer) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", js.handleSubmit)
	mux.HandleFunc("GET /jobs", js.handleList)
	mux.HandleFunc("GET /jobs/{id}", js.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", js.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", js.handleResult)
}

func (js *jobsServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	factory, ok := js.kinds[req.Kind]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown job kind %q (have: census)", req.Kind))
		return
	}
	if req.Dataset != "" && req.Dataset != js.source {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("dataset %q is not served here (resident: %s)", req.Dataset, js.source))
		return
	}
	desc, run, err := factory(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := js.mgr.Submit(req.Kind, desc, run)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrOverloaded), errors.Is(err, jobs.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (js *jobsServer) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":  js.mgr.List(),
		"stats": js.mgr.Stats(),
	})
}

// jobFromPath resolves the {id} wildcard; nil means the response was
// already written.
func (js *jobsServer) jobFromPath(w http.ResponseWriter, r *http.Request) *jobs.Job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return nil
	}
	j, ok := js.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return nil
	}
	return j
}

func (js *jobsServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := js.jobFromPath(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (js *jobsServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := js.jobFromPath(w, r)
	if j == nil {
		return
	}
	js.mgr.Cancel(j.ID())
	// Cancellation is asynchronous; report the snapshot as of now (a
	// poll on GET /jobs/{id} observes the terminal state).
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleResult serves a terminal job's result: the census histogram
// (full or checkpointed-partial), as one JSON object or as NDJSON with
// ?format=ndjson — one class per line, then a summary line.
func (js *jobsServer) handleResult(w http.ResponseWriter, r *http.Request) {
	j := js.jobFromPath(w, r)
	if j == nil {
		return
	}
	out, ok := j.Result()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %d is %s; result not ready", j.ID(), j.Snapshot().State))
		return
	}
	if out.State == jobs.StateFailed {
		writeError(w, http.StatusInternalServerError, out.Err)
		return
	}

	payload := map[string]any{
		"id":      j.ID(),
		"kind":    j.Kind(),
		"state":   out.State,
		"partial": out.Partial,
	}
	var hist census.Histogram
	switch v := out.Value.(type) {
	case *census.Result:
		payload["result"] = v
		hist = v.Histogram
	case census.Histogram:
		// A cancelled job whose freshest partial is a periodic
		// checkpoint (the runner died before returning one).
		payload["result"] = map[string]any{"histogram": v, "subgraphs": v.Total()}
		hist = v
	default:
		payload["result"] = v
	}

	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for _, key := range hist.Keys() {
			line := map[string]any{"key": key, "count": hist[key]}
			if name := census.ClassName(key); name != "" {
				line["class"] = name
			}
			enc.Encode(line)
		}
		enc.Encode(map[string]any{"summary": payload})
		return
	}
	writeJSON(w, http.StatusOK, payload)
}
