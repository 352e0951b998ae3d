package cluster

import (
	"testing"

	"rads/internal/graph"
)

// The two data-plane RPCs at the payload sizes the traced enum_tcp run
// shows as medians: a verifyE of 150 edges (97 % of them absent) and a
// fetchV of 9 vertices with average-degree lists. One loopback
// connection, one caller — the per-message constant, not throughput.
func benchTCPCall(b *testing.B, req Message, resp Message) {
	tr, err := NewTCPTransport(2, NewMetrics(2))
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	tr.Register(1, func(int, Message) (Message, error) { return resp, nil })
	if _, err := tr.Call(0, 1, req); err != nil { // dial outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Call(0, 1, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCallVerifyE(b *testing.B) {
	req := &VerifyERequest{Edges: make([]graph.Edge, 150)}
	resp := &VerifyEResponse{Exists: make([]bool, 150)}
	for i := range req.Edges {
		req.Edges[i] = graph.Edge{U: graph.VertexID(100 + i/6), V: graph.VertexID(1200 + 7*i)}
		resp.Exists[i] = i%33 == 0
	}
	benchTCPCall(b, req, resp)
}

func BenchmarkTCPCallFetchV(b *testing.B) {
	req := &FetchVRequest{Vertices: make([]graph.VertexID, 9)}
	resp := &FetchVResponse{Adj: make([][]graph.VertexID, 9)}
	for i := range req.Vertices {
		req.Vertices[i] = graph.VertexID(37 * i)
		resp.Adj[i] = make([]graph.VertexID, 4+2*i) // mean 12, the fixture's pivots skew above its average degree 8
		for j := range resp.Adj[i] {
			resp.Adj[i][j] = graph.VertexID(11*j + i)
		}
	}
	benchTCPCall(b, req, resp)
}
