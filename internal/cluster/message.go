// Package cluster is the distributed substrate of the reproduction: it
// models the paper's cluster of machines exchanging daemon requests
// (Section 3.1: verifyE, fetchV, checkR, shareR) over a pluggable
// Transport. Two transports are provided: an in-process one used by
// the experiment harness (every machine is a goroutine; every byte
// that would cross the network is still counted), and a real TCP
// transport carrying length-prefixed frames — the data plane
// hand-encoded in the fixed widths ByteSize accounts, the control plane
// as gob payloads (frame.go) — demonstrating that the protocol is
// genuinely serializable (TestRunOverTCP in internal/rads).
//
// The paper implements this layer with MPICH2 + Boost.Asio; the
// substitution and the wire format are documented in README.md
// ("Deployment", "Wire format"). What the evaluation measures — message
// counts, exchanged bytes, asynchronous progress — is preserved by
// construction.
package cluster

import (
	"rads/internal/graph"
)

// Message is any payload exchanged between machines. ByteSize is the
// accounted wire size in bytes, used for the paper's communication-cost
// metrics; for the eight data-plane messages it is exactly the payload
// the TCP transport puts in a frame.
type Message interface {
	ByteSize() int
}

// Accounted widths. The first three are exported for RADS's pull rule,
// which prices a verifyE edge against a fetchV list in these bytes.
const (
	VertexWire = 4 // bytes per vertex ID on the wire
	EdgeWire   = 8 // bytes per edge (two vertex IDs)
	BoolWire   = 1
	intWire    = 8
)

// VerifyERequest asks the target machine to check the existence of data
// edges it can see (daemon functionality (1)).
type VerifyERequest struct {
	Edges []graph.Edge
}

func (r *VerifyERequest) ByteSize() int { return len(r.Edges) * EdgeWire }

// VerifyEResponse carries one existence bit per requested edge.
type VerifyEResponse struct {
	Exists []bool
}

func (r *VerifyEResponse) ByteSize() int { return len(r.Exists) * BoolWire }

// FetchVRequest asks for the adjacency lists of vertices owned by the
// target machine (daemon functionality (2)).
type FetchVRequest struct {
	Vertices []graph.VertexID
}

func (r *FetchVRequest) ByteSize() int { return len(r.Vertices) * VertexWire }

// FetchVResponse returns one adjacency list per requested vertex.
type FetchVResponse struct {
	Adj [][]graph.VertexID
}

func (r *FetchVResponse) ByteSize() int {
	n := 0
	for _, a := range r.Adj {
		n += VertexWire * (len(a) + 1) // list plus its length header
	}
	return n
}

// CheckRRequest asks how many region groups remain unprocessed
// (daemon functionality (3), used for load balancing).
type CheckRRequest struct{}

func (r *CheckRRequest) ByteSize() int { return 1 }

// CheckRResponse reports the number of unprocessed region groups.
type CheckRResponse struct {
	Unprocessed int
}

func (r *CheckRResponse) ByteSize() int { return intWire }

// ShareRRequest asks the target to give away one unprocessed region
// group (daemon functionality (4)).
type ShareRRequest struct{}

func (r *ShareRRequest) ByteSize() int { return 1 }

// ShareRResponse carries a stolen region group; OK is false when the
// target had none left.
type ShareRResponse struct {
	OK    bool
	Group []graph.VertexID
}

func (r *ShareRResponse) ByteSize() int { return BoolWire + len(r.Group)*VertexWire }

// ShuffleRequest delivers a batch of partial-embedding rows to the
// target machine. The join- and exploration-based baselines (TwinTwig,
// SEED, PSgL, BigJoin) exchange intermediate results with it; RADS
// never uses it — that asymmetry *is* the paper's point.
type ShuffleRequest struct {
	Round int
	Rows  [][]graph.VertexID
}

func (r *ShuffleRequest) ByteSize() int {
	n := intWire
	for _, row := range r.Rows {
		n += VertexWire * (len(row) + 1)
	}
	return n
}

// ShuffleResponse acknowledges a shuffle batch.
type ShuffleResponse struct{}

func (r *ShuffleResponse) ByteSize() int { return 1 }

// PingRequest is a liveness probe: a coordinator sends it to verify a
// machine's daemon is hosted and reachable before routing queries.
type PingRequest struct{}

func (r *PingRequest) ByteSize() int { return 1 }

// WireContract numbers what the messages between a coordinator and its
// workers mean: the frame layouts of this package and the control-plane
// messages of the packages above it (rads.RunQueryRequest and its
// reply). Bump it with any change a peer built at the old number would
// misread or silently ignore; a worker reports it in every ping, and
// the coordinator refuses a fleet whose workers report another.
const WireContract uint64 = 3

// PingResponse reports the responding machine's identity, the wire
// contract it was built to and a fingerprint of the partition it hosts,
// so a misrouted address book, a worker from another build or workers
// booted from a different snapshot than the coordinator are caught at
// startup rather than surfacing as silently inconsistent query results.
type PingResponse struct {
	Machine int
	// Vertices is the global vertex count of the hosted partition.
	Vertices int
	// PartitionHash fingerprints the ownership vector (see
	// rads.PartitionFingerprint); equal hashes mean the same
	// vertex-to-machine assignment.
	PartitionHash uint64
	// Contract is the responder's WireContract.
	Contract uint64
}

func (r *PingResponse) ByteSize() int { return 4 * intWire }

// Handler serves requests arriving at one machine — the paper's daemon
// thread. Implementations must be safe for concurrent calls.
type Handler func(from int, req Message) (Message, error)

// Transport delivers requests between machines.
type Transport interface {
	// Register installs the daemon handler for machine id.
	Register(id int, h Handler)
	// Call sends req from machine `from` to machine `to` and waits for
	// the response.
	Call(from, to int, req Message) (Message, error)
	// Close releases transport resources.
	Close() error
}
