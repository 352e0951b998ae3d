package partition

import (
	"fmt"
	"strings"
)

// Quality summarizes how partition structure affects RADS. The paper's
// Exp-1 narrative — "most data vertices can be processed by SM-E, as
// such no network communication is required" — is a statement about
// these numbers: a locality-preserving partitioner (METIS there, KWay
// here) yields few border vertices and large border distances, so most
// candidates satisfy Proposition 1.
type Quality struct {
	Machines       int
	EdgeCut        int64   // edges with endpoints on different machines
	CutFraction    float64 // EdgeCut / |E|
	Balance        float64 // max part size / ideal part size
	BorderVertices int     // total border vertices across machines
	BorderFraction float64 // BorderVertices / |V|
}

// Measure computes the quality report for p.
func Measure(p *Partition) Quality {
	q := Quality{
		Machines: p.M,
		EdgeCut:  p.EdgeCut(),
		Balance:  p.Balance(),
	}
	if m := p.G.NumEdges(); m > 0 {
		q.CutFraction = float64(q.EdgeCut) / float64(m)
	}
	for _, d := range p.BD {
		if d == 0 {
			q.BorderVertices++
		}
	}
	if n := p.G.NumVertices(); n > 0 {
		q.BorderFraction = float64(q.BorderVertices) / float64(n)
	}
	return q
}

func (q Quality) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d cut=%d (%.1f%%) balance=%.2f border=%d (%.1f%%)",
		q.Machines, q.EdgeCut, 100*q.CutFraction, q.Balance,
		q.BorderVertices, 100*q.BorderFraction)
	return b.String()
}

// SMEFraction returns the fraction of data vertices whose border
// distance is at least span — exactly the candidates Proposition 1
// allows single-machine enumeration to handle when the starting query
// vertex has that span. This is the number the Section 4.2 heuristic
// (minimize the span of dp0.piv) tries to maximize.
func SMEFraction(p *Partition, span int) float64 {
	n := p.G.NumVertices()
	if n == 0 {
		return 0
	}
	eligible := 0
	for _, d := range p.BD {
		if int(d) >= span {
			eligible++
		}
	}
	return float64(eligible) / float64(n)
}

// BorderDistanceHistogram returns hist where hist[d] counts vertices
// with border distance exactly d, capped at maxD (all larger distances
// land in hist[maxD]). Vertices on machines with no border vertices
// (an entire component fits on one machine) count as >= maxD.
func BorderDistanceHistogram(p *Partition, maxD int) []int {
	hist := make([]int, maxD+1)
	for _, d := range p.BD {
		hist[min(int(d), maxD)]++
	}
	return hist
}
