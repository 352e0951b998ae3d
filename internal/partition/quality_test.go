package partition

import (
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
)

func TestMeasureSingleMachine(t *testing.T) {
	g := gen.Community(3, 10, 0.4, 1)
	p := KWay(g, 1, 1)
	q := Measure(p)
	if q.EdgeCut != 0 || q.CutFraction != 0 {
		t.Errorf("single machine has cut %d", q.EdgeCut)
	}
	if q.BorderVertices != 0 {
		t.Errorf("single machine has %d border vertices", q.BorderVertices)
	}
	if q.Balance != 1 {
		t.Errorf("single machine balance = %v", q.Balance)
	}
	if q.String() == "" {
		t.Error("empty String()")
	}
}

// TestQualityKWayBeatsHashOnLocality is the structural heart of Exp-1: a
// locality-preserving partitioner must produce a far smaller cut and
// border fraction than hash partitioning on a near-planar graph.
func TestQualityKWayBeatsHashOnLocality(t *testing.T) {
	g := gen.RoadNet(40, 40, 3)
	kq := Measure(KWay(g, 8, 1))
	hq := Measure(Hash(g, 8))
	if kq.CutFraction >= hq.CutFraction/2 {
		t.Errorf("KWay cut %.3f not well below Hash cut %.3f", kq.CutFraction, hq.CutFraction)
	}
	if kq.BorderFraction >= hq.BorderFraction {
		t.Errorf("KWay border fraction %.3f not below Hash %.3f",
			kq.BorderFraction, hq.BorderFraction)
	}
}

func TestSMEFractionMonotoneInSpan(t *testing.T) {
	g := gen.RoadNet(30, 30, 5)
	p := KWay(g, 4, 2)
	prev := 1.1
	for span := 0; span <= 5; span++ {
		f := SMEFraction(p, span)
		if f < 0 || f > 1 {
			t.Fatalf("span %d: fraction %v out of range", span, f)
		}
		if f > prev {
			t.Fatalf("span %d: fraction %v increased from %v", span, f, prev)
		}
		prev = f
	}
	// Span 0 admits everything.
	if f := SMEFraction(p, 0); f != 1 {
		t.Errorf("span 0 fraction = %v, want 1", f)
	}
}

func TestSMEFractionKWayVsHash(t *testing.T) {
	g := gen.RoadNet(40, 40, 7)
	span := 2
	kf := SMEFraction(KWay(g, 8, 1), span)
	hf := SMEFraction(Hash(g, 8), span)
	if kf <= hf {
		t.Errorf("KWay SME fraction %.3f not above Hash %.3f", kf, hf)
	}
	// On a road network with a good partitioner, the paper claims SM-E
	// dominates: most vertices should be eligible.
	if kf < 0.5 {
		t.Errorf("KWay SME fraction %.3f unexpectedly low on a road network", kf)
	}
}

func TestBorderDistanceHistogram(t *testing.T) {
	g := gen.RoadNet(20, 20, 9)
	p := KWay(g, 4, 3)
	maxD := 6
	hist := BorderDistanceHistogram(p, maxD)
	if len(hist) != maxD+1 {
		t.Fatalf("histogram has %d buckets, want %d", len(hist), maxD+1)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices() {
		t.Errorf("histogram sums to %d, want %d", total, g.NumVertices())
	}
	// hist[0] must equal the number of border vertices.
	border := 0
	for v := range p.BD {
		if isBorder(p, graph.VertexID(v)) {
			border++
		}
	}
	if hist[0] != border {
		t.Errorf("hist[0] = %d, border vertices = %d", hist[0], border)
	}
}

func TestBorderDistanceHistogramSingleMachine(t *testing.T) {
	g := gen.Community(2, 8, 0.5, 1)
	p := KWay(g, 1, 1)
	hist := BorderDistanceHistogram(p, 3)
	// No border vertices at all: everything lands in the top bucket.
	if hist[3] != g.NumVertices() {
		t.Errorf("top bucket = %d, want all %d vertices", hist[3], g.NumVertices())
	}
}

func TestMeasureConsistentWithPartitionMethods(t *testing.T) {
	g := gen.PowerLaw(500, 8, 2.5, 0, 4)
	for _, m := range []int{2, 5} {
		p := KWay(g, m, 6)
		q := Measure(p)
		if q.EdgeCut != p.EdgeCut() {
			t.Errorf("m=%d: Measure cut %d != EdgeCut %d", m, q.EdgeCut, p.EdgeCut())
		}
		if q.Balance != p.Balance() {
			t.Errorf("m=%d: Measure balance %v != Balance %v", m, q.Balance, p.Balance())
		}
		_ = graph.VertexID(0)
	}
}
