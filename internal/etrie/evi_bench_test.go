package etrie

import "testing"

// BenchmarkEVISegment is the index's share of one verify segment, in
// the two shapes the benchmark fixture produces: the budgeted one (570
// registrations over ~230 edges, 97 % of which fail — the per-segment
// medians of enum_tcp) and the unbudgeted one (50 000 registrations in
// one segment, each edge registered many times). The index is reused
// across segments, as a region group reuses it.
func BenchmarkEVISegment(b *testing.B) {
	for _, shape := range []struct {
		name          string
		leaves, edges int
	}{
		{"budgeted_570x230", 570, 230},
		{"unbudgeted_50000x4000", 50_000, 4000},
	} {
		b.Run(shape.name, func(b *testing.B) {
			t, leaves, edges := segmentFixture(shape.leaves, shape.edges)
			evi := NewEVI()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eviSegment(evi, t, leaves, edges, 33)
				b.StopTimer()
				recycle(t, leaves)
				b.StartTimer()
			}
		})
	}
}
