package baselines_test

import (
	"errors"
	"fmt"
	"testing"

	"rads/internal/baselines/common"
	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// work is the deterministic part of a baseline result: everything but
// the elapsed time.
type work struct {
	Total, Rows       int64
	Rounds            int
	Bytes, Msgs, Peak int64
}

// TestBaselinesSameWork pins the work every shuffle baseline does on
// one fixture: totals, shuffled rows, rounds, traffic and the budget
// peak of every completed run, and the verdict of every run a 1 MiB
// budget kills. A refactor of the shared dataflow must leave every
// figure as it is, because the charge/release order decides both the
// peak and which runs die.
func TestBaselinesSameWork(t *testing.T) {
	const mib = 1 << 20
	cells := []struct {
		engine, query string
		limit         int64
		oom           bool
		want          work
	}{
		{"psgl", "q1", 0, false, work{1363, 7994, 4, 72184, 60, 64128}},
		{"psgl", "q1", mib, false, work{1363, 7994, 4, 72184, 60, 64128}},
		{"psgl", "q2", 0, false, work{13381, 24292, 4, 203912, 60, 255648}},
		{"psgl", "q2", mib, false, work{13381, 24292, 4, 203912, 60, 255648}},
		{"psgl", "q3", 0, false, work{10024, 86311, 5, 974556, 84, 1380664}},
		{"psgl", "q3", mib, true, work{}},
		{"psgl", "q4", 0, false, work{13576, 248461, 5, 2778760, 84, 4281056}},
		{"psgl", "q4", mib, true, work{}},
		{"psgl", "cq1", 0, false, work{29, 2483, 4, 16265, 57, 11020}},
		{"psgl", "cq1", mib, false, work{29, 2483, 4, 16265, 57, 11020}},
		{"psgl", "cq2", 0, false, work{2933, 13988, 5, 120794, 82, 67840}},
		{"psgl", "cq2", mib, false, work{2933, 13988, 5, 120794, 82, 67840}},
		{"bigjoin", "q1", 0, false, work{1363, 9357, 4, 100512, 72, 62376}},
		{"bigjoin", "q1", mib, false, work{1363, 9357, 4, 100512, 72, 62376}},
		{"bigjoin", "q2", 0, false, work{13381, 24966, 4, 204980, 72, 193364}},
		{"bigjoin", "q2", mib, false, work{13381, 24966, 4, 204980, 72, 193364}},
		{"bigjoin", "q3", 0, false, work{10024, 96335, 5, 1482336, 96, 1385200}},
		{"bigjoin", "q3", mib, true, work{}},
		{"bigjoin", "q4", 0, false, work{13576, 262701, 5, 4024672, 108, 4290716}},
		{"bigjoin", "q4", mib, true, work{}},
		{"bigjoin", "cq1", 0, false, work{29, 2779, 4, 19872, 84, 8472}},
		{"bigjoin", "cq1", mib, false, work{29, 2779, 4, 19872, 84, 8472}},
		{"bigjoin", "cq2", 0, false, work{2933, 14995, 5, 128300, 116, 69440}},
		{"bigjoin", "cq2", mib, false, work{2933, 14995, 5, 128300, 116, 69440}},
		{"twintwig", "q1", 0, false, work{1363, 22219, 3, 269300, 48, 146880}},
		{"twintwig", "q1", mib, false, work{1363, 22219, 3, 269300, 48, 146880}},
		{"twintwig", "q2", 0, false, work{13381, 207092, 3, 3084328, 48, 2052024}},
		{"twintwig", "q2", mib, true, work{}},
		{"twintwig", "q3", 0, false, work{10024, 63878, 4, 1019816, 72, 379428}},
		{"twintwig", "q3", mib, false, work{10024, 63878, 4, 1019816, 72, 379428}},
		{"twintwig", "q4", 0, false, work{13576, 266221, 4, 4548704, 72, 2085784}},
		{"twintwig", "q4", mib, true, work{}},
		{"twintwig", "cq1", 0, false, work{29, 36747, 3, 441568, 48, 243600}},
		{"twintwig", "cq1", mib, false, work{29, 36747, 3, 441568, 48, 243600}},
		{"twintwig", "cq2", 0, false, work{2933, 1594100, 4, 28455296, 72, 25450688}},
		{"twintwig", "cq2", mib, true, work{}},
		{"seed", "q1", 0, false, work{1363, 29884, 2, 357720, 24, 285720}},
		{"seed", "q1", mib, false, work{1363, 29884, 2, 357720, 24, 285720}},
		{"seed", "q2", 0, false, work{13381, 2632, 2, 29228, 24, 135664}},
		{"seed", "q2", mib, false, work{13381, 2632, 2, 29228, 24, 135664}},
		{"seed", "q3", 0, false, work{10024, 71543, 3, 1086152, 48, 523836}},
		{"seed", "q3", mib, false, work{10024, 71543, 3, 1086152, 48, 523836}},
		{"seed", "q4", 0, false, work{13576, 82084, 3, 1374416, 48, 634876}},
		{"seed", "q4", mib, false, work{13576, 82084, 3, 1374416, 48, 634876}},
		{"seed", "cq1", 0, false, work{29, 0, 1, 0, 0, 10080}},
		{"seed", "cq1", mib, false, work{29, 0, 1, 0, 0, 10080}},
		{"seed", "cq2", 0, false, work{2933, 1860, 2, 21513, 21, 43968}},
		{"seed", "cq2", mib, false, work{2933, 1860, 2, 21513, 21, 43968}},
		{"crystal", "q1", 0, false, work{1363, 2153, 1, 42424, 12, 167860}},
		{"crystal", "q1", mib, false, work{1363, 2153, 1, 42424, 12, 167860}},
		{"crystal", "q2", 0, false, work{13381, 680, 1, 41568, 12, 39568}},
		{"crystal", "q2", mib, false, work{13381, 680, 1, 41568, 12, 39568}},
		{"crystal", "q3", 0, false, work{10024, 16745, 1, 370964, 12, 1917564}},
		{"crystal", "q3", mib, true, work{}},
		{"crystal", "q4", 0, false, work{13576, 1548, 1, 58272, 12, 181708}},
		{"crystal", "q4", mib, false, work{13576, 1548, 1, 58272, 12, 181708}},
		{"crystal", "cq1", 0, false, work{29, 78, 1, 1613, 9, 16568}},
		{"crystal", "cq1", mib, false, work{29, 78, 1, 1613, 9, 16568}},
		{"crystal", "cq2", 0, false, work{2933, 234, 1, 17607, 11, 36016}},
		{"crystal", "cq2", mib, false, work{2933, 234, 1, 17607, 11, 36016}},
	}
	g := gen.PowerLaw(300, 5, 2.5, 30, 1)
	part := partition.KWay(g, 4, 7)
	for _, c := range cells {
		// -short keeps q1 and q2: every engine completes a run and
		// TwinTwig q2 dies under 1 MiB, without TwinTwig's 1.6 M-row cq2.
		if testing.Short() && c.query != "q1" && c.query != "q2" {
			continue
		}
		t.Run(fmt.Sprintf("%s/%s/%d", c.engine, c.query, c.limit), func(t *testing.T) {
			budget := cluster.NewMemBudget(4, c.limit)
			res, err := engines()[c.engine](part, pattern.ByName(c.query), common.Config{Budget: budget})
			if c.oom {
				if !errors.Is(err, cluster.ErrOutOfMemory) {
					t.Fatalf("err = %v, want ErrOutOfMemory", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := work{res.Total, res.IntermediateRows, res.Rounds, res.CommBytes, res.CommMessages, res.PeakMemBytes}
			if got != c.want {
				t.Errorf("work = %+v, want %+v", got, c.want)
			}
		})
	}
}
