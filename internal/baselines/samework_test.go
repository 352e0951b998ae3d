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
		{"psgl", "q1", 0, false, work{1363, 51799, 4, 444104, 48, 665316}},
		{"psgl", "q1", mib, false, work{1363, 51799, 4, 444104, 48, 665316}},
		{"psgl", "q2", 0, false, work{13381, 24707, 4, 198680, 60, 255648}},
		{"psgl", "q2", mib, false, work{13381, 24707, 4, 198680, 60, 255648}},
		{"psgl", "q3", 0, false, work{10024, 369836, 5, 3960144, 60, 6165520}},
		{"psgl", "q3", mib, true, work{}},
		{"psgl", "q4", 0, false, work{13576, 272490, 5, 3052484, 84, 3202608}},
		{"psgl", "q4", mib, true, work{}},
		{"psgl", "cq1", 0, false, work{29, 11269, 4, 83310, 58, 51812}},
		{"psgl", "cq1", mib, false, work{29, 11269, 4, 83310, 58, 51812}},
		{"psgl", "cq2", 0, false, work{2933, 21559, 5, 175875, 83, 104464}},
		{"psgl", "cq2", mib, false, work{2933, 21559, 5, 175875, 83, 104464}},
		{"bigjoin", "q1", 0, false, work{1363, 53162, 4, 659172, 60, 671652}},
		{"bigjoin", "q1", mib, false, work{1363, 53162, 4, 659172, 60, 671652}},
		{"bigjoin", "q2", 0, false, work{13381, 25381, 4, 213428, 72, 193364}},
		{"bigjoin", "q2", mib, false, work{13381, 25381, 4, 213428, 72, 193364}},
		{"bigjoin", "q3", 0, false, work{10024, 379860, 5, 6195276, 72, 6189572}},
		{"bigjoin", "q3", mib, true, work{}},
		{"bigjoin", "q4", 0, false, work{13576, 286730, 5, 4209252, 108, 3205772}},
		{"bigjoin", "q4", mib, true, work{}},
		{"bigjoin", "cq1", 0, false, work{29, 11804, 4, 103271, 87, 76052}},
		{"bigjoin", "cq1", mib, false, work{29, 11804, 4, 103271, 87, 76052}},
		{"bigjoin", "cq2", 0, false, work{2933, 23180, 5, 214978, 118, 118552}},
		{"bigjoin", "cq2", mib, false, work{2933, 23180, 5, 214978, 118, 118552}},
		{"twintwig", "q1", 0, false, work{1363, 59483, 3, 825400, 48, 373744}},
		{"twintwig", "q1", mib, false, work{1363, 59483, 3, 825400, 48, 373744}},
		{"twintwig", "q2", 0, false, work{13381, 207092, 3, 3084328, 48, 2052024}},
		{"twintwig", "q2", mib, true, work{}},
		{"twintwig", "q3", 0, false, work{10024, 369982, 4, 6432116, 72, 2732628}},
		{"twintwig", "q3", mib, true, work{}},
		{"twintwig", "q4", 0, false, work{13576, 254619, 4, 4374620, 72, 2852656}},
		{"twintwig", "q4", mib, true, work{}},
		{"twintwig", "cq1", 0, false, work{29, 38117, 3, 462568, 48, 243600}},
		{"twintwig", "cq1", mib, false, work{29, 38117, 3, 462568, 48, 243600}},
		{"twintwig", "cq2", 0, false, work{2933, 1607947, 4, 28652456, 72, 25450688}},
		{"twintwig", "cq2", mib, true, work{}},
		{"seed", "q1", 0, false, work{1363, 29884, 2, 357720, 24, 285720}},
		{"seed", "q1", mib, false, work{1363, 29884, 2, 357720, 24, 285720}},
		{"seed", "q2", 0, false, work{13381, 2632, 2, 29228, 24, 135664}},
		{"seed", "q2", mib, false, work{13381, 2632, 2, 29228, 24, 135664}},
		{"seed", "q3", 0, false, work{10024, 340383, 3, 5925896, 48, 2565904}},
		{"seed", "q3", mib, true, work{}},
		{"seed", "q4", 0, false, work{13576, 172152, 3, 2994968, 48, 1851672}},
		{"seed", "q4", mib, true, work{}},
		{"seed", "cq1", 0, false, work{29, 0, 1, 0, 0, 10080}},
		{"seed", "cq1", mib, false, work{29, 0, 1, 0, 0, 10080}},
		{"seed", "cq2", 0, false, work{2933, 1860, 2, 21513, 21, 43968}},
		{"seed", "cq2", mib, false, work{2933, 1860, 2, 21513, 21, 43968}},
		{"crystal", "q1", 0, false, work{1363, 1494, 1, 31728, 12, 166428}},
		{"crystal", "q1", mib, false, work{1363, 1494, 1, 31728, 12, 166428}},
		{"crystal", "q2", 0, false, work{13381, 680, 1, 41568, 12, 43888}},
		{"crystal", "q2", mib, false, work{13381, 680, 1, 41568, 12, 43888}},
		{"crystal", "q3", 0, false, work{10024, 9603, 1, 228136, 12, 1910212}},
		{"crystal", "q3", mib, true, work{}},
		{"crystal", "q4", 0, false, work{13576, 2698, 1, 72948, 12, 221700}},
		{"crystal", "q4", mib, false, work{13576, 2698, 1, 72948, 12, 221700}},
		{"crystal", "cq1", 0, false, work{29, 78, 1, 1052, 8, 16616}},
		{"crystal", "cq1", mib, false, work{29, 78, 1, 1052, 8, 16616}},
		{"crystal", "cq2", 0, false, work{2933, 234, 1, 17607, 11, 39196}},
		{"crystal", "cq2", mib, false, work{2933, 234, 1, 17607, 11, 39196}},
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
