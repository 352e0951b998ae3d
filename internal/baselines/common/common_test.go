package common

import (
	"context"
	"errors"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

func TestInboxPutDrain(t *testing.T) {
	in := &inbox{}
	in.put(1, []Row{{1, 2}, {3}})
	in.put(1, []Row{{4}})
	in.put(2, []Row{{5}})
	rows := in.drain(1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(in.drain(1)) != 0 {
		t.Error("second drain should be empty")
	}
	if rows := in.drain(2); len(rows) != 1 || rows[0][0] != 5 {
		t.Errorf("next superstep's rows = %v", rows)
	}
}

func TestRuntimeShuffleDelivers(t *testing.T) {
	budget := cluster.NewMemBudget(3, 0)
	rt := NewRuntime(3, Config{Budget: budget})
	defer rt.Close()
	err := rt.Superstep(func(id int) error {
		if id != 0 {
			return nil
		}
		// Route by the row's first vertex: 10 → 1, 20/21 → 2, 30 → 0
		// (self: local hand-off).
		rows := []Row{{10, 7}, {20, 7}, {30, 7}, {21, 7}}
		return rt.Send(0, rows, func(row Row) int { return int(row[0]/10) % 3 })
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Row, 3)
	err = rt.Superstep(func(id int) (err error) {
		got[id], err = rt.Receive(id, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || got[1][0][0] != 10 {
		t.Errorf("inbox 1 = %v", got[1])
	}
	if len(got[2]) != 2 || got[2][0][0] != 20 || got[2][1][0] != 21 {
		t.Errorf("inbox 2 = %v", got[2])
	}
	if len(got[0]) != 1 || got[0][0][0] != 30 {
		t.Errorf("inbox 0 = %v", got[0])
	}
	// Receive charges what arrived, at the given width.
	for id, want := range []int64{1, 1, 2} {
		if used := budget.Used(id); used != want*RowBytes(2) {
			t.Errorf("machine %d: used = %d, want %d", id, used, want*RowBytes(2))
		}
	}
	// Self hand-off must not count as network traffic; every sent row
	// counts as shuffled.
	res := rt.Finish(got, 2, 2)
	if res.CommMessages != 2 || res.IntermediateRows != 4 || res.Total != 4 || res.Rounds != 2 {
		t.Errorf("result = %+v, want 2 messages, 4 rows, total 4, 2 rounds", res)
	}
	if res.PeakMemBytes != 2*RowBytes(2) {
		t.Errorf("peak = %d, want %d", res.PeakMemBytes, 2*RowBytes(2))
	}
	for id := 0; id < 3; id++ {
		if used := budget.Used(id); used != 0 {
			t.Errorf("machine %d: Finish left %d bytes charged", id, used)
		}
	}
}

func TestSuperstepPropagatesError(t *testing.T) {
	rt := NewRuntime(2, Config{})
	defer rt.Close()
	boom := errors.New("boom")
	err := rt.Superstep(func(id int) error {
		if id == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestChargerChunksAndReleases(t *testing.T) {
	budget := cluster.NewMemBudget(1, 1<<20)
	rt := NewRuntime(1, Config{Budget: budget})
	defer rt.Close()
	c := rt.NewCharger(0, 4)
	for i := 0; i < 100; i++ {
		if err := c.Add(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := budget.Used(0); got != 100*RowBytes(4) {
		t.Errorf("used = %d, want %d", got, 100*RowBytes(4))
	}
	c.ReleaseAll()
	if budget.Used(0) != 0 {
		t.Errorf("used after release = %d", budget.Used(0))
	}
}

func TestChargerAbortsMidProduction(t *testing.T) {
	budget := cluster.NewMemBudget(1, 10*RowBytes(4))
	rt := NewRuntime(1, Config{Budget: budget})
	defer rt.Close()
	c := rt.NewCharger(0, 4)
	var err error
	produced := 0
	for i := 0; i < 100000; i++ {
		if err = c.Add(1); err != nil {
			break
		}
		produced++
	}
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if produced >= 100000 {
		t.Error("charger never aborted")
	}
	c.ReleaseAll()
	if budget.Used(0) != 0 {
		t.Errorf("leak: used = %d", budget.Used(0))
	}
}

func TestRowBytes(t *testing.T) {
	if RowBytes(3) != 20 {
		t.Errorf("RowBytes(3) = %d, want 20", RowBytes(3))
	}
}

func TestConstraintChecker(t *testing.T) {
	p := pattern.Triangle() // constraints: u1<u0, u2<u0, u2<u1
	c := NewConstraintChecker(p)
	cases := []struct {
		f    []graph.VertexID
		want bool
	}{
		{[]graph.VertexID{3, 2, 1}, true},
		{[]graph.VertexID{3, 1, 2}, false},
		{[]graph.VertexID{-1, -1, 1}, true},  // unmatched ignored
		{[]graph.VertexID{3, -1, 5}, false},  // u2<u0 violated
		{[]graph.VertexID{-1, -1, -1}, true}, // nothing matched
	}
	for _, tc := range cases {
		if got := c.Check(tc.f); got != tc.want {
			t.Errorf("Check(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestOracleHelper(t *testing.T) {
	g := gen.Clique(4)
	if got := Oracle(g, pattern.Triangle()); got != 4 {
		t.Errorf("Oracle = %d, want 4", got)
	}
}

func TestSuperstepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := NewRuntime(2, Config{Context: ctx})
	defer rt.Close()
	if err := rt.Superstep(func(id int) error { return nil }); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	err := rt.Superstep(func(id int) error {
		t.Error("superstep body ran after cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRuntimeRejectsNonShuffle(t *testing.T) {
	rt := NewRuntime(2, Config{})
	defer rt.Close()
	if _, err := rt.Tr.Call(0, 1, &cluster.CheckRRequest{}); err == nil {
		t.Error("baseline machines must reject non-shuffle requests")
	}
}
