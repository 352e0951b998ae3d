package rads

import (
	"errors"
	"slices"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// TestGroupStateReuse drives every machine's region groups through
// processGroup by hand. Run again, a machine's groups reuse the states
// the first run gave back, so past what its verifyE exchanges carry the
// run allocates at most a small constant. A group that fails its budget
// keeps its state out of the machine's reuse list, and the groups run
// again at a sufficient budget — then across a worker pool, whose
// workers take and give back states at once — still count what the
// oracle counts, and the pool reuses states too: a machine ends with at
// least one state and no more than it has workers.
func TestGroupStateReuse(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 3, 7)
	p := pattern.ByName("q4")
	want := oracleCount(g, p)
	const limit = 1 << 30
	budget := cluster.NewMemBudget(part.M, limit)
	metrics := cluster.NewMetrics(part.M)
	e := hostedEngine(t, part, p, Config{
		Workers: 1, DisableSME: true, // every candidate through region groups
		Budget:  budget,
		Metrics: metrics, Transport: cluster.NewLocalTransport(metrics),
	})
	e.segment = 32 // several groups a machine, several segments a group
	groups := make([][][]graph.VertexID, part.M)
	for i, m := range e.machines {
		_, c2 := m.splitCandidates()
		groups[i] = m.regionGroups(c2)
	}
	runGroups := func(m *machine) error {
		for _, grp := range groups[m.id] {
			if err := m.processGroup(grp, 0); err != nil {
				return err
			}
		}
		return nil
	}
	// count runs every machine's groups once and returns what they found.
	count := func(run func(m *machine) error) int64 {
		t.Helper()
		var found int64
		for _, m := range e.machines {
			before := m.Distributed
			if err := run(m); err != nil {
				t.Fatalf("machine %d: %v", m.id, err)
			}
			found += m.Distributed - before
		}
		return found
	}
	clean := func(m *machine) {
		t.Helper()
		for _, st := range m.states {
			if st.trie.NodeCount() != 0 || len(st.pinLog)+len(st.pullLog) != 0 || st.evi.Len() != 0 {
				t.Fatalf("machine %d keeps a state that is not clean: %d trie nodes, %d pins, %d edges",
					m.id, st.trie.NodeCount(), len(st.pinLog)+len(st.pullLog), st.evi.Len())
			}
			if st.Counters != (Counters{}) || st.chargedTrie != 0 || st.flushNodes != 0 {
				t.Fatalf("machine %d keeps a state that is not reset: counters %+v, charged %d, flushNodes %d",
					m.id, st.Counters, st.chargedTrie, st.flushNodes)
			}
		}
	}

	if got := count(runGroups); got != want {
		t.Fatalf("first run counted %d, oracle %d", got, want)
	}
	m := e.machines[0]
	if len(groups[0]) < 2 || len(m.states) != 1 {
		t.Fatalf("machine 0: %d groups left %d states to reuse; want ≥ 2 groups and one state", len(groups[0]), len(m.states))
	}
	clean(m)

	// The first rerun finds every list it needs cached; from then on a
	// run repeats the same exchanges.
	calls := metrics.MessagesByKind()["verifyE"]
	if err := runGroups(m); err != nil {
		t.Fatal(err)
	}
	calls = metrics.MessagesByKind()["verifyE"] - calls
	if calls == 0 {
		t.Fatal("machine 0 asks nothing of verifyE; the test needs a cold-cache graph")
	}
	const slack = 4
	if allocs := testing.AllocsPerRun(2, func() {
		if err := runGroups(m); err != nil {
			t.Fatal(err)
		}
	}); allocs > float64(3*calls+slack) {
		t.Errorf("a warm run of %d groups allocates %v, want ≤ 3 per verifyE exchange (%d) + %d", len(groups[0]), allocs, calls, slack)
	}

	// No room at all: the first group fails its first charge.
	m.view.dropAll()
	ballast := limit - budget.Used(m.id)
	if err := budget.Charge(m.id, ballast); err != nil {
		t.Fatal(err)
	}
	pool := slices.Clone(m.states)
	failed := pool[len(pool)-1] // takeState hands out the last one
	if err := m.processGroup(groups[0][0], 0); !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("group under a full budget: %v, want ErrOutOfMemory", err)
	}
	if slices.Contains(m.states, failed) || len(m.states) != len(pool)-1 {
		t.Fatalf("after a failed group the machine keeps %d states (had %d), the failed one among them: %v",
			len(m.states), len(pool), slices.Contains(m.states, failed))
	}
	clean(m)
	budget.Release(m.id, ballast)
	if got := count(runGroups); got != want {
		t.Errorf("after a failed group, counted %d, oracle %d", got, want)
	}

	e.cfg.Workers = 4
	pooled := func(m *machine) error {
		m.queue.Fill(groups[m.id])
		return m.processGroups()
	}
	if got := count(pooled); got != want {
		t.Errorf("four workers: counted %d, oracle %d", got, want)
	}
	for _, m := range e.machines {
		clean(m)
		if len(m.states) == 0 || len(m.states) > e.cfg.Workers {
			t.Errorf("machine %d: %d groups on %d workers left %d states, want 1 to one a worker",
				m.id, len(groups[m.id]), e.cfg.Workers, len(m.states))
		}
	}
	if len(groups[0]) <= e.cfg.Workers {
		t.Errorf("machine 0 has %d groups for %d workers; the pool needs more to reuse a state", len(groups[0]), e.cfg.Workers)
	}
}
