package harness

import (
	"fmt"
	"strings"

	"rads/internal/engine"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// CountParity runs every registered engine on p over the given graph
// (partitioned across machines with the deterministic KWay seed) and
// checks each count against the single-machine oracle. It is the
// dataset smoke check of CI: an ingested .radsgraph must produce
// oracle-identical counts from every engine, or the run fails. The
// returned table reports one row per engine either way.
func CountParity(store *graph.Graph, datasetName string, p *pattern.Pattern, machines int) (*Table, error) {
	part := partition.KWay(store, machines, 7)
	want := localenum.Count(store, p, localenum.Options{})
	t := &Table{
		Title:  fmt.Sprintf("engine count parity: %s on %s (m=%d, oracle=%d)", p.Name, datasetName, machines, want),
		Header: []string{"engine", "count", "oracle", "time(s)", "verdict"},
	}
	var bad []string
	for _, name := range engine.Names() {
		u := RunEngine(RunSpec{Engine: name, Dataset: datasetName, Part: part, Query: p})
		if u.Err != nil {
			t.AddRow(name, "-", fmt.Sprint(want), "-", "ERROR: "+u.Err.Error())
			bad = append(bad, fmt.Sprintf("%s: %v", name, u.Err))
			continue
		}
		verdict := "ok"
		if u.Total != want {
			verdict = "MISMATCH"
			bad = append(bad, fmt.Sprintf("%s counted %d, oracle %d", name, u.Total, want))
		}
		t.AddRow(name, fmt.Sprint(u.Total), fmt.Sprint(want), F(u.Seconds), verdict)
	}
	if len(bad) > 0 {
		return t, fmt.Errorf("harness: count parity failed on %s/%s: %s", datasetName, p.Name, strings.Join(bad, "; "))
	}
	return t, nil
}
