package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SeriesSnapshot is one frozen series of a family. Counter-typed
// series carry Int, gauge-typed ones Float, histograms the full bucket
// layout. All fields are exported plain data so the snapshot crosses
// the gob wire between a worker and its coordinator unchanged.
type SeriesSnapshot struct {
	// Label is the series' label value ("" for the unlabeled series of
	// a plain counter/gauge/histogram family).
	Label string
	Int   int64
	Float float64
	// Histogram layout: per-slot (non-cumulative) counts, one more slot
	// than Bounds for the +Inf overflow.
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// FamilySnapshot is one metric family frozen at a point in time —
// what a statsPull RPC ships. Func-backed families are evaluated at
// snapshot time, so the snapshot carries real values, not closures.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", "histogram"
	Label  string // label name, "" for unlabeled families
	Series []SeriesSnapshot
}

// Export freezes every family in the registry. Series within a family
// are sorted by label value, families by name, so the snapshot is
// deterministic and diffable.
func (r *Registry) Export() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fam))
	for _, f := range r.fam {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Label: f.label}
	switch f.kind {
	case "counter":
		fs.Series = []SeriesSnapshot{{Int: f.counter.Value()}}
	case "counterfunc":
		fs.Series = []SeriesSnapshot{{Int: f.counterFn()}}
	case "gauge":
		fs.Series = []SeriesSnapshot{{Float: f.gauge.Value()}}
	case "gaugefunc":
		fs.Series = []SeriesSnapshot{{Float: f.gaugeFn()}}
	case "histogram":
		fs.Series = []SeriesSnapshot{snapshotHistogram("", f.hist)}
	case "countervec":
		for _, k := range sortedKeys(f.cvec) {
			fs.Series = append(fs.Series, SeriesSnapshot{Label: k, Int: f.cvec[k].Value()})
		}
	case "countervecfunc":
		vals := f.cvecFn()
		for _, k := range sortedKeys(vals) {
			fs.Series = append(fs.Series, SeriesSnapshot{Label: k, Int: vals[k]})
		}
	case "gaugevecfunc":
		vals := f.gvecFn()
		for _, k := range sortedKeys(vals) {
			fs.Series = append(fs.Series, SeriesSnapshot{Label: k, Float: vals[k]})
		}
	case "histogramvec":
		for _, k := range sortedKeys(f.hvec) {
			fs.Series = append(fs.Series, snapshotHistogram(k, f.hvec[k]))
		}
	}
	return fs
}

func snapshotHistogram(label string, h *Histogram) SeriesSnapshot {
	s := SeriesSnapshot{
		Label:  label,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// SnapshotCounter looks up a counter series in an exported snapshot:
// the unlabeled series when label is "", the matching labeled series
// otherwise. The second result reports whether it was found.
func SnapshotCounter(fams []FamilySnapshot, name, label string) (int64, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Label == label {
				return s.Int, true
			}
		}
	}
	return 0, false
}

// MachineFamilies is one machine's exported registry, as pulled by the
// coordinator over statsPull.
type MachineFamilies struct {
	Machine  int
	Families []FamilySnapshot
}

// WriteFleet renders a merged Prometheus text view of the
// coordinator's local registry plus per-machine worker snapshots: one
// HELP/TYPE block per family name, the coordinator's own series
// unlabeled (exactly as /metrics shows them) followed by each worker's
// series with a machine="N" label prepended — worker families never
// clobber coordinator-local ones, they coexist under the extra label.
func WriteFleet(w io.Writer, local *Registry, fleet []MachineFamilies) error {
	type famGroup struct {
		help, typ, label string
		local            []SeriesSnapshot
		remote           []MachineFamilies // per machine, only this family
	}
	groups := make(map[string]*famGroup)
	order := []string{}
	get := func(fs FamilySnapshot) *famGroup {
		g, ok := groups[fs.Name]
		if !ok {
			g = &famGroup{help: fs.Help, typ: fs.Type, label: fs.Label}
			groups[fs.Name] = g
			order = append(order, fs.Name)
		}
		return g
	}
	if local != nil {
		for _, fs := range local.Export() {
			get(fs).local = fs.Series
		}
	}
	for _, mf := range fleet {
		for _, fs := range mf.Families {
			g := get(fs)
			g.remote = append(g.remote, MachineFamilies{Machine: mf.Machine, Families: []FamilySnapshot{fs}})
		}
	}
	sort.Strings(order)

	var b strings.Builder
	for _, name := range order {
		g := groups[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(g.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, g.typ)
		for _, s := range g.local {
			writeSeries(&b, name, g.typ, "", g.label, s)
		}
		sort.Slice(g.remote, func(i, j int) bool { return g.remote[i].Machine < g.remote[j].Machine })
		for _, mf := range g.remote {
			machineLbl := fmt.Sprintf("machine=%q", fmt.Sprint(mf.Machine))
			fs := mf.Families[0]
			for _, s := range fs.Series {
				writeSeries(&b, name, g.typ, machineLbl, fs.Label, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series. prefix is "" or a ready-made
// `machine="N"` label; label is the family's label name ("" for
// unlabeled series).
func writeSeries(b *strings.Builder, name, typ, prefix, label string, s SeriesSnapshot) {
	lbl := prefix
	if label != "" {
		kv := fmt.Sprintf("%s=%q", label, s.Label)
		if lbl != "" {
			lbl += "," + kv
		} else {
			lbl = kv
		}
	}
	if typ == "histogram" {
		bucketPrefix := ""
		sumLabels := ""
		if lbl != "" {
			bucketPrefix = lbl + ","
			sumLabels = "{" + lbl + "}"
		}
		cum := int64(0)
		for i, bound := range s.Bounds {
			if i < len(s.Counts) {
				cum += s.Counts[i]
			}
			fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, bucketPrefix, fmtFloat(bound), cum)
		}
		if len(s.Counts) > len(s.Bounds) {
			cum += s.Counts[len(s.Bounds)]
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketPrefix, cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", name, sumLabels, fmtFloat(s.Sum))
		fmt.Fprintf(b, "%s_count%s %d\n", name, sumLabels, s.Count)
		return
	}
	val := fmtFloat(s.Float)
	if typ == "counter" {
		val = fmt.Sprintf("%d", s.Int)
	}
	if lbl != "" {
		fmt.Fprintf(b, "%s{%s} %s\n", name, lbl, val)
	} else {
		fmt.Fprintf(b, "%s %s\n", name, val)
	}
}
