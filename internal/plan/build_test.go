package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rads/internal/pattern"
)

// catalogue is every named pattern: the Figure 7 and Figure 14 query
// sets and the two basics.
var catalogue = []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "cq1", "cq2", "cq3", "cq4", "triangle", "fig2"}

// tryBuild is Build with a panic turned into an error, so one case's
// panic reports as that case's failure.
func tryBuild(p *pattern.Pattern, units []Unit) (pl *Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			pl, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return Build(p, units)
}

// TestBuildRefusesMalformedUnits: a worker builds the plan it is sent
// with Build, so every malformed unit sequence must come back as an
// error, never a panic or a plan.
func TestBuildRefusesMalformedUnits(t *testing.T) {
	lf := func(vs ...pattern.VertexID) []pattern.VertexID { return vs }
	q1, cq1 := pattern.ByName("q1"), pattern.ByName("cq1")
	cases := []struct {
		name  string
		p     *pattern.Pattern
		units []Unit
	}{
		{"no units", q1, nil},
		{"empty unit list", q1, []Unit{}},
		{"empty leaf set", q1, []Unit{{Piv: 0, LF: nil}}},
		{"pivot 42", q1, []Unit{{Piv: 42, LF: lf(1, 3)}}},
		{"negative pivot", q1, []Unit{{Piv: -1, LF: lf(1, 3)}}},
		{"pivot N", q1, []Unit{{Piv: 4, LF: lf(1, 3)}}},
		{"later pivot out of range", q1, []Unit{{Piv: 0, LF: lf(1, 3)}, {Piv: 100, LF: lf(2)}}},
		{"leaf 42", q1, []Unit{{Piv: 0, LF: lf(1, 42)}}},
		{"negative leaf", q1, []Unit{{Piv: 0, LF: lf(1, -3)}}},
		{"most negative leaf", q1, []Unit{{Piv: 0, LF: lf(-128)}}},
		{"leaf repeated within a unit", cq1, []Unit{{Piv: 0, LF: lf(1, 2, 3, 1)}}},
		{"leaf repeated within a later unit", q1, []Unit{{Piv: 0, LF: lf(1)}, {Piv: 1, LF: lf(2, 2)}}},
	}
	for _, c := range cases {
		if pl, err := tryBuild(c.p, c.units); err == nil || pl != nil {
			t.Errorf("%s: Build returned %v, %v; want an error", c.name, pl, err)
		} else if !strings.HasPrefix(err.Error(), "plan: ") {
			t.Errorf("%s: %v; want a plan error", c.name, err)
		}
	}
}

// TestBuildReproducesPlanFromText pins what the wire relies on: a
// worker receives the pattern as text and the plan as its unit
// sequence, and Build on the parsed pattern must derive exactly the
// coordinator's plan.
func TestBuildReproducesPlanFromText(t *testing.T) {
	var plans []*Plan
	for _, name := range catalogue {
		p := pattern.ByName(name)
		pl, err := Compute(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans = append(plans, pl)
		rng := rand.New(rand.NewSource(int64(len(plans))))
		for i := 0; i < 3; i++ {
			for _, draw := range []func(*pattern.Pattern, *rand.Rand) (*Plan, error){RandomStar, RandomMinRound} {
				pl, err := draw(p, rng)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				plans = append(plans, pl)
			}
		}
	}
	for _, pl := range plans {
		p2, err := pattern.Parse(pattern.Format(pl.P))
		if err != nil {
			t.Fatalf("%s: %v", pl.P.Name, err)
		}
		got, err := Build(p2, pl.Units)
		if err != nil {
			t.Fatalf("%s: the shipped units do not build: %v", pl, err)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Order", got.Order, pl.Order},
			{"Pos", got.Pos, pl.Pos},
			{"Star", got.Star, pl.Star},
			{"Sib", got.Sib, pl.Sib},
			{"Cross", got.Cross, pl.Cross},
			{"PrefixLen", got.PrefixLen, pl.PrefixLen},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: rebuilt %s %v, want %v", pl, f.name, f.got, f.want)
			}
		}
	}
}

// encodeUnits is the byte form FuzzBuild decodes: per unit its pivot,
// its leaf count and its leaves, one byte each.
func encodeUnits(units []Unit) []byte {
	var b []byte
	for _, u := range units {
		b = append(b, byte(u.Piv), byte(len(u.LF)))
		for _, lf := range u.LF {
			b = append(b, byte(lf))
		}
	}
	return b
}

// decodeUnits reads encodeUnits's form from arbitrary bytes; a count
// that runs past the end keeps the leaves that are there. IDs keep
// their sign, so negative vertices reach Build too.
func decodeUnits(b []byte) []Unit {
	var units []Unit
	for len(b) >= 2 {
		u := Unit{Piv: pattern.VertexID(int8(b[0]))}
		k := min(int(b[1]), len(b)-2)
		for _, x := range b[2 : 2+k] {
			u.LF = append(u.LF, pattern.VertexID(int8(x)))
		}
		units = append(units, u)
		b = b[2+k:]
	}
	return units
}

// FuzzBuild throws arbitrary unit sequences at Build under every
// catalogue pattern. It must never panic, and every plan it accepts
// must hold a matching order that is a permutation of the pattern's
// vertices, Pos as that order's inverse, and a last prefix covering the
// whole pattern.
func FuzzBuild(f *testing.F) {
	var pats []*pattern.Pattern
	for _, name := range catalogue {
		p := pattern.ByName(name)
		pats = append(pats, p)
		pl, err := Compute(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeUnits(pl.Units))
	}
	f.Add(encodeUnits([]Unit{{Piv: 42, LF: []pattern.VertexID{1, 3}}}))
	f.Add(encodeUnits([]Unit{{Piv: 0, LF: []pattern.VertexID{1, 2, 3, 1}}}))
	f.Add(encodeUnits([]Unit{{Piv: 0, LF: []pattern.VertexID{-1}}}))
	f.Add([]byte{0, 200, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		units := decodeUnits(raw)
		for _, p := range pats {
			pl, err := Build(p, units)
			if err != nil {
				continue
			}
			n := p.N()
			if len(pl.Order) != n || len(pl.Pos) != n {
				t.Fatalf("%s %v: order %v, pos %v for %d vertices", p.Name, units, pl.Order, pl.Pos, n)
			}
			for i, u := range pl.Order {
				if u < 0 || int(u) >= n || pl.Pos[u] != i {
					t.Fatalf("%s %v: order %v is not a permutation with inverse %v", p.Name, units, pl.Order, pl.Pos)
				}
			}
			if last := pl.PrefixLen[len(pl.PrefixLen)-1]; last != n {
				t.Fatalf("%s %v: last prefix %d, want %d", p.Name, units, last, n)
			}
		}
	})
}
