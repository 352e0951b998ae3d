package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareFig2 runs `radsplan -query fig2 -compare` on the paper's
// running example: the optimized plan takes c_P = 3 rounds with pivot
// u0 in round 0, and the RanS and RanM baselines of the Figure 13
// ablation follow it.
func TestCompareFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig2", true, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rans := strings.Index(out, "\nRanS baseline (")
	ranm := strings.Index(out, "\nRanM baseline (3 rounds, ")
	if rans < 0 || ranm < rans {
		t.Fatalf("want a RanS section followed by a 3-round RanM section:\n%s", out)
	}
	opt := out[:rans]
	for _, want := range []string{"optimized plan (c_P = 3 rounds):", "\n  round 0: pivot u0, "} {
		if !strings.Contains(opt, want) {
			t.Errorf("optimized plan lacks %q:\n%s", want, opt)
		}
	}
}
