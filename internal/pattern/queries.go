package pattern

// This file reconstructs the paper's query workloads. The paper defines
// them in Figure 7 (q1..q8) and Figure 14 (clique queries), which are
// images and therefore absent from the provided text. The shapes below
// honour every constraint stated in the prose:
//
//   - "there are no cliques with more than two vertices in queries q1,
//     q3, q6, q7 and q8" (Exp-1)  => those five are triangle-free.
//   - Crystal "simply retrieved the cached embeddings of the triangle to
//     match the vertices (u0, u1, u2) of those 3 queries" (q2, q4, q5)
//     => q2, q4, q5 contain a triangle on (u0, u1, u2).
//   - q5 extends q4 by an *end vertex* u5 (degree 1): "the other three
//     methods are sensitive to the end vertices, such as u5 in q5".
//   - PSgL's "communication cost was beyond control when the query
//     vertices reach 6" => the suite crosses 6 vertices at q5/q6.
//   - Figure 14 queries "all of which have cliques".
//
// Sizes grow monotonically, as in TwinTwig/SEED whose query sets the
// paper reuses. The exact reconstruction is documented per query.

// QuerySet returns q1..q8 of Figure 7 (reconstructed).
func QuerySet() []*Pattern {
	return byNames("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")
}

// CliqueQuerySet returns the Figure 14 workload (reconstructed): four
// queries that all contain cliques, used to compare RADS against SEED
// and Crystal on their home turf (Appendix C.4 / Figure 15).
func CliqueQuerySet() []*Pattern {
	return byNames("cq1", "cq2", "cq3", "cq4")
}

func byNames(names ...string) []*Pattern {
	out := make([]*Pattern, len(names))
	for i, name := range names {
		out[i] = ByName(name)
	}
	return out
}

// ByName builds the named query of either suite, or one of the named
// basics (triangle, fig2); it returns nil if the name is unknown. It
// builds only the pattern it names, so a miss costs nothing: servers
// try it on every request before falling back to Parse.
func ByName(name string) *Pattern {
	switch name {
	// q1: the square C4 — the smallest triangle-free cycle.
	case "q1":
		return New("q1", 4, 0, 1, 1, 2, 2, 3, 3, 0)
	// q2: tailed triangle — triangle (u0,u1,u2) plus pendant u3.
	case "q2":
		return New("q2", 4, 0, 1, 1, 2, 0, 2, 0, 3)
	// q3: the 5-cycle C5, triangle-free.
	case "q3":
		return New("q3", 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0)
	// q4: the house — triangle (u0,u1,u2) on top of square
	// (u1,u2,u4,u3).
	case "q4":
		return New("q4", 5, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3, 4)
	// q5: q4 plus end vertex u5 hanging off u0.
	case "q5":
		return New("q5", 6, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3, 4, 0, 5)
	// q6: C6 plus two "long" chords (0,3) and (1,4); bipartite, hence
	// triangle-free, but denser than a plain cycle.
	case "q6":
		return New("q6", 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4)
	// q7: the complete bipartite K3,3 (parts {0,2,4} and {1,3,5}),
	// triangle-free with 9 edges.
	case "q7":
		return New("q7", 6, 0, 1, 0, 3, 0, 5, 2, 1, 2, 3, 2, 5, 4, 1, 4, 3, 4, 5)
	// q8: the 3-cube Q3, 8 vertices, 12 edges, triangle-free.
	case "q8":
		return New("q8", 8,
			0, 1, 1, 2, 2, 3, 3, 0, // bottom face
			4, 5, 5, 6, 6, 7, 7, 4, // top face
			0, 4, 1, 5, 2, 6, 3, 7) // pillars
	// cq1: K4.
	case "cq1":
		return New("cq1", 4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3)
	// cq2: K4 with a pendant tail.
	case "cq2":
		return New("cq2", 5, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 0, 4)
	// cq3: the bowtie — two triangles sharing vertex u0. Its largest
	// clique is only a triangle and its two halves must be verified
	// against each other, the regime where the paper reports RADS
	// beating Crystal.
	case "cq3":
		return New("cq3", 5, 0, 1, 0, 2, 1, 2, 0, 3, 0, 4, 3, 4)
	// cq4: K5.
	case "cq4":
		return New("cq4", 5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4)
	case "triangle":
		return Triangle()
	case "fig2":
		return RunningExample()
	}
	return nil
}

// RunningExample returns the 10-vertex pattern of Figure 2(a), fully
// determined by Examples 3 and 4 of the paper: the star edges of the
// four decomposition units plus the five verification edges that
// Example 4 erases to obtain a maximum-leaf spanning tree.
func RunningExample() *Pattern {
	return New("fig2", 10,
		// expansion edges (Example 3's units)
		0, 1, 0, 2, 0, 7, // dp0: piv u0, LF {u1,u2,u7}
		1, 3, 1, 4, // dp1: piv u1, LF {u3,u4}
		2, 5, 2, 6, // dp2: piv u2, LF {u5,u6}
		0, 8, 0, 9, // dp3: piv u0, LF {u8,u9}
		// verification edges (erased in Example 4's MLST)
		1, 2, 3, 4, 4, 5, 5, 6, 8, 9)
}

// Triangle returns the triangle pattern used throughout the paper's
// examples (Example 1, 2).
func Triangle() *Pattern { return New("triangle", 3, 0, 1, 1, 2, 0, 2) }
