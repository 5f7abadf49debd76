package core

import (
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/rmat"
)

// wccLabelsMatch fails t unless RunWCC on a ranks-rank engine labels every
// vertex with the union-find reference's minimum member ID.
func wccLabelsMatch(t *testing.T, n int64, edges []rmat.Edge, ranks int) *WorkloadResult {
	t.Helper()
	eng, err := NewEngine(n, edges, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWCC()
	if err != nil {
		t.Fatal(err)
	}
	ref := unionFind(n, edges)
	for v := int64(0); v < n; v++ {
		if res.Label[v] != ref[v] {
			t.Fatalf("ranks=%d: label[%d] = %d, reference %d", ranks, v, res.Label[v], ref[v])
		}
	}
	return res
}

// TestWCCMatchesUnionFind: min-label propagation converges to the minimum
// original ID per component, which is what unionFind computes (it unions
// toward the smaller root).
func TestWCCMatchesUnionFind(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 21}
	wccLabelsMatch(t, cfg.NumVertices(), rmat.Generate(cfg), 4)
}

// TestWCCAgainstUnionFindEightRanks runs the same check on 8 ranks, a
// non-square mesh, so the column and row hub merges reduce over
// communicators of different widths.
func TestWCCAgainstUnionFindEightRanks(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 82}
	wccLabelsMatch(t, cfg.NumVertices(), rmat.Generate(cfg), 8)
}

func TestWCCComponentCount(t *testing.T) {
	// Two triangles and isolated vertices; isolated ones are not counted.
	edges := []rmat.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 10},
	}
	eng, err := NewEngine(64, edges, Options{Ranks: 4, Thresholds: partition.Thresholds{E: 16, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWCC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 2 {
		t.Fatalf("found %d components, want 2", res.Components)
	}
	if res.Label[0] != 0 || res.Label[2] != 0 || res.Label[12] != 10 || res.Label[40] != 40 {
		t.Fatalf("labels wrong: %d %d %d %d", res.Label[0], res.Label[2], res.Label[12], res.Label[40])
	}
}

func TestWCCMeshShapes(t *testing.T) {
	cfg := rmat.Config{Scale: 8, Seed: 22}
	edges := rmat.Generate(cfg)
	for _, ranks := range []int{1, 2, 6, 9} {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			wccLabelsMatch(t, cfg.NumVertices(), edges, ranks)
		})
	}
}

// TestWCCConvergenceCountsFinalRound pins the convergence accounting: the
// zero-change round that proves convergence is counted. On a path of n
// vertices labels last change in round n-2 (zero-indexed), so the quiet round
// n-1 brings Iterations to exactly n on every mesh.
func TestWCCConvergenceCountsFinalRound(t *testing.T) {
	const n = int64(9)
	edges := pathEdges(n)
	for _, ranks := range []int{1, 4} {
		eng, err := NewEngine(n, edges, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWCC()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != int(n) {
			t.Fatalf("ranks=%d: path-%d WCC took %d iterations, want %d (final quiet round counts)",
				ranks, n, res.Iterations, n)
		}
		if res.Components != 1 {
			t.Fatalf("ranks=%d: components = %d, want 1", ranks, res.Components)
		}
	}
}
