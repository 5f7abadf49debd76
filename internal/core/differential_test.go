package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
	"repro/internal/validate"
	"repro/internal/xrand"
)

// uniformEdges draws m edges uniformly over n vertices — the opposite degree
// profile of R-MAT (no hubs, so nearly everything classifies as L).
func uniformEdges(n int64, m int, seed uint64) []rmat.Edge {
	rng := xrand.NewXoshiro256(seed)
	edges := make([]rmat.Edge, m)
	for i := range edges {
		edges[i] = rmat.Edge{
			U: int64(rng.Uint64n(uint64(n))),
			V: int64(rng.Uint64n(uint64(n))),
		}
	}
	return edges
}

// TestDifferentialEngineVsBaseline is the property harness: across ~50 seeded
// graphs spanning both generators, scales, mesh shapes, direction modes,
// segmenting, and hierarchical forwarding — with roughly a third of the runs
// under an active fault plan — the 1.5D engine's parent tree must pass
// Graph 500 validation and induce exactly the levels of the vanilla 1D
// baseline engine (an independent implementation with none of the delegation
// machinery).
func TestDifferentialEngineVsBaseline(t *testing.T) {
	meshes := []topology.Mesh{
		{Rows: 1, Cols: 4}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 1},
		{Rows: 2, Cols: 3}, {Rows: 3, Cols: 2},
	}
	dirs := []DirectionMode{ModeSubIteration, ModeWholeIteration, ModePushOnly, ModePullOnly}
	scales := []int{8, 9, 10}

	const cases = 50
	for i := 0; i < cases; i++ {
		i := i
		scale := scales[i%len(scales)]
		mesh := meshes[i%len(meshes)]
		dir := dirs[i%len(dirs)]
		gen := "rmat"
		if i%2 == 1 {
			gen = "uniform"
		}
		segmented := i%7 == 0
		hier := i%6 == 3
		faulty := i%3 == 0 // ~1/3 of the corpus runs under a fault plan
		seed := uint64(1000 + i)

		name := fmt.Sprintf("%02d_%s_s%d_%dx%d_dir%d", i, gen, scale, mesh.Rows, mesh.Cols, dir)
		if segmented {
			name += "_seg"
		}
		if hier {
			name += "_hier"
		}
		if faulty {
			name += "_faults"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && i%5 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			n := int64(1) << uint(scale)
			var edges []rmat.Edge
			if gen == "rmat" {
				cfg := rmat.Config{Scale: scale, Seed: seed}
				edges = rmat.Generate(cfg)
			} else {
				edges = uniformEdges(n, 8<<uint(scale), seed)
			}

			opt := Options{
				Mesh:         mesh,
				Thresholds:   partition.Thresholds{E: 256, H: 32},
				Direction:    dir,
				Segmented:    segmented,
				Hierarchical: hier,
			}
			if faulty {
				plan := faultinject.New(seed)
				plan.DelayProb = 0.01
				plan.FailProb = 0.001
				opt.Transport = plan
				opt.CollectiveDeadline = 120 * time.Microsecond
				opt.MaxRetries = 8
			}
			eng, err := NewEngine(n, edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := baseline.New(n, edges, baseline.Options{Ranks: 4})
			if err != nil {
				t.Fatal(err)
			}

			roots := []int64{firstConnectedRootOf(eng)}
			if v := n / 2; eng.Part.Degrees[v] > 0 && v != roots[0] {
				roots = append(roots, v)
			}
			for _, root := range roots {
				res, err := eng.Run(root)
				if err != nil {
					t.Fatalf("engine root %d: %v", root, err)
				}
				if _, err := validate.BFS(n, edges, root, res.Parent); err != nil {
					t.Fatalf("engine root %d: validation: %v", root, err)
				}
				bres, err := ref.Run(root)
				if err != nil {
					t.Fatalf("baseline root %d: %v", root, err)
				}
				if _, err := validate.BFS(n, edges, root, bres.Parent); err != nil {
					t.Fatalf("baseline root %d: validation: %v", root, err)
				}
				// Parent choices may legitimately differ; BFS levels may not.
				refLvl, err := graph.Levels(bres.Parent, root)
				if err != nil {
					t.Fatal(err)
				}
				gotLvl, err := graph.Levels(res.Parent, root)
				if err != nil {
					t.Fatal(err)
				}
				for v := int64(0); v < n; v++ {
					if refLvl[v] != gotLvl[v] {
						t.Fatalf("root %d: level[%d] = %d, baseline %d", root, v, gotLvl[v], refLvl[v])
					}
				}
			}
		})
	}
}

// --- Sparse-tail differential corpus -------------------------------------
//
// The graphs below are deliberately tail-heavy: long paths, narrow grids,
// combs and stringy trees whose frontiers stay tiny for most of the
// traversal, so well over 70% of iterations qualify for the sparse
// allgather. Each case runs the adaptive sparse engine against a
// forced-dense run of the same partition and demands bit-exact parent
// arrays — both collectives carry the same typed messages in the same
// per-source order, so the choice between them must not move a parent —
// plus the usual baseline level comparison and Graph 500 validation. A third of the corpus repeats the
// sparse run under a seeded fault plan.

// gridEdges builds a rows x cols 2D grid graph: diameter rows+cols-2, frontier
// width bounded by the antidiagonal.
func gridEdges(rows, cols int64) (int64, []rmat.Edge) {
	var edges []rmat.Edge
	at := func(r, c int64) int64 { return r*cols + c }
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, rmat.Edge{U: at(r, c), V: at(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, rmat.Edge{U: at(r, c), V: at(r+1, c)})
			}
		}
	}
	return rows * cols, edges
}

// combEdges builds a spine path whose every vertex grows two tooth paths of
// the given length. With low thresholds the degree-4+ spine classifies as H
// hubs while the teeth stay L, so the tail exercises the H2L/L2H sparse pair
// (and with it the batched row exchange).
func combEdges(spine, tooth int64) (int64, []rmat.Edge) {
	var edges []rmat.Edge
	n := spine
	for s := int64(0); s+1 < spine; s++ {
		edges = append(edges, rmat.Edge{U: s, V: s + 1})
	}
	for s := int64(0); s < spine; s++ {
		for side := 0; side < 2; side++ {
			prev := s
			for i := int64(0); i < tooth; i++ {
				edges = append(edges, rmat.Edge{U: prev, V: n})
				prev = n
				n++
			}
		}
	}
	return n, edges
}

// stringyTreeEdges attaches vertex i to a random parent among its three
// predecessors: expected depth is a constant fraction of n, with branching
// factor barely above one — the worst case for dense per-destination buffers.
func stringyTreeEdges(n int64, seed uint64) []rmat.Edge {
	rng := xrand.NewXoshiro256(seed)
	edges := make([]rmat.Edge, 0, n-1)
	for i := int64(1); i < n; i++ {
		back := int64(rng.Uint64n(3)) + 1
		if back > i {
			back = i
		}
		edges = append(edges, rmat.Edge{U: i - back, V: i})
	}
	return edges
}

func anySparse(it IterTrace) bool {
	for _, on := range it.Sparse {
		if on {
			return true
		}
	}
	return false
}

func sparseIterFraction(res *Result) float64 {
	if len(res.Trace) == 0 {
		return 0
	}
	sparse := 0
	for _, it := range res.Trace {
		if anySparse(it) {
			sparse++
		}
	}
	return float64(sparse) / float64(len(res.Trace))
}

func sparseCalls(res *Result) int64 {
	v := res.Recorder.CommBreakdown()
	return v.Calls[comm.KindAllgatherSparse]
}

func TestDifferentialSparseTail(t *testing.T) {
	lowTh := partition.Thresholds{E: 8, H: 3}   // comb spines become H hubs
	allL := partition.Thresholds{E: 256, H: 32} // everything classifies L
	cases := []struct {
		name    string
		build   func() (int64, []rmat.Edge)
		th      partition.Thresholds
		mesh    topology.Mesh
		dir     DirectionMode
		hier    bool
		faulty  bool
		always  bool // additionally run SparseAlways
		maxIter int
		// minFrac is the demanded sparse-iteration fraction: 0.7 for the
		// push-mode cases; lower where sub-iteration direction choice sends
		// the late tail down the (already cheap) pull path instead.
		minFrac float64
	}{
		{"path512_1x4_push", func() (int64, []rmat.Edge) { return 512, pathEdges(512) }, allL,
			topology.Mesh{Rows: 1, Cols: 4}, ModePushOnly, false, false, false, 600, 0.7},
		{"path512_2x2_sub_faults", func() (int64, []rmat.Edge) { return 512, pathEdges(512) }, allL,
			topology.Mesh{Rows: 2, Cols: 2}, ModeSubIteration, false, true, false, 600, 0.7},
		{"path300_4x1_push_always", func() (int64, []rmat.Edge) { return 300, pathEdges(300) }, allL,
			topology.Mesh{Rows: 4, Cols: 1}, ModePushOnly, false, false, true, 400, 0.7},
		{"path512_2x3_sub", func() (int64, []rmat.Edge) { return 512, pathEdges(512) }, allL,
			topology.Mesh{Rows: 2, Cols: 3}, ModeSubIteration, false, false, false, 600, 0.7},
		{"grid32x32_2x2_push", func() (int64, []rmat.Edge) { return gridEdges(32, 32) }, allL,
			topology.Mesh{Rows: 2, Cols: 2}, ModePushOnly, false, false, false, 128, 0.7},
		{"grid32x32_2x2_sub_faults", func() (int64, []rmat.Edge) { return gridEdges(32, 32) }, allL,
			topology.Mesh{Rows: 2, Cols: 2}, ModeSubIteration, false, true, false, 128, 0.4},
		{"grid16x64_1x4_push_always", func() (int64, []rmat.Edge) { return gridEdges(16, 64) }, allL,
			topology.Mesh{Rows: 1, Cols: 4}, ModePushOnly, false, false, true, 128, 0.7},
		{"grid8x128_4x1_sub", func() (int64, []rmat.Edge) { return gridEdges(8, 128) }, allL,
			topology.Mesh{Rows: 4, Cols: 1}, ModeSubIteration, false, false, false, 160, 0.4},
		{"comb64x8_2x2_push", func() (int64, []rmat.Edge) { return combEdges(64, 8) }, lowTh,
			topology.Mesh{Rows: 2, Cols: 2}, ModePushOnly, false, false, false, 128, 0.7},
		{"comb64x8_2x2_sub_faults", func() (int64, []rmat.Edge) { return combEdges(64, 8) }, lowTh,
			topology.Mesh{Rows: 2, Cols: 2}, ModeSubIteration, false, true, false, 128, 0.4},
		{"comb96x4_2x3_push_always", func() (int64, []rmat.Edge) { return combEdges(96, 4) }, lowTh,
			topology.Mesh{Rows: 2, Cols: 3}, ModePushOnly, false, false, true, 160, 0.7},
		{"comb48x6_2x2_push_hier", func() (int64, []rmat.Edge) { return combEdges(48, 6) }, lowTh,
			topology.Mesh{Rows: 2, Cols: 2}, ModePushOnly, true, false, false, 128, 0.7},
		{"tree1024_2x2_push", func() (int64, []rmat.Edge) { return 1024, stringyTreeEdges(1024, 7) }, allL,
			topology.Mesh{Rows: 2, Cols: 2}, ModePushOnly, false, false, false, 1200, 0.7},
		{"tree1024_1x4_sub_faults", func() (int64, []rmat.Edge) { return 1024, stringyTreeEdges(1024, 8) }, allL,
			topology.Mesh{Rows: 1, Cols: 4}, ModeSubIteration, false, true, false, 1200, 0.7},
		{"tree768_4x1_sub_always", func() (int64, []rmat.Edge) { return 768, stringyTreeEdges(768, 9) }, allL,
			topology.Mesh{Rows: 4, Cols: 1}, ModeSubIteration, false, false, true, 1000, 0.7},
	}
	for i, tc := range cases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && i%3 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			n, edges := tc.build()
			base := Options{
				Mesh:          tc.mesh,
				Thresholds:    tc.th,
				Direction:     tc.dir,
				Hierarchical:  tc.hier,
				MaxIterations: tc.maxIter,
			}
			optOf := func(mode SparseMode, faulty bool) Options {
				opt := base
				opt.SparseTail = mode
				if faulty {
					plan := faultinject.New(uint64(4000 + i))
					plan.DelayProb = 0.01
					plan.FailProb = 0.001
					opt.Transport = plan
					opt.CollectiveDeadline = 120 * time.Microsecond
					opt.MaxRetries = 8
				}
				return opt
			}
			dense, err := NewEngine(n, edges, optOf(SparseOff, false))
			if err != nil {
				t.Fatal(err)
			}
			auto, err := NewEngineFromPartition(dense.Part, optOf(SparseAuto, tc.faulty))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := baseline.New(n, edges, baseline.Options{Ranks: 4, MaxIterations: tc.maxIter})
			if err != nil {
				t.Fatal(err)
			}

			root := firstConnectedRootOf(dense)
			dres, err := dense.Run(root)
			if err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if got := sparseCalls(dres); got != 0 {
				t.Fatalf("forced-dense run made %d sparse exchanges", got)
			}
			ares, err := auto.Run(root)
			if err != nil {
				t.Fatalf("sparse run: %v", err)
			}
			// The substitution contract: not just the same BFS levels — the
			// identical parent array, bit for bit.
			for v := int64(0); v < n; v++ {
				if dres.Parent[v] != ares.Parent[v] {
					t.Fatalf("parent[%d]: dense %d, sparse %d", v, dres.Parent[v], ares.Parent[v])
				}
			}
			if _, err := validate.BFS(n, edges, root, ares.Parent); err != nil {
				t.Fatalf("sparse run validation: %v", err)
			}
			if frac := sparseIterFraction(ares); frac < tc.minFrac {
				t.Fatalf("only %.0f%% of iterations went sparse, want >= %.0f%%; the corpus graph is supposed to be tail-heavy", 100*frac, 100*tc.minFrac)
			}
			if sparseCalls(ares) == 0 {
				t.Fatal("adaptive run never used the sparse exchange")
			}
			bres, err := ref.Run(root)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			refLvl, err := graph.Levels(bres.Parent, root)
			if err != nil {
				t.Fatal(err)
			}
			gotLvl, err := graph.Levels(ares.Parent, root)
			if err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < n; v++ {
				if refLvl[v] != gotLvl[v] {
					t.Fatalf("level[%d] = %d, baseline %d", v, gotLvl[v], refLvl[v])
				}
			}
			if tc.always {
				alw, err := NewEngineFromPartition(dense.Part, optOf(SparseAlways, false))
				if err != nil {
					t.Fatal(err)
				}
				lres, err := alw.Run(root)
				if err != nil {
					t.Fatalf("always-sparse run: %v", err)
				}
				for v := int64(0); v < n; v++ {
					if dres.Parent[v] != lres.Parent[v] {
						t.Fatalf("always-sparse parent[%d]: dense %d, sparse %d", v, dres.Parent[v], lres.Parent[v])
					}
				}
			}
		})
	}
}

// --- Sort-adversarial key-stream corpus -----------------------------------
//
// The partitioning sort (LSD radix with a comparison fallback) has two
// classic adversaries: key streams that are almost entirely duplicates
// (every radix pass funnels through a handful of buckets, so the stable
// cursor bookkeeping carries nearly all the ordering) and key streams that
// arrive already sorted (every pass degenerates to a pure copy, where an
// off-by-one in bucket cursors shows up as a misplaced run boundary). The
// cases below build graphs that feed exactly those streams into the
// partitioner and demand that a faulted run with retries and checkpointing
// bit-matches the clean run of the same configuration: the scatter must stay
// stable under replay, not just correct once.

// dupHeavyEdges threads a binary tree through every vertex (log-diameter
// connectivity) and then piles m edges onto an 8x64 endpoint window, so the
// partitioning sort sees key streams where almost every key repeats hundreds
// of times and the eight window rows classify as delegated hubs.
func dupHeavyEdges(n int64, m int) []rmat.Edge {
	edges := make([]rmat.Edge, 0, int(n)+m)
	for i := int64(1); i < n; i++ {
		edges = append(edges, rmat.Edge{U: i / 2, V: i})
	}
	for i := 0; i < m; i++ {
		edges = append(edges, rmat.Edge{U: int64(i % 8), V: int64(i % 64)})
	}
	return edges
}

// sortedEdges emits every edge in ascending (U, V) order: the sort's input
// streams arrive already sorted, the worst case for wasted radix passes and
// the best detector for cursor off-by-ones.
func sortedEdges(n int64) []rmat.Edge {
	var edges []rmat.Edge
	for u := int64(0); u < n; u++ {
		for _, d := range []int64{1, 2, 5, 11} {
			if u+d < n {
				edges = append(edges, rmat.Edge{U: u, V: u + d})
			}
		}
	}
	return edges
}

func TestDifferentialSortKeyStreamsUnderFaults(t *testing.T) {
	cases := []struct {
		name  string
		n     int64
		edges []rmat.Edge
	}{
		{"duplicate_heavy", 1 << 10, dupHeavyEdges(1<<10, 8<<10)},
		{"already_sorted", 1 << 10, sortedEdges(1 << 10)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opt := Options{
				Mesh:       topology.Mesh{Rows: 2, Cols: 2},
				Thresholds: partition.Thresholds{E: 256, H: 32},
				Direction:  ModeSubIteration,
			}
			clean, err := NewEngine(tc.n, tc.edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			root := firstConnectedRootOf(clean)
			cres, err := clean.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := validate.BFS(tc.n, tc.edges, root, cres.Parent); err != nil {
				t.Fatalf("clean run: validation: %v", err)
			}

			fopt := opt
			plan := faultinject.New(7)
			plan.DelayProb = 0.05
			plan.FailProb = 0.005
			fopt.Transport = plan
			fopt.CollectiveDeadline = 120 * time.Microsecond
			fopt.MaxRetries = 8
			fopt.CheckpointDir = t.TempDir()
			fopt.CheckpointEvery = 1
			faulted, err := NewEngine(tc.n, tc.edges, fopt)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := faulted.Run(root)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if _, err := validate.BFS(tc.n, tc.edges, root, fres.Parent); err != nil {
				t.Fatalf("faulted run: validation: %v", err)
			}
			if fres.Faults.Injected() == 0 && fres.Retries == 0 {
				t.Fatalf("fault plan drew nothing (seed 7, delay=0.05, fail=0.005); raise the rates so the retry path is actually exercised")
			}
			for v := int64(0); v < tc.n; v++ {
				if cres.Parent[v] != fres.Parent[v] {
					t.Fatalf("parent[%d]: clean %d, faulted %d — retry/checkpoint replay diverged", v, cres.Parent[v], fres.Parent[v])
				}
			}
		})
	}
}
