package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/sssp"
	"repro/internal/topology"
)

// --- Per-workload differential corpora ------------------------------------
//
// Each analytics workload (WCC, k-core, SSSP, PageRank) runs the shared case
// table below against an independent sequential reference (reference_test.go
// and sssp.Dijkstra). The table spans both degree
// profiles (R-MAT hubs vs uniform), tail-heavy topologies (grids, combs,
// paths, stringy trees) that force the sparse exchange, several mesh shapes,
// and low-threshold classifications that push spines into H. More than a
// third of the cases run under a seeded fault plan, so the comparison also
// locks the retry path; the sparseBoth cases additionally demand bit-exact
// agreement between a forced-dense and a forced-sparse run of the same
// partition — the substitution contract extended to every workload.

type wlCase struct {
	name       string
	build      func(seed uint64) (int64, []rmat.Edge)
	th         partition.Thresholds
	mesh       topology.Mesh
	faulty     bool
	sparseBoth bool
	delta      float64 // SSSP bucket width; 0 = workload default
}

func rmatCase(scale int) func(seed uint64) (int64, []rmat.Edge) {
	return func(seed uint64) (int64, []rmat.Edge) {
		return int64(1) << uint(scale), rmat.Generate(rmat.Config{Scale: scale, Seed: seed})
	}
}

var workloadDiffCases = func() []wlCase {
	allL := partition.Thresholds{E: 256, H: 32}
	lowTh := partition.Thresholds{E: 8, H: 3}
	return []wlCase{
		{"00_rmat_s8_1x4", rmatCase(8), allL, topology.Mesh{Rows: 1, Cols: 4}, false, false, 0},
		{"01_rmat_s8_2x2_faults", rmatCase(8), allL, topology.Mesh{Rows: 2, Cols: 2}, true, false, 0},
		{"02_rmat_s9_2x3", rmatCase(9), allL, topology.Mesh{Rows: 2, Cols: 3}, false, false, 0},
		{"03_rmat_s9_3x2_faults", rmatCase(9), allL, topology.Mesh{Rows: 3, Cols: 2}, true, false, 0},
		{"04_rmat_s10_2x2", rmatCase(10), allL, topology.Mesh{Rows: 2, Cols: 2}, false, false, 0},
		{"05_uniform_s8_4x1_faults", func(seed uint64) (int64, []rmat.Edge) {
			return 256, uniformEdges(256, 2048, seed)
		}, allL, topology.Mesh{Rows: 4, Cols: 1}, true, false, 0},
		{"06_uniform_s9_2x2", func(seed uint64) (int64, []rmat.Edge) {
			return 512, uniformEdges(512, 4096, seed)
		}, allL, topology.Mesh{Rows: 2, Cols: 2}, false, false, 0},
		{"07_grid32x32_2x2_sparse", func(uint64) (int64, []rmat.Edge) {
			return gridEdges(32, 32)
		}, allL, topology.Mesh{Rows: 2, Cols: 2}, false, true, 0.25},
		{"08_grid16x64_1x4_faults", func(uint64) (int64, []rmat.Edge) {
			return gridEdges(16, 64)
		}, allL, topology.Mesh{Rows: 1, Cols: 4}, true, false, 0.25},
		{"09_comb64x8_2x2_sparse", func(uint64) (int64, []rmat.Edge) {
			return combEdges(64, 8)
		}, lowTh, topology.Mesh{Rows: 2, Cols: 2}, false, true, 0.5},
		{"10_comb48x6_2x3_faults", func(uint64) (int64, []rmat.Edge) {
			return combEdges(48, 6)
		}, lowTh, topology.Mesh{Rows: 2, Cols: 3}, true, false, 0.5},
		{"11_path256_2x2_sparse", func(uint64) (int64, []rmat.Edge) {
			return 256, pathEdges(256)
		}, allL, topology.Mesh{Rows: 2, Cols: 2}, false, true, 0.5},
		{"12_path400_4x1_faults", func(uint64) (int64, []rmat.Edge) {
			return 400, pathEdges(400)
		}, allL, topology.Mesh{Rows: 4, Cols: 1}, true, false, 0.5},
		{"13_tree512_2x2", func(seed uint64) (int64, []rmat.Edge) {
			return 512, stringyTreeEdges(512, seed)
		}, allL, topology.Mesh{Rows: 2, Cols: 2}, false, false, 0.5},
		{"14_tree768_1x4_faults", func(seed uint64) (int64, []rmat.Edge) {
			return 768, stringyTreeEdges(768, seed)
		}, allL, topology.Mesh{Rows: 1, Cols: 4}, true, false, 0.5},
		{"15_rmat_s8_2x2_lowth", rmatCase(8), lowTh, topology.Mesh{Rows: 2, Cols: 2}, false, false, 0},
	}
}()

func (tc wlCase) options(mode SparseMode, faultSeed uint64) Options {
	opt := Options{Mesh: tc.mesh, Thresholds: tc.th, SparseTail: mode}
	if tc.faulty {
		plan := faultinject.New(faultSeed)
		plan.DelayProb = 0.01
		plan.FailProb = 0.001
		opt.Transport = plan
		opt.CollectiveDeadline = 120 * time.Microsecond
		opt.MaxRetries = 8
	}
	return opt
}

func TestDifferentialWCC(t *testing.T) {
	for i, tc := range workloadDiffCases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && i%4 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			seed := uint64(2000 + i)
			n, edges := tc.build(seed)
			eng, err := NewEngine(n, edges, tc.options(SparseAuto, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunWCC()
			if err != nil {
				t.Fatalf("RunWCC: %v", err)
			}
			ref := unionFind(n, edges)
			for v := int64(0); v < n; v++ {
				if res.Label[v] != ref[v] {
					t.Fatalf("label[%d] = %d, reference %d", v, res.Label[v], ref[v])
				}
			}
			if want := componentCount(n, edges, ref); res.Components != want {
				t.Fatalf("components = %d, reference %d", res.Components, want)
			}
			// Labels propagate synchronously (every kernel reads the
			// iteration's base labels), and the final zero-change round that
			// proves convergence counts, so the round count is exact.
			if want := minLabelRounds(n, edges); res.Iterations != want {
				t.Fatalf("iterations = %d, reference %d", res.Iterations, want)
			}
			if !tc.sparseBoth {
				return
			}
			dense, err := NewEngine(n, edges, tc.options(SparseOff, seed))
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dense.RunWCC()
			if err != nil {
				t.Fatalf("dense RunWCC: %v", err)
			}
			alw, err := NewEngineFromPartition(dense.Part, tc.options(SparseAlways, seed))
			if err != nil {
				t.Fatal(err)
			}
			ares, err := alw.RunWCC()
			if err != nil {
				t.Fatalf("always-sparse RunWCC: %v", err)
			}
			for v := int64(0); v < n; v++ {
				if dres.Label[v] != ares.Label[v] {
					t.Fatalf("sparse substitution: label[%d] dense %d, sparse %d", v, dres.Label[v], ares.Label[v])
				}
			}
		})
	}
}

func TestDifferentialKCore(t *testing.T) {
	for i, tc := range workloadDiffCases {
		i, tc := i, tc
		k := int64(1 + i%4) // spans k=1..4; trees have empty 2-cores, grids full ones
		t.Run(fmt.Sprintf("%s_k%d", tc.name, k), func(t *testing.T) {
			if testing.Short() && i%4 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			seed := uint64(3000 + i)
			n, edges := tc.build(seed)
			eng, err := NewEngine(n, edges, tc.options(SparseAuto, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunKCore(k)
			if err != nil {
				t.Fatalf("RunKCore: %v", err)
			}
			ref := sequentialKCore(n, edges, k)
			var size int64
			for v := int64(0); v < n; v++ {
				if res.InCore[v] != ref[v] {
					t.Fatalf("inCore[%d] = %v, reference %v", v, res.InCore[v], ref[v])
				}
				if ref[v] {
					size++
				}
			}
			if res.CoreSize != size {
				t.Fatalf("coreSize = %d, reference %d", res.CoreSize, size)
			}
			if !tc.sparseBoth {
				return
			}
			dense, err := NewEngine(n, edges, tc.options(SparseOff, seed))
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dense.RunKCore(k)
			if err != nil {
				t.Fatalf("dense RunKCore: %v", err)
			}
			alw, err := NewEngineFromPartition(dense.Part, tc.options(SparseAlways, seed))
			if err != nil {
				t.Fatal(err)
			}
			ares, err := alw.RunKCore(k)
			if err != nil {
				t.Fatalf("always-sparse RunKCore: %v", err)
			}
			for v := int64(0); v < n; v++ {
				if dres.InCore[v] != ares.InCore[v] {
					t.Fatalf("sparse substitution: inCore[%d] dense %v, sparse %v", v, dres.InCore[v], ares.InCore[v])
				}
			}
		})
	}
}

// checkSSSPAgainstDijkstra demands distance agreement within eps (parents may
// legitimately differ between equal-length paths) plus the optimality
// conditions of sssp.ValidateResult on the distributed result itself.
func checkSSSPAgainstDijkstra(t *testing.T, n int64, edges []rmat.Edge, wseed uint64, res *WorkloadResult) {
	t.Helper()
	if err := sssp.ValidateResult(n, edges, wseed, &sssp.Result{
		Root: res.Root, Dist: res.Dist, Parent: res.Parent,
	}); err != nil {
		t.Fatalf("optimality: %v", err)
	}
	refDist, _ := sssp.Dijkstra(n, edges, res.Root, wseed)
	const eps = 1e-9
	for v := int64(0); v < n; v++ {
		rd, gd := refDist[v], res.Dist[v]
		if math.IsInf(rd, 1) != math.IsInf(gd, 1) {
			t.Fatalf("reachability of %d: dist %g, Dijkstra %g", v, gd, rd)
		}
		if !math.IsInf(rd, 1) && math.Abs(rd-gd) > eps {
			t.Fatalf("dist[%d] = %g, Dijkstra %g", v, gd, rd)
		}
	}
}

func TestDifferentialSSSP(t *testing.T) {
	for i, tc := range workloadDiffCases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && i%4 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			seed := uint64(5000 + i)
			wseed := uint64(77*i + 5)
			n, edges := tc.build(seed)
			eng, err := NewEngine(n, edges, tc.options(SparseAuto, seed))
			if err != nil {
				t.Fatal(err)
			}
			root := firstConnectedRootOf(eng)
			res, err := eng.RunSSSP(root, wseed, tc.delta)
			if err != nil {
				t.Fatalf("RunSSSP: %v", err)
			}
			if res.Relaxations == 0 {
				t.Fatal("no relaxations recorded")
			}
			checkSSSPAgainstDijkstra(t, n, edges, wseed, res)
			if !tc.sparseBoth {
				return
			}
			dense, err := NewEngine(n, edges, tc.options(SparseOff, seed))
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dense.RunSSSP(root, wseed, tc.delta)
			if err != nil {
				t.Fatalf("dense RunSSSP: %v", err)
			}
			alw, err := NewEngineFromPartition(dense.Part, tc.options(SparseAlways, seed))
			if err != nil {
				t.Fatal(err)
			}
			ares, err := alw.RunSSSP(root, wseed, tc.delta)
			if err != nil {
				t.Fatalf("always-sparse RunSSSP: %v", err)
			}
			// The substitution contract is bit-exact here too: the sparse
			// exchange applies relaxations in the dense exchange's order, so
			// even equal-distance parent ties must match.
			for v := int64(0); v < n; v++ {
				if dres.Dist[v] != ares.Dist[v] || dres.Parent[v] != ares.Parent[v] {
					t.Fatalf("sparse substitution: vertex %d dense (%g,%d), sparse (%g,%d)",
						v, dres.Dist[v], dres.Parent[v], ares.Dist[v], ares.Parent[v])
				}
			}
		})
	}
}

// TestDifferentialPageRank runs a fixed number of PageRank rounds (tol 0) and
// demands every rank within 1e-12 of the sequential power iteration. Faulted
// cases must additionally be bit-identical to a fault-free run on the same
// partition: retries restore the step snapshot and re-execute the same
// member-ordered sums.
func TestDifferentialPageRank(t *testing.T) {
	const rounds = 30
	for i, tc := range workloadDiffCases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && i%4 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			seed := uint64(6000 + i)
			n, edges := tc.build(seed)
			eng, err := NewEngine(n, edges, tc.options(SparseAuto, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunPageRank(0.85, 0, rounds)
			if err != nil {
				t.Fatalf("RunPageRank: %v", err)
			}
			if res.Iterations != rounds {
				t.Fatalf("iterations = %d, want %d", res.Iterations, rounds)
			}
			ref := sequentialPageRank(n, edges, 0.85, rounds)
			for v := int64(0); v < n; v++ {
				if math.Abs(res.Rank[v]-ref[v]) > 1e-12 {
					t.Fatalf("rank[%d] = %.15g, reference %.15g", v, res.Rank[v], ref[v])
				}
			}
			if !tc.faulty {
				return
			}
			if res.Faults.Injected() == 0 {
				t.Fatal("fault plan injected nothing")
			}
			clean, err := NewEngineFromPartition(eng.Part, Options{Mesh: tc.mesh})
			if err != nil {
				t.Fatal(err)
			}
			cres, err := clean.RunPageRank(0.85, 0, rounds)
			if err != nil {
				t.Fatalf("fault-free RunPageRank: %v", err)
			}
			compareWorkloadResults(t, "faulted vs fault-free", res, cres)
		})
	}
}

// TestWorkloadArgumentValidation pins the entry-point error contracts.
func TestWorkloadArgumentValidation(t *testing.T) {
	n, edges := gridEdges(8, 8)
	eng, err := NewEngine(n, edges, Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunKCore(-1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := eng.RunSSSP(-1, 1, 0); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := eng.RunSSSP(n, 1, 0); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	for _, d := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := eng.RunPageRank(d, 1e-6, 10); err == nil {
			t.Fatalf("damping %g accepted", d)
		}
	}
}
