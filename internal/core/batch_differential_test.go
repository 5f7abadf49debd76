package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/validate"
)

// distinctConnectedRoots picks up to k distinct non-isolated vertices spread
// across the id space, so a batch mixes hub-seeded and L-seeded queries.
func distinctConnectedRoots(eng *Engine, k int) []int64 {
	n := int64(len(eng.Part.Degrees))
	var roots []int64
	stepN := n / int64(k)
	if stepN == 0 {
		stepN = 1
	}
	for off := int64(0); off < n && len(roots) < k; off += stepN {
		for v := off; v < n; v++ {
			if eng.Part.Degrees[v] > 0 {
				dup := false
				for _, r := range roots {
					if r == v {
						dup = true
						break
					}
				}
				if !dup {
					roots = append(roots, v)
				}
				break
			}
		}
	}
	return roots
}

// mixedExchangeIters counts, per remote push component, the batch iterations
// in which one live query plane rode the sparse allgather while another rode
// the dense alltoallv — the one schedule where both collectives run side by
// side for the same component, each carrying query marker runs. Query traces
// are aligned by iteration: every query is live from iteration 0 until it
// converges.
func mixedExchangeIters(b *BatchResult) [partition.NumComponents]int {
	var mixed [partition.NumComponents]int
	for it := 0; it < b.Iterations; it++ {
		for _, c := range []partition.Component{partition.CompH2L, partition.CompL2H, partition.CompL2L} {
			var sparse, dense bool
			for _, q := range b.Queries {
				if it >= len(q.Trace) || q.Trace[it].Directions[c] != stats.DirPush {
					continue
				}
				if q.Trace[it].Sparse[c] {
					sparse = true
				} else {
					dense = true
				}
			}
			if sparse && dense {
				mixed[c]++
			}
		}
	}
	return mixed
}

// TestBatchVsSoloDifferential is the batch oracle: across 20 seeded cases
// spanning both generators plus tail-heavy meshes, all direction modes,
// sparse modes (including batches mixing sparse and dense planes),
// hierarchical forwarding and (for a third of the corpus) an active fault
// plan, a batch of K roots must produce per query exactly the
// parent array of K independent single-root runs (batches of one) —
// bit-for-bit — plus matching iteration counts, matching levels, and Graph
// 500 validation.
func TestBatchVsSoloDifferential(t *testing.T) {
	meshes := []topology.Mesh{
		{Rows: 1, Cols: 4}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 1},
		{Rows: 2, Cols: 3}, {Rows: 3, Cols: 2},
	}
	dirs := []DirectionMode{ModeSubIteration, ModeWholeIteration, ModePushOnly, ModePullOnly}
	sparses := []SparseMode{SparseAuto, SparseOff, SparseAlways}
	scales := []int{8, 9, 10}

	const cases = 20
	for i := 0; i < cases; i++ {
		i := i
		mesh := meshes[i%len(meshes)]
		dir := dirs[i%len(dirs)]
		sparse := sparses[i%len(sparses)]
		hier := i%6 == 5
		segmented := i%7 == 2
		faulty := i%3 == 0 // ≥1/3 of the corpus under a fault plan
		// The last two cases push under SparseAuto with the sparse cutoff
		// below the spread of their queries' frontier sizes, so in one
		// iteration some planes go sparse while others stay dense on the same
		// component: H2L on the grid, L2H and L2L on the comb.
		var mixedOn []partition.Component
		switch i {
		case cases - 2:
			mixedOn = []partition.Component{partition.CompH2L}
		case cases - 1:
			mixedOn = []partition.Component{partition.CompL2H, partition.CompL2L}
		}
		if mixedOn != nil {
			dir, sparse = ModePushOnly, SparseAuto
		}
		seed := uint64(7000 + i)

		var n int64
		var edges []rmat.Edge
		var gen string
		switch i % 4 {
		case 0:
			gen = "rmat"
			scale := scales[i%len(scales)]
			edges = rmat.Generate(rmat.Config{Scale: scale, Seed: seed})
			n = int64(1) << uint(scale)
		case 1:
			gen = "uniform"
			scale := scales[i%len(scales)]
			n = int64(1) << uint(scale)
			edges = uniformEdges(n, 8<<uint(scale), seed)
		case 2:
			gen = "grid"
			n, edges = gridEdges(24+int64(i), 20)
		default:
			gen = "comb"
			n, edges = combEdges(48, 8+int64(i%5))
		}

		name := fmt.Sprintf("%02d_%s_%dx%d_dir%d_sp%d", i, gen, mesh.Rows, mesh.Cols, dir, sparse)
		if hier {
			name += "_hier"
		}
		if segmented {
			name += "_seg"
		}
		if faulty {
			name += "_faults"
		}
		if mixedOn != nil {
			name += "_mixed"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && i%3 != 0 {
				t.Skip("subset in -short mode")
			}
			t.Parallel()
			opt := Options{
				Mesh:         mesh,
				Thresholds:   partition.Thresholds{E: 256, H: 24},
				Direction:    dir,
				SparseTail:   sparse,
				Hierarchical: hier,
				Segmented:    segmented,
			}
			if gen == "comb" || gen == "grid" {
				opt.Thresholds = partition.Thresholds{E: 64, H: 3}
			}
			if mixedOn != nil {
				opt.SparseCutoff = 6
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
			roots := distinctConnectedRoots(eng, 4+i%3)
			if len(roots) < 2 {
				t.Fatalf("graph too sparse for a batch: roots %v", roots)
			}

			solo := make([]*Result, len(roots))
			for qi, root := range roots {
				res, err := eng.Run(root)
				if err != nil {
					t.Fatalf("solo root %d: %v", root, err)
				}
				solo[qi] = res
			}
			batch, err := eng.RunBatch(roots)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if got, want := len(batch.Queries), len(roots); got != want {
				t.Fatalf("batch returned %d queries, want %d", got, want)
			}
			mixedIters := mixedExchangeIters(batch)
			for _, c := range mixedOn {
				if mixedIters[c] == 0 {
					t.Fatalf("no iteration mixed sparse and dense planes on %v", c)
				}
			}
			if batch.AvgOccupancy < 1 || batch.AvgOccupancy > float64(len(roots)) {
				t.Fatalf("occupancy %v out of [1,%d]", batch.AvgOccupancy, len(roots))
			}
			for qi, root := range roots {
				q := batch.Queries[qi]
				if q.Root != root {
					t.Fatalf("query %d root %d, want %d", qi, q.Root, root)
				}
				// The contract: parents bit-match the solo run.
				for v := int64(0); v < n; v++ {
					if q.Parent[v] != solo[qi].Parent[v] {
						t.Fatalf("root %d: parent[%d] = %d, solo %d", root, v, q.Parent[v], solo[qi].Parent[v])
					}
				}
				if q.Iterations != solo[qi].Iterations {
					t.Errorf("root %d: %d iterations, solo %d", root, q.Iterations, solo[qi].Iterations)
				}
				if q.TraversedEdges != solo[qi].TraversedEdges {
					t.Errorf("root %d: traversed %d, solo %d", root, q.TraversedEdges, solo[qi].TraversedEdges)
				}
				if _, err := validate.BFS(n, edges, root, q.Parent); err != nil {
					t.Fatalf("root %d: validation: %v", root, err)
				}
				refLvl, err := graph.Levels(solo[qi].Parent, root)
				if err != nil {
					t.Fatal(err)
				}
				gotLvl, err := graph.Levels(q.Parent, root)
				if err != nil {
					t.Fatal(err)
				}
				for v := int64(0); v < n; v++ {
					if refLvl[v] != gotLvl[v] {
						t.Fatalf("root %d: level[%d] = %d, solo %d", root, v, gotLvl[v], refLvl[v])
					}
				}
			}
		})
	}
}

// TestBatchAmortizesCollectives locks the economic claim: one batch of 8
// roots must issue strictly fewer data-plane collective calls than the same
// 8 roots run solo, because hub syncs, epilogue allreduces and parent
// reductions are shared across the whole batch.
func TestBatchAmortizesCollectives(t *testing.T) {
	edges := rmat.Generate(rmat.Config{Scale: 10, Seed: 42})
	n := int64(1) << 10
	eng, err := NewEngine(n, edges, Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 256, H: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := distinctConnectedRoots(eng, 8)
	if len(roots) != 8 {
		t.Fatalf("wanted 8 roots, got %d", len(roots))
	}
	callsOf := func(rec interface{ CommBreakdown() comm.VolumeStats }) int64 {
		var sum int64
		for _, c := range rec.CommBreakdown().Calls {
			sum += c
		}
		return sum
	}
	var soloCalls int64
	for _, root := range roots {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		soloCalls += callsOf(res.Recorder)
	}
	batch, err := eng.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	batchCalls := callsOf(batch.Recorder)
	if batchCalls >= soloCalls {
		t.Fatalf("batch issued %d collective calls, solo total %d — batching amortized nothing", batchCalls, soloCalls)
	}
	t.Logf("collective calls: batch=%d solo(8)=%d (%.1f%%)", batchCalls, soloCalls, 100*float64(batchCalls)/float64(soloCalls))
}

func TestRunBatchRejectsBadInput(t *testing.T) {
	edges := rmat.Generate(rmat.Config{Scale: 8, Seed: 9})
	n := int64(1) << 8
	eng, err := NewEngine(n, edges, Options{
		Mesh:       topology.Mesh{Rows: 1, Cols: 2},
		Thresholds: partition.Thresholds{E: 256, H: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := eng.RunBatch([]int64{n}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := eng.RunBatch([]int64{-1}); err == nil {
		t.Fatal("negative root accepted")
	}
	adaptive, err := NewEngineFromPartition(eng.Part, Options{
		Mesh:            topology.Mesh{Rows: 1, Cols: 2},
		SegmentAdaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adaptive.RunBatch([]int64{0, 1}); err == nil {
		t.Fatal("SegmentAdaptive batch accepted")
	}
	// A batch of one is what Engine.Run executes, so SegmentAdaptive must
	// accept it; with a single query every live iteration holds exactly it.
	root := firstConnectedRootOf(adaptive)
	one, err := adaptive.RunBatch([]int64{root})
	if err != nil {
		t.Fatalf("SegmentAdaptive batch of one rejected: %v", err)
	}
	if _, err := validate.BFS(n, edges, root, one.Queries[0].Parent); err != nil {
		t.Fatalf("SegmentAdaptive batch of one: validation: %v", err)
	}
	if one.AvgOccupancy != 1 {
		t.Fatalf("single-query occupancy %v, want 1", one.AvgOccupancy)
	}
}
