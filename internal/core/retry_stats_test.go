package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/validate"
)

// reliable is a fault transport that never fires, so the engine runs the
// full resilience machinery (snapshots, votes, envelopes) without any retry —
// the apples-to-apples baseline for the double-count comparison.
type reliable struct{}

func (reliable) Intercept(comm.Call) comm.FaultAction { return comm.FaultAction{} }

// TestRetryDoesNotDoubleCountStats is the regression test for the stats
// double-count on step-granular retry: a retried step re-enters the
// iteration mid-way and re-observes its kernels, and before the step snapshot
// learned to roll the recorder back, the failed attempt's volumes and edge
// touches stayed in the aggregates. A run that retried must report exactly
// the volumes and edges of an identical run that never failed.
func TestRetryDoesNotDoubleCountStats(t *testing.T) {
	n, edges := rmatEdges(t, 10, 7)
	build := func(tr comm.Transport) *Engine {
		t.Helper()
		eng, err := NewEngine(n, edges, Options{
			Mesh:       topology.Mesh{Rows: 2, Cols: 2},
			Thresholds: partition.Thresholds{E: 512, H: 64},
			Transport:  tr,
			MaxRetries: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := build(reliable{})
	root := firstConnectedRootOf(ref)
	want, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		fault *failOnce
	}{
		// Step 0 of iteration 2: the retry re-enters at the iteration's
		// first step and re-runs every kernel, sync and the epilogue.
		{"mid-iteration step retry", &failOnce{rank: 0, iter: 2, tag: 0}},
		// The delayed parent reduction after convergence (it runs with the
		// converging iteration still current): its retry loop re-runs
		// the parent reduction, re-observing PhaseReduce.
		{"parent reduction retry", &failOnce{rank: 0, iter: int64(want.Iterations - 1), tag: TagReduce}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := build(tc.fault)
			got, err := eng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.fault.fired.Load() {
				t.Fatal("fault never fired; the retry path is not exercised")
			}
			if got.Retries == 0 {
				t.Fatal("no retry was taken; the regression is not exercised")
			}
			if _, err := validate.BFS(n, edges, root, got.Parent); err != nil {
				t.Fatalf("validation after retry: %v", err)
			}
			for p := stats.Phase(0); p < stats.NumPhases; p++ {
				if g, w := got.Recorder.EdgesTouched[p], want.Recorder.EdgesTouched[p]; g != w {
					t.Errorf("EdgesTouched[%v] = %d after retry, want %d (fault-free)", p, g, w)
				}
				if g, w := got.Recorder.Volumes[p], want.Recorder.Volumes[p]; g != w {
					t.Errorf("Volumes[%v] = %+v after retry, want %+v (fault-free)", p, g, w)
				}
			}
		})
	}
}
