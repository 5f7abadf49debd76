package main

import (
	"testing"
	"time"
)

// TestWorkloadsEndToEnd runs every workload at a small size on a seed that
// was not used while the benchmark was built, untraced and traced, and
// requires checked answers and every metric of the run's set.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	small := map[string]func(*env) (*outcome, error){
		"bfs-solo": func(e *env) (*outcome, error) {
			return runBFS(bfsConfig{scale: 11, ranks: 4, roots: 8, setups: 2}, e)
		},
		"bfsd-serve": func(e *env) (*outcome, error) {
			return runServe(serveConfig{scale: 10, ranks: 4, pool: 8, setups: 2, rate: 200,
				openShare: 0.5, parentsShare: 0.1, warmup: 16}, e)
		},
		"bfs-socket-ckpt": func(e *env) (*outcome, error) {
			return runBFS(bfsConfig{scale: 10, ranks: 4, roots: 8, setups: 2, socket: true}, e)
		},
		"analytics": func(e *env) (*outcome, error) {
			return runAnalytics(analyticsConfig{scale: 10, ranks: 4, setups: 2, ssspRoots: 2,
				damping: 0.85, tol: 1e-6, maxIter: 50, k: 2}, e)
		},
	}
	for _, w := range workloads {
		runSmall := small[w.name]
		if runSmall == nil {
			t.Fatalf("no small configuration for workload %s", w.name)
		}
		for _, traced := range []bool{false, true} {
			e := &env{seed: 9173, seconds: 300 * time.Millisecond, traced: traced, scratch: t.TempDir()}
			out, err := runSmall(e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			out.e2e["rss_peak_mib"] = peakRSSMiB()
			res, err := buildResult(out, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d (first wrong: %v)",
					w.name, traced, res.Correct, res.Failed, out.firstWrong)
			}
			if traced && res.Metrics["trace.overhead"].Value <= 0 {
				t.Errorf("%s: trace.overhead not measured", w.name)
			}
		}
	}
}
