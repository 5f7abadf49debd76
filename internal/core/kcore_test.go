package core

import (
	"testing"

	"repro/internal/rmat"
)

// TestKCoreNesting: the (k+1)-core is contained in the k-core.
func TestKCoreNesting(t *testing.T) {
	cfg := rmat.Config{Scale: 11, Seed: 92}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var prev *WorkloadResult
	for k := int64(1); k <= 32; k *= 2 {
		res, err := eng.RunKCore(k)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for v := range res.InCore {
				if res.InCore[v] && !prev.InCore[v] {
					t.Fatalf("vertex %d in the %d-core but not the %d-core", v, k, prev.K)
				}
			}
		}
		prev = res
	}
}

// TestKCoreHubsSurviveLongest: at k = H only hub-class vertices should
// mostly remain — the dense core IS the E/H subgraph, the paper's structural
// premise for delegating exactly those classes.
func TestKCoreHubsSurviveLongest(t *testing.T) {
	cfg := rmat.Config{Scale: 12, Seed: 93}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunKCore(eng.Opt.Thresholds.H)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize == 0 {
		t.Fatal("core empty at the H threshold")
	}
	var hubs int64
	for v, in := range res.InCore {
		if _, isHub := eng.Part.Hubs.HubOf(int64(v)); in && isHub {
			hubs++
		}
	}
	if 2*hubs < res.CoreSize {
		t.Fatalf("only %d of the %d-vertex %d-core are hubs", hubs, res.CoreSize, eng.Opt.Thresholds.H)
	}
}

func TestKCoreMatchesSequential(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 91}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	eng, err := NewEngine(n, edges, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 1, 2, 5, 16, 64} {
		res, err := eng.RunKCore(k)
		if err != nil {
			t.Fatal(err)
		}
		ref := sequentialKCore(n, edges, k)
		for v := int64(0); v < n; v++ {
			if res.InCore[v] != ref[v] {
				t.Fatalf("k=%d: InCore[%d] = %v, reference %v", k, v, res.InCore[v], ref[v])
			}
		}
	}
}

func TestKCoreMeshInvariance(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 94}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	var ref *WorkloadResult
	for _, ranks := range []int{1, 4, 6} {
		eng, err := NewEngine(n, edges, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunKCore(3)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Iterations != ref.Iterations {
			t.Fatalf("ranks=%d: %d peeling rounds, 1 rank took %d", ranks, res.Iterations, ref.Iterations)
		}
		for v := range ref.InCore {
			if res.InCore[v] != ref.InCore[v] {
				t.Fatalf("ranks=%d: InCore[%d] differs", ranks, v)
			}
		}
	}
}

// TestKCoreRejectsNegative: a rejected k leaves the engine usable; the
// 0-core that follows holds every vertex.
func TestKCoreRejectsNegative(t *testing.T) {
	cfg := rmat.Config{Scale: 6, Seed: 95}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunKCore(-1); err == nil {
		t.Fatal("negative k accepted")
	}
	res, err := eng.RunKCore(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize != cfg.NumVertices() {
		t.Fatalf("0-core holds %d of %d vertices", res.CoreSize, cfg.NumVertices())
	}
}
