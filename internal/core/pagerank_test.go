package core

import (
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
)

func TestPageRankSumsToOne(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 18}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunPageRank(0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %.12f", sum)
	}
	if res.Delta > 1e-10 || res.Iterations >= 200 {
		t.Fatalf("did not converge: delta %g after %d iterations", res.Delta, res.Iterations)
	}
}

// TestPageRankHubsRankHighest: the highest-ranked vertex of an R-MAT graph
// is a hub (degree outlier) — the premise of degree-aware partitioning.
func TestPageRankHubsRankHighest(t *testing.T) {
	cfg := rmat.Config{Scale: 11, Seed: 19}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunPageRank(0.85, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for v := range res.Rank {
		if res.Rank[v] > res.Rank[best] {
			best = v
		}
	}
	if _, isHub := eng.Part.Hubs.HubOf(int64(best)); !isHub {
		t.Fatalf("top-ranked vertex %d (degree %d) is not a hub", best, eng.Part.Degrees[best])
	}
}

func TestPageRankMeshInvariance(t *testing.T) {
	cfg := rmat.Config{Scale: 8, Seed: 20}
	edges := rmat.Generate(cfg)
	n := cfg.NumVertices()
	var ref []float64
	for _, ranks := range []int{1, 2, 4, 8} {
		eng, err := NewEngine(n, edges, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunPageRank(0.85, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Rank
			continue
		}
		for v := int64(0); v < n; v++ {
			if math.Abs(res.Rank[v]-ref[v]) > 1e-12 {
				t.Fatalf("ranks=%d: rank[%d] differs from 1-rank run: %g vs %g",
					ranks, v, res.Rank[v], ref[v])
			}
		}
	}
}

// TestPageRankKillRecovery kills a rank mid-run and recovers from the newest
// complete checkpoint in both recovery modes; the ranks (stored as float bits
// in the checkpoint's int64 slots, the dangling mass in a scalar slot) must
// come out bit-identical to the fault-free run.
// TestPageRankRejectsBadDamping: damping must lie strictly inside (0, 1), and
// a rejected call leaves the engine usable.
func TestPageRankRejectsBadDamping(t *testing.T) {
	cfg := rmat.Config{Scale: 6, Seed: 1}
	eng, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunPageRank(0, 1e-6, 10); err == nil {
		t.Fatal("damping 0 accepted")
	}
	if _, err := eng.RunPageRank(1, 1e-6, 10); err == nil {
		t.Fatal("damping 1 accepted")
	}
	res, err := eng.RunPageRank(0.85, 1e-6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rank) != int(cfg.NumVertices()) {
		t.Fatalf("%d ranks for %d vertices", len(res.Rank), cfg.NumVertices())
	}
}

func TestPageRankKillRecovery(t *testing.T) {
	const killIter = 12
	cfg := rmat.Config{Scale: 8, Seed: 31}
	base := Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 64, H: 8},
	}
	ref, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runNamedWorkload(ref, "pagerank", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RecoveryMode{RecoverShrink, RecoverRestore} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := base
			opt.Transport = &chaosTransport{kills: []*killCall{{rank: 3, iter: killIter, tag: 0}}}
			opt.CheckpointDir = t.TempDir()
			opt.Recovery = mode
			eng, err := NewEngineFromPartition(ref.Part, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runNamedWorkload(eng, "pagerank", 0)
			if err != nil {
				t.Fatalf("recovered run failed: %v", err)
			}
			if res.Recovery.Epochs != 1 || res.Recovery.RanksLost != 1 || res.Faults.Kills != 1 {
				t.Fatalf("recovery %+v, kills %d: want 1 epoch, 1 rank lost, 1 kill",
					res.Recovery, res.Faults.Kills)
			}
			// The writers drain their newest capture before the resume
			// point is picked, and the mandatory bootstrap segment
			// guarantees a replay either way.
			if res.Recovery.BytesRestored <= 0 {
				t.Fatal("recovery restored no checkpoint bytes")
			}
			compareWorkloadResults(t, mode.String(), res, want)
		})
	}
}
