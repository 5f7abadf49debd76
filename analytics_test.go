package graph500

import (
	"math"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/trace"
)

func TestSSSPPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 23})
	ss, err := NewSSSP(g, Config{Ranks: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ss.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1] != 0 || res.Parent[1] != 1 {
		t.Fatal("root state wrong")
	}
	// BFS reachability and SSSP reachability agree on an undirected graph.
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := r.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		bfsReached := bfs.Parent[v] >= 0
		ssspReached := res.Parent[v] >= 0
		if bfsReached != ssspReached {
			t.Fatalf("vertex %d: BFS reached=%v, SSSP reached=%v", v, bfsReached, ssspReached)
		}
	}
	// Weight accessor is consistent and symmetric.
	if ss.EdgeWeight(3, 9) != ss.EdgeWeight(9, 3) {
		t.Fatal("EdgeWeight not symmetric")
	}
}

func TestSSSPDistanceBelowHops(t *testing.T) {
	// With weights < 1, shortest distance is strictly below the hop count
	// except trivially; sanity-check dist ≤ hops for every vertex.
	g := Generate(GenConfig{Scale: 8, Seed: 24})
	ss, err := NewSSSP(g, Config{Ranks: 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ss.RunValidated(0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := New(g, Config{Ranks: 4})
	bfs, err := r.RunValidated(0)
	if err != nil {
		t.Fatal(err)
	}
	// hops via parent chains
	for v := int64(0); v < g.NumVertices; v++ {
		if bfs.Parent[v] < 0 {
			continue
		}
		hops := 0
		for u := v; u != 0; u = bfs.Parent[u] {
			hops++
			if hops > 1000 {
				t.Fatal("parent chain too long")
			}
		}
		if res.Dist[v] > float64(hops)+1e-9 {
			t.Fatalf("dist[%d] = %g exceeds hop count %d with sub-unit weights", v, res.Dist[v], hops)
		}
	}
}

func TestAnalyticsPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 25})
	an, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := an.PageRank(0.85, 1e-8, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pr.Rank {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank mass %g", sum)
	}
	wcc, err := an.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if wcc.Components <= 0 {
		t.Fatal("no components found")
	}
	// Every edge's endpoints share a label.
	for _, e := range g.Edges {
		if wcc.Label[e.U] != wcc.Label[e.V] {
			t.Fatalf("edge (%d,%d) spans components %d and %d", e.U, e.V, wcc.Label[e.U], wcc.Label[e.V])
		}
	}
}

func TestSubIterationBeatsWholeIterationEdges(t *testing.T) {
	// With the tuned heuristics, sub-iteration direction optimization must
	// touch no more edges than vanilla whole-iteration direction
	// optimization on a dense R-MAT graph (the paper's Figure 15 claim).
	g := Generate(GenConfig{Scale: 14, Seed: 26})
	run := func(mode DirectionMode) int64 {
		r, err := New(g, Config{Ranks: 4, Direction: mode})
		if err != nil {
			t.Fatal(err)
		}
		roots, err := r.SampleRoots(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunValidated(roots[0])
		if err != nil {
			t.Fatal(err)
		}
		return res.Recorder.TotalEdges()
	}
	sub := run(SubIterationDirections)
	whole := run(WholeIterationDirection)
	push := run(PushOnly)
	// Direction optimization of either flavor must slash plain top-down work.
	if sub*2 > push {
		t.Fatalf("sub-iteration touched %d edges vs %d push-only; expected >2x saving", sub, push)
	}
	// Sub-iteration must be competitive with whole-iteration (allow a few
	// percent of per-instance noise; on aggregate it wins, per Figure 15).
	if float64(sub) > 1.05*float64(whole) {
		t.Fatalf("sub-iteration touched %d edges, whole-iteration %d", sub, whole)
	}
}

func TestReachabilityPublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 27})
	an, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	masks, err := an.Reachability([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if masks[1]&1 == 0 || masks[2]&2 == 0 {
		t.Fatal("sources do not reach themselves")
	}
	// Cross-check against single-source BFS reachability.
	r, err := New(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := r.RunValidated(1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if (bfs.Parent[v] >= 0) != (masks[v]&1 != 0) {
			t.Fatalf("vertex %d: BFS and Reachability disagree", v)
		}
	}
}

// TestReachabilityMatchesBFS checks every source's bit of the batched sweep
// against sequential BFS reachability.
func TestReachabilityMatchesBFS(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 83})
	an, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sources := []int64{0, 7, 99, 500}
	masks, err := an.Reachability(sources)
	if err != nil {
		t.Fatal(err)
	}
	sg := graph.FromEdges(g.NumVertices, g.Edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	for s, src := range sources {
		parent := sg.SequentialBFS(src)
		for v := int64(0); v < g.NumVertices; v++ {
			want := parent[v] >= 0
			if got := masks[v]&(1<<uint(s)) != 0; got != want {
				t.Fatalf("source %d vertex %d: reachability %v, BFS says %v", src, v, got, want)
			}
		}
	}
}

// TestAnalyticsRejectsMissingRanks: a Config with neither Mesh nor Ranks is
// an error, not a silent default.
func TestAnalyticsRejectsMissingRanks(t *testing.T) {
	g := Generate(GenConfig{Scale: 6, Seed: 1})
	if _, err := NewAnalytics(g, Config{}); err == nil {
		t.Fatal("missing mesh/ranks accepted")
	}
}

func TestKCorePublicAPI(t *testing.T) {
	g := Generate(GenConfig{Scale: 9, Seed: 28})
	an, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	core2, err := an.KCore(2)
	if err != nil {
		t.Fatal(err)
	}
	core8, err := an.KCore(8)
	if err != nil {
		t.Fatal(err)
	}
	if core8.CoreSize > core2.CoreSize {
		t.Fatalf("8-core (%d) larger than 2-core (%d)", core8.CoreSize, core2.CoreSize)
	}
}

func TestReachabilityValidatesInput(t *testing.T) {
	g := Generate(GenConfig{Scale: 6, Seed: 85})
	an, err := NewAnalytics(g, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Reachability(nil); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, err := an.Reachability(make([]int64, 65)); err == nil {
		t.Fatal("65 sources accepted")
	}
	if _, err := an.Reachability([]int64{-1}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := an.Reachability([]int64{g.NumVertices}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestReachabilityAllSixtyFourSources(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 84})
	an, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]int64, 64)
	for i := range sources {
		sources[i] = int64(i * 3)
	}
	masks, err := an.Reachability(sources)
	if err != nil {
		t.Fatal(err)
	}
	for s, src := range sources {
		if masks[src]&(1<<uint(s)) == 0 {
			t.Fatalf("source %d does not reach itself", src)
		}
	}
}

// TestAnalyticsHonorsConfig: NewAnalytics takes the same Config→engine
// conversion as New, so a Trace records the analytics workloads' spans and a
// fault plan drives retries without changing a single rank bit.
func TestAnalyticsHonorsConfig(t *testing.T) {
	g := Generate(GenConfig{Scale: 8, Seed: 29})
	clean, err := NewAnalytics(g, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.PageRank(0.85, 0, 20)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New()
	traced, err := NewAnalytics(g, Config{Ranks: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.PageRank(0.85, 0, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := traced.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	for _, name := range []string{"rank_sync", "label_sync"} {
		if !names[name] {
			t.Errorf("trace has no %q span", name)
		}
	}

	plan := faultinject.New(7)
	plan.FailProb = 0.01
	faulty, err := NewAnalytics(g, Config{Ranks: 4, Faults: plan, MaxRetries: 12})
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.PageRank(0.85, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Retries == 0 {
		t.Fatal("fault plan forced no retry")
	}
	for v := range want.Rank {
		if math.Float64bits(got.Rank[v]) != math.Float64bits(want.Rank[v]) {
			t.Fatalf("rank[%d] = %v under faults, %v fault-free", v, got.Rank[v], want.Rank[v])
		}
	}
}
