package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rmat"
	"repro/internal/validate"
)

// TestCheckBFSAgreesWithValidate runs the benchmark's checker and
// internal/validate.BFS side by side on a real answer and on broken copies
// of it: both must accept the first and reject every other.
func TestCheckBFSAgreesWithValidate(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 3}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	eng, err := core.NewEngine(n, edges, core.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix := newEdgeIndex(n, edges)
	var root int64
	for ix.ptr[root+1] == ix.ptr[root] {
		root++
	}
	res, err := eng.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	level, err := ix.checkBFS(root, res.Parent)
	if err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	vr, err := validate.BFS(n, edges, root, res.Parent)
	if err != nil {
		t.Fatalf("validate.BFS rejects the engine's answer: %v", err)
	}
	var reached int64
	for _, l := range level {
		if l >= 0 {
			reached++
		}
	}
	if reached != vr.Reached {
		t.Errorf("checker reaches %d vertices, validate.BFS %d", reached, vr.Reached)
	}
	if m := ix.componentEdges(func(v int64) bool { return level[v] >= 0 }); m != res.TraversedEdges {
		t.Errorf("component has %d edges, engine counted %d", m, res.TraversedEdges)
	}

	// Pick a reached vertex two or more levels down, and an unreached one.
	var deep, unreached int64 = -1, -1
	for v, l := range level {
		if l >= 2 && deep < 0 {
			deep = int64(v)
		}
		if l < 0 && unreached < 0 {
			unreached = int64(v)
		}
	}
	if deep < 0 || unreached < 0 {
		t.Fatal("graph too small for the corruption cases")
	}
	corrupt := map[string]func(p []int64){
		"root not its own parent": func(p []int64) { p[root] = -1 },
		"tree edge skips a level": func(p []int64) { p[deep] = root },
		"parent out of range":     func(p []int64) { p[deep] = n },
		"unreached vertex claimed": func(p []int64) {
			p[unreached] = root
		},
		"reached vertex dropped": func(p []int64) { p[deep] = -1 },
		"parent cycle":           func(p []int64) { p[p[deep]] = deep },
	}
	for name, f := range corrupt {
		p := append([]int64(nil), res.Parent...)
		f(p)
		if _, err := ix.checkBFS(root, p); err == nil {
			t.Errorf("%s: checker accepted it", name)
		}
		if _, err := validate.BFS(n, edges, root, p); err == nil {
			t.Errorf("%s: validate.BFS accepted it (case is not a real corruption)", name)
		}
	}
}

func TestAnswerBookRequiresBitIdenticalRepeat(t *testing.T) {
	b := newAnswerBook()
	a := []int64{3, -1, 3, 0}
	if b.known(3) {
		t.Fatal("empty book knows a root")
	}
	b.record(3, b.d.int64s(a))
	if err := b.matches(3, b.d.int64s(append([]int64(nil), a...))); err != nil {
		t.Errorf("identical answer rejected: %v", err)
	}
	if err := b.matches(3, b.d.int64s([]int64{3, -1, 3, 1})); err == nil {
		t.Error("different answer accepted")
	}
	if err := b.matches(4, 0); err == nil {
		t.Error("answer for an unvalidated root accepted")
	}
}
