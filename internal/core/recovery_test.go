package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/validate"
)

// killCall is a schedule-scoped fail-stop: it kills rank at its first
// intercepted collective of iteration iter with Tag >= tag, once. Tag
// thresholds (rather than equality) make the trigger robust to components
// whose chosen direction happens to need no collective on this rank — the
// kill then lands on the next collective of the same iteration.
type killCall struct {
	rank  int
	iter  int64
	tag   int
	fired atomic.Bool
}

// chaosTransport fires a set of killCalls; everything else is reliable.
type chaosTransport struct{ kills []*killCall }

func (ct *chaosTransport) Intercept(c comm.Call) comm.FaultAction {
	var act comm.FaultAction
	for _, k := range ct.kills {
		if c.Rank != k.rank || c.Iter != k.iter || c.Tag < k.tag {
			continue
		}
		if k.fired.CompareAndSwap(false, true) {
			act.Kill = true
			return act
		}
	}
	return act
}

// failOnce injects one outright contribution failure (transient, retryable)
// on rank at its first collective of iteration iter with Tag >= tag.
type failOnce struct {
	rank  int
	iter  int64
	tag   int
	fired atomic.Bool
}

func (f *failOnce) Intercept(c comm.Call) comm.FaultAction {
	var act comm.FaultAction
	if c.Rank == f.rank && c.Iter == f.iter && c.Tag >= f.tag && f.fired.CompareAndSwap(false, true) {
		act.Fail = true
	}
	return act
}

// referenceLevels computes sequential-BFS levels for comparison.
func referenceLevels(t *testing.T, n int64, edges []rmat.Edge, root int64) []int64 {
	t.Helper()
	g := graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true})
	lvl, err := graph.Levels(g.SequentialBFS(root), root)
	if err != nil {
		t.Fatal(err)
	}
	return lvl
}

// checkRecovered asserts the recovered run's BFS tree is fully valid and
// level-identical to the fault-free reference.
func checkRecovered(t *testing.T, n int64, edges []rmat.Edge, root int64, parent []int64, refLvl []int64, label string) {
	t.Helper()
	if _, err := validate.BFS(n, edges, root, parent); err != nil {
		t.Fatalf("%s: graph500 validation: %v", label, err)
	}
	lvl, err := graph.Levels(parent, root)
	if err != nil {
		t.Fatalf("%s: levels: %v", label, err)
	}
	for v := int64(0); v < n; v++ {
		if lvl[v] != refLvl[v] {
			t.Fatalf("%s: level[%d] = %d, fault-free reference %d", label, v, lvl[v], refLvl[v])
		}
	}
}

// TestKillRecoveryShrinkAndRestore is the headline acceptance run: a SCALE-14
// BFS loses rank 3 at iteration 2 (the bfsbench `kill@rank=3,iter=2` spec),
// recovers from checkpoint under BOTH rebuild modes, and produces a BFS tree
// identical to the fault-free run, with the recovery accounted for.
func TestKillRecoveryShrinkAndRestore(t *testing.T) {
	cfg := rmat.Config{Scale: 14, Seed: 7}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(14)}

	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(ref)
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Iterations < 4 {
		t.Fatalf("reference run converged in %d iterations; kill@iter=2 would not fire", refRes.Iterations)
	}
	refLvl := referenceLevels(t, n, edges, root)

	for _, mode := range []RecoveryMode{RecoverShrink, RecoverRestore} {
		t.Run(mode.String(), func(t *testing.T) {
			plan, err := faultinject.Parse("kill@rank=3,iter=2")
			if err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Transport = plan
			opt.CheckpointDir = t.TempDir()
			opt.Recovery = mode
			eng, err := NewEngine(n, edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(root)
			if err != nil {
				t.Fatalf("recovered run failed: %v", err)
			}
			checkRecovered(t, n, edges, root, res.Parent, refLvl, mode.String())
			rec := res.Recovery
			if rec.Epochs != 1 || rec.RanksLost != 1 {
				t.Fatalf("recovery %+v: want 1 epoch, 1 rank lost", rec)
			}
			if res.Faults.Kills != 1 {
				t.Fatalf("kills = %d, want 1", res.Faults.Kills)
			}
			if rec.BytesRestored <= 0 {
				t.Fatalf("BytesRestored = %d, want > 0", rec.BytesRestored)
			}
			if rec.CheckpointSegments <= 0 || rec.CheckpointBytes <= 0 {
				t.Fatalf("checkpoint accounting %+v: want segments and bytes > 0", rec)
			}
			if rec.LastResumeIter < -1 || rec.LastResumeIter > 1 {
				t.Fatalf("LastResumeIter = %d, want in [-1, 1] (kill fired at iteration 2)", rec.LastResumeIter)
			}
			// The epoch died entering iteration 2, so iterations 0 and 1 were
			// complete; whatever the checkpoint did not cover is replayed.
			if got, want := rec.IterationsReplayed, 1-rec.LastResumeIter; got != want {
				t.Fatalf("IterationsReplayed = %d with resume@%d, want %d", got, rec.LastResumeIter, want)
			}
			if rec.RecoveryTime <= 0 {
				t.Fatalf("RecoveryTime = %v, want > 0", rec.RecoveryTime)
			}
			if eng.World.Epoch() != 1 {
				t.Fatalf("world epoch %d after one recovery, want 1", eng.World.Epoch())
			}
			if mode == RecoverRestore {
				if got, want := eng.World.Machine().Nodes, base.Mesh.Size()+1; got != want {
					t.Fatalf("restore: machine has %d nodes, want %d (spare added)", got, want)
				}
			} else if eng.World.NodeOf(3) == 3 {
				t.Fatal("shrink: dead rank 3 still maps to its own node")
			}
			t.Logf("%s: epochs=%d ranksLost=%d replayed=%d restored=%dB resume@%d recovery=%v ckpt=%d segs/%dB (dropped %d)",
				mode, rec.Epochs, rec.RanksLost, rec.IterationsReplayed, rec.BytesRestored,
				rec.LastResumeIter, rec.RecoveryTime, rec.CheckpointSegments, rec.CheckpointBytes, rec.CheckpointDropped)
		})
	}
}

// TestKillChaosMatrix sweeps every mesh shape against kills landing in each
// of the six edge-component kernels, a kill during setup (the "died during
// partitioning" case), and two simultaneous kills inside one supernode.
// Every recovered BFS must validate and match the fault-free levels exactly.
func TestKillChaosMatrix(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 11}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	meshes := []topology.Mesh{
		{Rows: 1, Cols: 4}, {Rows: 4, Cols: 1}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 3},
	}
	type scenario struct {
		name    string
		kills   func(ranks int) []*killCall
		lost    int64
		batched bool // run a 4-root RunBatch instead of a solo Run
	}
	var scenarios []scenario
	for c := partition.Component(0); c < partition.NumComponents; c++ {
		tag := int(c)
		scenarios = append(scenarios, scenario{
			name:  fmt.Sprintf("kill-during-%v", c),
			kills: func(ranks int) []*killCall { return []*killCall{{rank: ranks - 1, iter: 1, tag: tag}} },
			lost:  1,
		})
	}
	scenarios = append(scenarios,
		scenario{
			name:  "kill-during-setup",
			kills: func(ranks int) []*killCall { return []*killCall{{rank: 0, iter: -1, tag: TagSetup}} },
			lost:  1,
		},
		scenario{
			name: "two-kills-one-supernode",
			kills: func(ranks int) []*killCall {
				return []*killCall{{rank: 1, iter: 1, tag: 0}, {rank: 2, iter: 1, tag: 0}}
			},
			lost: 2,
		},
		scenario{
			name:    "kill-during-batched-sweep",
			kills:   func(ranks int) []*killCall { return []*killCall{{rank: ranks - 1, iter: 1, tag: 0}} },
			lost:    1,
			batched: true,
		},
	)
	for _, mesh := range meshes {
		base := Options{Mesh: mesh, Thresholds: DefaultThresholds(9)}
		ref, err := NewEngine(n, edges, base)
		if err != nil {
			t.Fatal(err)
		}
		root := firstConnectedRootOf(ref)
		refLvl := referenceLevels(t, n, edges, root)
		for i, sc := range scenarios {
			mode := RecoverShrink
			if i%2 == 1 {
				mode = RecoverRestore
			}
			name := fmt.Sprintf("%dx%d/%s/%s", mesh.Rows, mesh.Cols, sc.name, mode)
			t.Run(name, func(t *testing.T) {
				kills := sc.kills(mesh.Size())
				opt := base
				opt.Transport = &chaosTransport{kills: kills}
				opt.CheckpointDir = t.TempDir()
				opt.Recovery = mode
				eng, err := NewEngine(n, edges, opt)
				if err != nil {
					t.Fatal(err)
				}
				if sc.lost == 2 {
					m := eng.World.Machine()
					if !m.SameSupernode(eng.World.NodeOf(1), eng.World.NodeOf(2)) {
						t.Fatal("test premise broken: ranks 1 and 2 not in one supernode")
					}
				}
				if sc.batched {
					roots := distinctConnectedRoots(eng, 4)
					batch, err := eng.RunBatch(roots)
					if err != nil {
						t.Fatalf("recovered batch failed: %v", err)
					}
					for qi, broot := range roots {
						checkRecovered(t, n, edges, broot, batch.Queries[qi].Parent,
							referenceLevels(t, n, edges, broot), name)
					}
					if batch.Recovery.Epochs != 1 {
						t.Fatalf("epochs = %d, want 1", batch.Recovery.Epochs)
					}
					if batch.Recovery.RanksLost != sc.lost || batch.Faults.Kills != sc.lost {
						t.Fatalf("ranks lost = %d kills = %d, want %d", batch.Recovery.RanksLost, batch.Faults.Kills, sc.lost)
					}
					return
				}
				res, err := eng.Run(root)
				if err != nil {
					t.Fatalf("recovered run failed: %v", err)
				}
				checkRecovered(t, n, edges, root, res.Parent, refLvl, name)
				if res.Recovery.Epochs != 1 {
					t.Fatalf("epochs = %d, want 1 (simultaneous deaths share a rebuild)", res.Recovery.Epochs)
				}
				if res.Recovery.RanksLost != sc.lost {
					t.Fatalf("ranks lost = %d, want %d", res.Recovery.RanksLost, sc.lost)
				}
				if res.Faults.Kills != sc.lost {
					t.Fatalf("kills = %d, want %d", res.Faults.Kills, sc.lost)
				}
			})
		}
	}
}

// TestKillWithoutCheckpointRestarts: with no checkpoint store, losing a rank
// degrades to a full restart of the traversal under the rebuilt world — still
// correct, with every completed iteration counted as replayed.
func TestKillWithoutCheckpointRestarts(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 5}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(10)}
	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(ref)
	refLvl := referenceLevels(t, n, edges, root)

	opt := base
	opt.Transport = &chaosTransport{kills: []*killCall{{rank: 3, iter: 1, tag: 0}}}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(root)
	if err != nil {
		t.Fatalf("restarted run failed: %v", err)
	}
	checkRecovered(t, n, edges, root, res.Parent, refLvl, "no-checkpoint")
	if res.Recovery.Epochs != 1 || res.Recovery.RanksLost != 1 {
		t.Fatalf("recovery %+v: want 1 epoch, 1 rank", res.Recovery)
	}
	if res.Recovery.LastResumeIter != -2 {
		t.Fatalf("LastResumeIter = %d, want -2 (never resumed)", res.Recovery.LastResumeIter)
	}
	if res.Recovery.BytesRestored != 0 {
		t.Fatalf("BytesRestored = %d without a store", res.Recovery.BytesRestored)
	}
	if res.Recovery.IterationsReplayed < 1 {
		t.Fatalf("IterationsReplayed = %d, want >= 1 (iteration 0 re-ran)", res.Recovery.IterationsReplayed)
	}
}

// TestStepRetryShortCircuitsCleanSteps is the regression test for the
// step-granular retry: a transient failure in the L2L/epilogue stage must NOT
// re-execute the EH2EH kernel of the same iteration, so its scanned-edge
// count matches the fault-free run exactly while the retry counter shows the
// recovery happened.
func TestStepRetryShortCircuitsCleanSteps(t *testing.T) {
	cfg := rmat.Config{Scale: 11, Seed: 3}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 512, H: 64}}
	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(ref)
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	refLvl := referenceLevels(t, n, edges, root)

	opt := base
	opt.Transport = &failOnce{rank: 1, iter: 1, tag: int(partition.CompL2L)}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(root)
	if err != nil {
		t.Fatalf("run under transient fault failed: %v", err)
	}
	checkRecovered(t, n, edges, root, res.Parent, refLvl, "step-retry")
	if res.Retries == 0 {
		t.Fatal("transient failure never triggered a retry")
	}
	for _, p := range []stats.Phase{stats.PhaseEH2EH, stats.PhaseE2L, stats.PhaseH2L, stats.PhaseL2E, stats.PhaseL2H} {
		if got, want := res.Recorder.EdgesTouched[p], refRes.Recorder.EdgesTouched[p]; got != want {
			t.Fatalf("phase %v scanned %d edges, fault-free %d: a clean step was re-executed", p, got, want)
		}
	}
}

// TestEngineTornWriteFallsBackOneIteration corrupts the newest committed
// segment of a finished (kept) run and resumes a fresh engine from the scope:
// the store must fall back exactly one iteration and the resumed run must
// still produce a correct tree.
func TestEngineTornWriteFallsBackOneIteration(t *testing.T) {
	cfg := rmat.Config{Scale: 11, Seed: 9}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	dir := t.TempDir()
	opt := Options{
		Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: partition.Thresholds{E: 512, H: 64},
		CheckpointDir: dir, KeepCheckpoints: true,
	}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(eng)
	res, err := eng.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointScope == "" {
		t.Fatal("KeepCheckpoints left no scope behind")
	}
	refLvl := referenceLevels(t, n, edges, root)

	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := store.Scope(res.CheckpointScope)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := sc.LatestComplete(opt.Mesh.Size())
	if !ok || m < 1 {
		t.Fatalf("kept scope reports LatestComplete = (%d, %v)", m, ok)
	}
	// Bit-flip rank 0's newest segment (a torn write under CRC).
	p := filepath.Join(sc.Dir(), "rank-0000", fmt.Sprintf("iter-%08d.ckpt", m))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if it, ok := sc.LatestComplete(opt.Mesh.Size()); !ok || it != m-1 {
		t.Fatalf("after corruption LatestComplete = (%d, %v), want (%d, true): exactly one iteration back", it, ok, m-1)
	}
	// The typed corruption is visible to anyone reading past the tear.
	if _, _, err := sc.Replay(0, m, 0, 0, 0, 0); !errors.Is(err, checkpoint.ErrCheckpointCorrupt) {
		t.Fatalf("replay across the tear: %v, want ErrCheckpointCorrupt", err)
	}

	opt.ResumeFrom = res.CheckpointScope
	eng2, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Run(root)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	checkRecovered(t, n, edges, root, res2.Parent, refLvl, "resume-after-tear")
	if res2.Recovery.LastResumeIter != m-1 {
		t.Fatalf("resumed from iteration %d, want %d (one back from the tear)", res2.Recovery.LastResumeIter, m-1)
	}
	if res2.Recovery.BytesRestored <= 0 {
		t.Fatal("resume restored no bytes")
	}
}

// TestKillAtTailIterationRecoversSparse kills a rank deep in the tail of a
// long-path traversal — where every exchange is riding the sparse
// allgather — and recovers from checkpoint. The replayed tail must take the
// sparse path again (lastIterBytes resets to the unknown sentinel on resume,
// which keeps the tiny frontiers eligible) and the final parent array must be
// bit-identical to both the fault-free dense and the fault-free sparse runs.
func TestKillAtTailIterationRecoversSparse(t *testing.T) {
	const n = 256
	edges := pathEdges(n)
	base := Options{
		Mesh:          topology.Mesh{Rows: 2, Cols: 2},
		Thresholds:    partition.Thresholds{E: 256, H: 32},
		Direction:     ModePushOnly,
		MaxIterations: 300,
	}
	denseOpt := base
	denseOpt.SparseTail = SparseOff
	dense, err := NewEngine(n, edges, denseOpt)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dense.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sparseRef, err := NewEngineFromPartition(dense.Part, base) // SparseAuto default
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sparseRef.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < n; v++ {
		if dres.Parent[v] != sres.Parent[v] {
			t.Fatalf("fault-free: parent[%d] dense %d, sparse %d", v, dres.Parent[v], sres.Parent[v])
		}
	}

	const killIter = 100 // deep in the tail: iteration i has a 1-vertex frontier
	for _, mode := range []RecoveryMode{RecoverShrink, RecoverRestore} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := base
			opt.Transport = &chaosTransport{kills: []*killCall{{rank: 3, iter: killIter, tag: 0}}}
			opt.CheckpointDir = t.TempDir()
			opt.Recovery = mode
			eng, err := NewEngineFromPartition(dense.Part, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(0)
			if err != nil {
				t.Fatalf("recovered run failed: %v", err)
			}
			if res.Recovery.Epochs != 1 || res.Recovery.RanksLost != 1 {
				t.Fatalf("recovery %+v: want 1 epoch, 1 rank lost", res.Recovery)
			}
			// The checkpoint must have carried the run back near the kill, not
			// restarted the traversal from scratch.
			if res.Recovery.LastResumeIter < killIter-2 {
				t.Fatalf("resumed at iteration %d, want >= %d (tail checkpoint)", res.Recovery.LastResumeIter, killIter-2)
			}
			if sparseCalls(res) == 0 {
				t.Fatal("recovered run never used the sparse exchange")
			}
			if frac := sparseIterFraction(res); frac < 0.7 {
				t.Fatalf("only %.0f%% of recovered iterations went sparse", 100*frac)
			}
			if _, err := validate.BFS(n, edges, 0, res.Parent); err != nil {
				t.Fatalf("validation after recovery: %v", err)
			}
			for v := int64(0); v < n; v++ {
				if res.Parent[v] != dres.Parent[v] {
					t.Fatalf("parent[%d] = %d after recovery, fault-free dense run %d", v, res.Parent[v], dres.Parent[v])
				}
			}
		})
	}
}
