package core

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/faultinject"
	"repro/internal/rmat"
	"repro/internal/topology"
	"repro/internal/wire"
)

// distCoreOpts builds one Options per process for an in-test socket world:
// the processes are goroutine-hosted comm.Groups talking over real unix
// sockets in a temp dir, each hosting an equal contiguous share of the
// mesh's ranks. base supplies everything but the Dist wiring.
func distCoreOpts(t *testing.T, procs int, base Options) []Options {
	t.Helper()
	ranks := base.Mesh.Size()
	if ranks%procs != 0 {
		t.Fatalf("mesh size %d not divisible by %d procs", ranks, procs)
	}
	return distCoreOptsProcOf(t, procs, comm.ContiguousProcOf(ranks, ranks/procs), base)
}

// distCoreOptsProcOf is distCoreOpts with an explicit rank→process map, for
// worlds where the split is not an even contiguous share — in particular
// spare processes, which appear in the group but host no ranks.
func distCoreOptsProcOf(t *testing.T, procs int, procOf []int, base Options) []Options {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, procs)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/p%d.sock", dir, i)
	}
	opts := make([]Options, procs)
	for i := 0; i < procs; i++ {
		g, err := comm.NewGroup(wire.Config{
			Proc:           i,
			Addrs:          addrs,
			HeartbeatEvery: 10 * time.Millisecond,
			// No scenario in this file kills a real process, so peer-death
			// detection is pure false-positive risk; keep it far above any
			// single-core scheduler stall.
			PeerDeadAfter: 30 * time.Second,
			DialTimeout:   time.Second,
			WriteTimeout:  2 * time.Second,
			BackoffBase:   2 * time.Millisecond,
			BackoffCap:    50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		o := base
		o.Dist = &comm.DistConfig{Group: g, ProcOf: procOf}
		opts[i] = o
	}
	return opts
}

// runDistEngines builds one engine per process over the same graph and runs
// body on each concurrently (the SPMD contract), failing the test on any
// error and returning the per-process outcomes.
func runDistEngines[T any](t *testing.T, n int64, edges []rmat.Edge, opts []Options,
	body func(e *Engine) (T, error)) []T {
	t.Helper()
	engines := make([]*Engine, len(opts))
	for i, o := range opts {
		eng, err := NewEngine(n, edges, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	out := make([]T, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			out[i], errs[i] = body(eng)
		}(i, eng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	return out
}

// TestDistBFSMatchesInProcess is the backend-differential anchor: the same
// BFS on the same graph must produce a bit-identical parent array whether the
// four ranks run as goroutines in one process or split 2x2 across a socket
// world. Iteration counts and the TEPS numerator must agree too — the socket
// backend is a transport change, not a schedule change.
func TestDistBFSMatchesInProcess(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 11}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(9)}

	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(ref)
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	results := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
		func(e *Engine) (*Result, error) { return e.Run(root) })
	for proc, res := range results {
		if !slices.Equal(res.Parent, refRes.Parent) {
			t.Errorf("proc %d: socket-backend parent array differs from in-process", proc)
		}
		if res.Iterations != refRes.Iterations {
			t.Errorf("proc %d: %d iterations, in-process took %d", proc, res.Iterations, refRes.Iterations)
		}
		if res.TraversedEdges != refRes.TraversedEdges {
			t.Errorf("proc %d: traversed %d edges, in-process %d", proc, res.TraversedEdges, refRes.TraversedEdges)
		}
	}
}

// TestDistWorkloadDifferential runs the per-workload differential corpus over
// both backends: WCC, k-core, SSSP, PageRank and a 3-root BFS batch on an
// in-process world vs the same mesh split across a two-process socket world,
// bit-identical outputs required on every process.
func TestDistWorkloadDifferential(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		cfg := rmat.Config{Scale: 8, Seed: seed}
		n, edges := cfg.NumVertices(), rmat.Generate(cfg)
		base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(8)}
		ref, err := NewEngine(n, edges, base)
		if err != nil {
			t.Fatal(err)
		}
		root := firstConnectedRootOf(ref)

		t.Run(fmt.Sprintf("wcc/seed%d", seed), func(t *testing.T) {
			want, err := ref.RunWCC()
			if err != nil {
				t.Fatal(err)
			}
			got := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
				func(e *Engine) (*WorkloadResult, error) { return e.RunWCC() })
			for proc, res := range got {
				if !slices.Equal(res.Label, want.Label) {
					t.Errorf("proc %d: WCC labels differ from in-process", proc)
				}
				if res.Components != want.Components {
					t.Errorf("proc %d: %d components, want %d", proc, res.Components, want.Components)
				}
			}
		})
		t.Run(fmt.Sprintf("kcore/seed%d", seed), func(t *testing.T) {
			want, err := ref.RunKCore(2)
			if err != nil {
				t.Fatal(err)
			}
			got := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
				func(e *Engine) (*WorkloadResult, error) { return e.RunKCore(2) })
			for proc, res := range got {
				if !slices.Equal(res.InCore, want.InCore) {
					t.Errorf("proc %d: k-core membership differs from in-process", proc)
				}
				if res.CoreSize != want.CoreSize {
					t.Errorf("proc %d: core size %d, want %d", proc, res.CoreSize, want.CoreSize)
				}
			}
		})
		t.Run(fmt.Sprintf("sssp/seed%d", seed), func(t *testing.T) {
			want, err := ref.RunSSSP(root, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
				func(e *Engine) (*WorkloadResult, error) { return e.RunSSSP(root, seed, 0) })
			for proc, res := range got {
				if !slices.Equal(res.Dist, want.Dist) {
					t.Errorf("proc %d: SSSP distances differ from in-process", proc)
				}
				if !slices.Equal(res.Parent, want.Parent) {
					t.Errorf("proc %d: SSSP parents differ from in-process", proc)
				}
				if res.Relaxations != want.Relaxations {
					t.Errorf("proc %d: %d relaxations, want %d", proc, res.Relaxations, want.Relaxations)
				}
			}
		})
		t.Run(fmt.Sprintf("pagerank/seed%d", seed), func(t *testing.T) {
			want, err := ref.RunPageRank(0.85, 0, 20)
			if err != nil {
				t.Fatal(err)
			}
			got := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
				func(e *Engine) (*WorkloadResult, error) { return e.RunPageRank(0.85, 0, 20) })
			for proc, res := range got {
				if !slices.Equal(res.Rank, want.Rank) {
					t.Errorf("proc %d: PageRank values differ from in-process", proc)
				}
				if res.Delta != want.Delta {
					t.Errorf("proc %d: delta %g, want %g", proc, res.Delta, want.Delta)
				}
			}
		})
		t.Run(fmt.Sprintf("batch/seed%d", seed), func(t *testing.T) {
			roots := distinctConnectedRoots(ref, 3)
			if len(roots) != 3 {
				t.Fatalf("wanted 3 roots, got %v", roots)
			}
			want, err := ref.RunBatch(roots)
			if err != nil {
				t.Fatal(err)
			}
			got := runDistEngines(t, n, edges, distCoreOpts(t, 2, base),
				func(e *Engine) (*BatchResult, error) { return e.RunBatch(roots) })
			for proc, res := range got {
				if res.Iterations != want.Iterations {
					t.Errorf("proc %d: %d sweep iterations, want %d", proc, res.Iterations, want.Iterations)
				}
				for qi, q := range res.Queries {
					w := want.Queries[qi]
					if !slices.Equal(q.Parent, w.Parent) {
						t.Errorf("proc %d root %d: parents differ from in-process", proc, q.Root)
					}
					if q.Iterations != w.Iterations || q.TraversedEdges != w.TraversedEdges {
						t.Errorf("proc %d root %d: %d iterations / %d edges, want %d / %d", proc, q.Root,
							q.Iterations, q.TraversedEdges, w.Iterations, w.TraversedEdges)
					}
				}
			}
		})
	}
}

// TestDistKillChaosMatrix replays the kill chaos scenarios on the socket
// backend: rank-level fail-stops injected on one process must surface as
// agreed ErrRankDead on both, the shared checkpoint directory must carry the
// epoch rebuild, and every recovered BFS must match the fault-free levels on
// every process. Scenarios are chosen so the dead slot re-homes onto a rank
// of the same process (contiguous 2-ranks-per-proc on a 2x2 mesh keeps
// mesh-row mates co-located), matching the once-per-plan kill latch.
func TestDistKillChaosMatrix(t *testing.T) {
	cfg := rmat.Config{Scale: 9, Seed: 11}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(9)}
	ref, err := NewEngine(n, edges, base)
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnectedRootOf(ref)
	refLvl := referenceLevels(t, n, edges, root)

	scenarios := []struct {
		name      string
		transport func() comm.Transport // fresh instance per process
		mode      RecoveryMode
		lost      int64
	}{
		{
			name: "kill-remote-proc-rank/shrink",
			transport: func() comm.Transport {
				return faultinject.MustParse("kill@rank=3,iter=2")
			},
			mode: RecoverShrink, lost: 1,
		},
		{
			name: "kill-remote-proc-rank/restore",
			transport: func() comm.Transport {
				return faultinject.MustParse("kill@rank=3,iter=2")
			},
			mode: RecoverRestore, lost: 1,
		},
		{
			name: "kill-during-setup",
			transport: func() comm.Transport {
				return &chaosTransport{kills: []*killCall{{rank: 0, iter: -1, tag: TagSetup}}}
			},
			mode: RecoverShrink, lost: 1,
		},
		{
			name: "two-kills-both-procs",
			transport: func() comm.Transport {
				return &chaosTransport{kills: []*killCall{
					{rank: 1, iter: 1, tag: 0}, {rank: 2, iter: 1, tag: 0}}}
			},
			mode: RecoverShrink, lost: 2,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ckpt := t.TempDir()
			opts := distCoreOpts(t, 2, base)
			for i := range opts {
				opts[i].Transport = sc.transport()
				opts[i].CheckpointDir = ckpt
				opts[i].Recovery = sc.mode
			}
			results := runDistEngines(t, n, edges, opts,
				func(e *Engine) (*Result, error) { return e.Run(root) })
			var kills int64
			for proc, res := range results {
				checkRecovered(t, n, edges, root, res.Parent, refLvl,
					fmt.Sprintf("%s/proc%d", sc.name, proc))
				if res.Recovery.Epochs != 1 {
					t.Errorf("proc %d: %d epochs, want 1", proc, res.Recovery.Epochs)
				}
				if res.Recovery.RanksLost != sc.lost {
					t.Errorf("proc %d: %d ranks lost, want %d", proc, res.Recovery.RanksLost, sc.lost)
				}
				kills += res.Faults.Kills
			}
			// Kills are counted by the process hosting the victim rank, so the
			// per-process tallies must sum to the scenario's casualty count.
			if kills != sc.lost {
				t.Errorf("kills across procs = %d, want %d", kills, sc.lost)
			}
		})
	}
}

// Environment keys of the SIGKILL recovery fixture (parent test below).
const (
	distHelperEnv = "CORE_DIST_HELPER"
	distProcEnv   = "CORE_DIST_PROC"
	distAddrsEnv  = "CORE_DIST_ADDRS"
	distCkptEnv   = "CORE_DIST_CKPT"
	distOutEnv    = "CORE_DIST_OUT"
	distRootEnv   = "CORE_DIST_ROOT"
	distKillEnv   = "CORE_DIST_KILL_ITER"
)

// sigkillAt is a transport that SIGKILLs its own process at the first
// intercepted collective of the given iteration: the real fail-stop. Nothing
// is flushed, no goodbye frame is sent — the peer learns of the death from
// its heartbeat detector alone.
type sigkillAt struct{ iter int64 }

func (s *sigkillAt) Intercept(c comm.Call) comm.FaultAction {
	if c.Iter == s.iter {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return comm.FaultAction{}
}

// TestDistHelperProcess is not a test: it is the subprocess body of
// TestDistRealSIGKILLRecovery, entered only when the parent re-executes the
// test binary with the fixture environment set.
func TestDistHelperProcess(t *testing.T) {
	if os.Getenv(distHelperEnv) != "1" {
		t.Skip("subprocess fixture of TestDistRealSIGKILLRecovery")
	}
	proc, err := strconv.Atoi(os.Getenv(distProcEnv))
	if err != nil {
		t.Fatal(err)
	}
	root, err := strconv.ParseInt(os.Getenv(distRootEnv), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	addrs := strings.Split(os.Getenv(distAddrsEnv), ",")
	g, err := comm.NewGroup(wire.Config{
		Proc:           proc,
		Addrs:          addrs,
		HeartbeatEvery: 20 * time.Millisecond,
		// Generous: on a loaded single-core CI box a healthy test process can
		// be starved of CPU for whole seconds, and a starved process sends no
		// heartbeats. The budget must outlast scheduler hiccups, not just
		// network ones, or the detector fires on a live peer.
		PeerDeadAfter: 10 * time.Second,
		DialTimeout:   time.Second,
		WriteTimeout:  2 * time.Second,
		BackoffBase:   5 * time.Millisecond,
		BackoffCap:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	cfg := rmat.Config{Scale: 10, Seed: 11}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	opt := Options{
		Mesh:          topology.Mesh{Rows: 2, Cols: 2},
		Thresholds:    DefaultThresholds(10),
		Dist:          &comm.DistConfig{Group: g, ProcOf: comm.ContiguousProcOf(4, 2)},
		CheckpointDir: os.Getenv(distCkptEnv),
	}
	if s := os.Getenv(distKillEnv); s != "" {
		iter, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		opt.Transport = &sigkillAt{iter: iter}
	}
	eng, err := NewEngine(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(root)
	if err != nil {
		t.Fatalf("run failed on proc %d: %v", proc, err)
	}
	t.Logf("proc %d: recovery %+v wire %+v dead %v", proc, res.Recovery, g.WireStats(), g.DeadProcs())
	if out := os.Getenv(distOutEnv); out != "" {
		var sb strings.Builder
		fmt.Fprintf(&sb, "epochs=%d lost=%d resume=%d\n",
			res.Recovery.Epochs, res.Recovery.RanksLost, res.Recovery.LastResumeIter)
		for _, p := range res.Parent {
			fmt.Fprintf(&sb, "%d\n", p)
		}
		if err := os.WriteFile(out, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistRealSIGKILLRecovery is the acceptance run for the socket backend's
// fail-stop story: two real OS processes split a 2x2 BFS over unix sockets
// with a shared checkpoint directory; process 1 SIGKILLs itself mid-iteration
// (no flush, no goodbye). The survivor's heartbeat detector must declare the
// peer dead, shrink the world onto itself, replay from the shared checkpoint
// truth, and finish with a parent tree bit-identical to a fault-free
// in-process run on the same seed.
func TestDistRealSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits out the failure detector")
	}
	cfg := rmat.Config{Scale: 10, Seed: 11}
	n, edges := cfg.NumVertices(), rmat.Generate(cfg)
	base := Options{Mesh: topology.Mesh{Rows: 2, Cols: 2}, Thresholds: DefaultThresholds(10)}
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
		t.Fatalf("reference converged in %d iterations; a kill at iteration 2 would not land mid-run", refRes.Iterations)
	}

	dir := t.TempDir()
	addrs := fmt.Sprintf("unix:%s/p0.sock,unix:%s/p1.sock", dir, dir)
	ckpt := t.TempDir()
	out := dir + "/parent.out"

	spawn := func(proc int, extra ...string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDistHelperProcess$", "-test.v")
		cmd.Env = append(os.Environ(),
			distHelperEnv+"=1",
			fmt.Sprintf("%s=%d", distProcEnv, proc),
			distAddrsEnv+"="+addrs,
			distCkptEnv+"="+ckpt,
			fmt.Sprintf("%s=%d", distRootEnv, root),
		)
		cmd.Env = append(cmd.Env, extra...)
		return cmd
	}
	survivor := spawn(0, distOutEnv+"="+out)
	victim := spawn(1, distKillEnv+"=2")
	var survivorOut, victimOut strings.Builder
	survivor.Stdout, survivor.Stderr = &survivorOut, &survivorOut
	victim.Stdout, victim.Stderr = &victimOut, &victimOut
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		_ = survivor.Process.Kill()
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(3*time.Minute, func() {
		_ = survivor.Process.Kill()
		_ = victim.Process.Kill()
	})
	defer watchdog.Stop()

	verr := victim.Wait()
	ee, ok := verr.(*exec.ExitError)
	if !ok {
		t.Errorf("victim exited cleanly (%v); wanted death by SIGKILL", verr)
	} else if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signal() != syscall.SIGKILL {
		t.Errorf("victim died of %v, want SIGKILL\n%s", ws.Signal(), victimOut.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor failed: %v\n%s", err, survivorOut.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("survivor wrote no result: %v\n%s", err, survivorOut.String())
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != int(n)+1 {
		t.Fatalf("result has %d lines, want %d", len(lines), n+1)
	}
	var epochs, lost, resume int64
	if _, err := fmt.Sscanf(lines[0], "epochs=%d lost=%d resume=%d", &epochs, &lost, &resume); err != nil {
		t.Fatalf("bad stats line %q: %v", lines[0], err)
	}
	// Exactly one epoch is the expected path; a CPU-starved box can fire the
	// failure detector spuriously and cost an extra epoch, which recovery must
	// absorb — so the hard assertions are "a rebuild happened" and "both of
	// the dead process's ranks were declared", with the bit-identical parent
	// check below carrying the correctness burden.
	if epochs < 1 || lost < 2 {
		t.Errorf("recovery stats epochs=%d lost=%d, want >=1 epoch covering both of the dead process's ranks\nsurvivor output:\n%s\nvictim output:\n%s",
			epochs, lost, survivorOut.String(), victimOut.String())
	}
	for i, line := range lines[1:] {
		p, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("bad parent line %d: %v", i, err)
		}
		if p != refRes.Parent[i] {
			t.Fatalf("parent[%d] = %d after SIGKILL recovery, want %d (fault-free in-process)", i, p, refRes.Parent[i])
		}
	}
	t.Logf("survivor recovered: epochs=%d lost=%d resume@%d", epochs, lost, resume)
}
