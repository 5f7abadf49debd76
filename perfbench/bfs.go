package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	graph500 "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// bfsConfig sizes the Graph 500 BFS workloads.
type bfsConfig struct {
	scale  int
	ranks  int // on a squarest mesh: 4 ranks = 2x2
	roots  int
	setups int // set-ups per run; setup_s is their median
	// socket runs the world as two goroutine-hosted processes on Unix
	// sockets (ranks/2 ranks each), authenticated, checkpointing every
	// iteration.
	socket bool
}

var (
	soloConfig   = bfsConfig{scale: 18, ranks: 4, roots: 64, setups: 5}
	socketConfig = bfsConfig{scale: 16, ranks: 4, roots: 64, setups: 5, socket: true}
)

// socketSecret authenticates the benchmark's own socket world.
const socketSecret = "perfbench-world-secret"

// socketWorld is a two-process world inside this process: one comm.Group
// per simulated process, talking over Unix sockets.
type socketWorld struct {
	groups []*comm.Group
}

func openSocketWorld(dir string, procs int) (*socketWorld, error) {
	addrs := make([]string, procs)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("p%d.sock", i))
	}
	sw := &socketWorld{}
	for i := 0; i < procs; i++ {
		g, err := comm.NewGroup(wire.Config{
			Proc:   i,
			Addrs:  addrs,
			Secret: socketSecret,
			// Nothing here kills a process, so a dead verdict could only be
			// a false positive from a scheduler stall on a small host.
			PeerDeadAfter: 30 * time.Second,
		})
		if err != nil {
			sw.close()
			return nil, fmt.Errorf("open socket world: %w", err)
		}
		sw.groups = append(sw.groups, g)
	}
	return sw, nil
}

// close shuts every process's endpoint down together (a graceful Close
// drains towards its peers) and waits for all of them.
func (sw *socketWorld) close() {
	var wg sync.WaitGroup
	for _, g := range sw.groups {
		wg.Add(1)
		go func(g *comm.Group) {
			defer wg.Done()
			_ = g.Close() // teardown at exit; every answer is already checked
		}(g)
	}
	wg.Wait()
}

func (sw *socketWorld) wireStats() (sent, recv, reconnects, resent uint64) {
	for _, g := range sw.groups {
		st := g.WireStats()
		sent += st.BytesSent
		recv += st.BytesRecv
		reconnects += st.Reconnects
		resent += st.FramesResent
	}
	return
}

// bfsWorld is one set-up: a runner per process (one in-process; one per
// socket-world process, which all run every traversal together, SPMD).
type bfsWorld struct {
	runners []*graph500.Runner
}

// traverse runs one BFS from root on every process and returns the results
// with the wall time of the slowest process.
func (w *bfsWorld) traverse(root int64) ([]*core.Result, time.Duration, error) {
	out := make([]*core.Result, len(w.runners))
	if len(w.runners) == 1 {
		t0 := time.Now()
		res, err := w.runners[0].Run(root)
		out[0] = res
		return out, time.Since(t0), err
	}
	errs := make([]error, len(w.runners))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, r := range w.runners {
		wg.Add(1)
		go func(i int, r *graph500.Runner) {
			defer wg.Done()
			out[i], errs[i] = r.Run(root)
		}(i, r)
	}
	wg.Wait()
	return out, time.Since(t0), errors.Join(errs...)
}

// withTracer builds a second world over the same partitions whose engines
// record spans into tr, checkpointing (when on) into ckptDir.
func (w *bfsWorld) withTracer(tr *trace.Tracer, ckptDir string) (*bfsWorld, error) {
	tw := &bfsWorld{}
	for _, r := range w.runners {
		opt := r.Engine.Opt
		opt.Trace = tr
		if opt.CheckpointDir != "" {
			opt.CheckpointDir = ckptDir
		}
		eng, err := core.NewEngineFromPartition(r.Engine.Part, opt)
		if err != nil {
			return nil, err
		}
		tw.runners = append(tw.runners, &graph500.Runner{Engine: eng})
	}
	return tw, nil
}

// bfsChecker validates every answer off the clock: the first answer for a
// root gets the full Graph 500 checks plus a recount of its TEPS numerator;
// later answers for that root must reproduce it bit for bit.
type bfsChecker struct {
	ix   *edgeIndex
	book *answerBook
}

func (c *bfsChecker) check(root int64, res []*core.Result) error {
	first := res[0]
	for p, r := range res[1:] {
		if !slices.Equal(r.Parent, first.Parent) {
			return fmt.Errorf("root %d: process %d's parent array differs from process 0's", root, p+1)
		}
	}
	dg := c.book.d.int64s(first.Parent)
	if c.book.known(root) {
		return c.book.matches(root, dg)
	}
	level, err := c.ix.checkBFS(root, first.Parent)
	if err != nil {
		return fmt.Errorf("root %d: %w", root, err)
	}
	m := c.ix.componentEdges(func(v int64) bool { return level[v] >= 0 })
	if m != first.TraversedEdges {
		return fmt.Errorf("root %d: engine counts %d traversed edges, the component has %d", root, first.TraversedEdges, m)
	}
	c.book.record(root, dg)
	return nil
}

// runBFS is the bfs-solo and bfs-socket-ckpt workload.
func runBFS(cfg bfsConfig, e *env) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	g := graph500.Generate(graph500.GenConfig{Scale: cfg.scale, Seed: e.subSeed(1)})
	out.layers["rmat.generate_s"] = time.Since(t0).Seconds()
	checker := &bfsChecker{ix: newEdgeIndex(g.NumVertices, g.Edges), book: newAnswerBook()}

	base := graph500.Config{Ranks: cfg.ranks}
	var sw *socketWorld
	var ckptRoot string
	if cfg.socket {
		var err error
		if ckptRoot, err = os.MkdirTemp(e.scratch, "bfs-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ckptRoot)
		if sw, err = openSocketWorld(ckptRoot, 2); err != nil {
			return nil, err
		}
		defer sw.close()
		base.CheckpointDir = filepath.Join(ckptRoot, "ckpt")
	}

	// Set-up, several times; setup_s is the median, and the last world is
	// the one measured.
	var world *bfsWorld
	var st setupTimer
	var setupSets []map[string]float64
	for i := 0; i < cfg.setups; i++ {
		world = nil
		st.start()
		w, err := newBFSWorld(g, base, sw, cfg.ranks)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.stop()
		setupSets = append(setupSets, setupLayers(w.runners[0].Engine))
		world = w
	}
	st.report(out)
	for k, v := range medianLayers(setupSets) {
		out.layers[k] = v
	}
	out.host.WorkingSetBytes = partitionBytes(world.runners[0].Engine.Part)

	roots, err := world.runners[0].SampleRoots(cfg.roots, e.subSeed(2))
	if err != nil {
		return nil, err
	}

	worlds := []*bfsWorld{world}
	var tr *trace.Tracer
	if e.traced {
		tr = trace.New()
		tw, err := world.withTracer(tr, filepath.Join(ckptRoot, "ckpt-traced"))
		if err != nil {
			return nil, err
		}
		worlds = append(worlds, tw)
	}

	// One untimed warm-up pass per world: the first pass runs about twice
	// as slow, and it writes the checkpoint graph tier.
	for _, w := range worlds {
		for _, root := range roots {
			res, _, err := w.traverse(root)
			if err != nil {
				return nil, fmt.Errorf("warm-up root %d: %w", root, err)
			}
			if err := checker.check(root, res); err != nil {
				out.wrong(err)
			}
		}
	}
	if tr != nil {
		tr.Reset()
	}

	// Timed passes over the roots. A traced run alternates untraced and
	// traced passes, so trace.overhead compares like with like.
	lat := make([]samples, len(worlds))
	var teps []float64 // per traversal, untraced world: the Graph 500 inputs
	var passes []group // per pass, untraced world
	ct := &coreTotals{ranks: cfg.ranks}
	spans := &spanTotals{ranks: cfg.ranks}
	var ckSegs, ckBytes, ckDropped int64
	var sent0, recv0, rec0, res0 uint64
	if sw != nil {
		sent0, recv0, rec0, res0 = sw.wireStats()
	}
	mem0 := readMem()
	var measured time.Duration
	var ops int64
	wallLimit := time.Now().Add(wallBudget(e.seconds))
	for pass := 0; measured < e.seconds && time.Now().Before(wallLimit); pass++ {
		wi := pass % len(worlds)
		w := worlds[wi]
		var pg group
		for _, root := range roots {
			c0 := cpuSeconds()
			res, dt, err := w.traverse(root)
			cpu := cpuSeconds() - c0
			out.attempted++
			ops++
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "root %d: %v\n", root, err)
				continue
			}
			measured += dt
			lat[wi].add(dt)
			if wi == 0 {
				pg.add(res[0].TraversedEdges, cpu)
				teps = append(teps, float64(res[0].TraversedEdges)/dt.Seconds())
			}
			if err := checker.check(root, res); err != nil {
				out.wrong(err)
			}
			if wi == len(worlds)-1 {
				var rec stats.Recorder
				for _, r := range res {
					rec.Merge(r.Recorder)
					ckSegs += r.Recovery.CheckpointSegments
					ckBytes += r.Recovery.CheckpointBytes
					ckDropped += r.Recovery.CheckpointDropped
				}
				ct.add(&rec, res[0].Trace)
				if tr != nil {
					spans.add(tr.Spans())
					tr.Reset()
				}
			}
		}
		if wi == 0 {
			passes = append(passes, pg)
		}
	}
	fillRuntime(out.layers, mem0, readMem(), ops)

	// The gated numbers are the best pass's CPU cost: see README for why
	// wall time is printed but not gated. The Graph 500 harmonic mean is
	// not gated either: it is set by the slowest root, and some seeds draw a
	// root in a component of a few edges, which takes it down by orders of
	// magnitude.
	out.e2e["cpu_ms_per_op"] = bestOver(passes, cpuPerOp, false) * 1e3
	out.e2e["gteps_per_core"] = bestOver(passes, edgesPerCPU, true) / 1e9
	timed := lat[0]
	var edges float64
	for _, p := range passes {
		edges += p.edges
	}
	out.note("bfs_hm_gteps", harmonicMean(teps)/1e9, "GTEPS", len(teps))
	out.note("bfs_gteps", edges/sum(timed)/1e9, "GTEPS", len(timed))
	out.note("bfs_p50_ms", median(timed)*1e3, "ms", len(timed))
	out.note("bfs_p90_ms", percentile(timed, 90)*1e3, "ms", len(timed))
	out.notef("bfs_p90_ms has %d samples beyond it; %d passes of %d roots", beyond(len(timed), 90), len(passes), len(roots))

	// Per-layer values describe the last world: the traced one in a traced
	// run. Process results are summed, so counts cover the whole world.
	ct.fill(out.layers)
	spans.fill(out.layers)
	if n := float64(ct.ops); n > 0 {
		out.layers["checkpoint.segments"] = float64(ckSegs) / n
		out.layers["checkpoint.bytes"] = float64(ckBytes) / n
		out.layers["checkpoint.dropped"] = float64(ckDropped) / n
	}
	if sw != nil {
		sent, recv, rec, resent := sw.wireStats()
		out.layers["wire.bytes_sent"] = float64(sent-sent0) / float64(ops)
		out.layers["wire.bytes_recv"] = float64(recv-recv0) / float64(ops)
		out.layers["wire.reconnects"] = float64(rec - rec0)
		out.layers["wire.frames_resent"] = float64(resent - res0)
	}
	if e.traced {
		out.layers["trace.overhead"] = median(lat[1]) / median(lat[0])
	}
	return out, nil
}

// newBFSWorld runs one set-up: graph500.New on every process (concurrently,
// as separate processes would).
func newBFSWorld(g graph500.Graph, base graph500.Config, sw *socketWorld, ranks int) (*bfsWorld, error) {
	if sw == nil {
		r, err := graph500.New(g, base)
		if err != nil {
			return nil, err
		}
		return &bfsWorld{runners: []*graph500.Runner{r}}, nil
	}
	procs := len(sw.groups)
	w := &bfsWorld{runners: make([]*graph500.Runner, procs)}
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		cfg := base
		cfg.Dist = &comm.DistConfig{Group: sw.groups[p], ProcOf: comm.ContiguousProcOf(ranks, ranks/procs)}
		wg.Add(1)
		go func(p int, cfg graph500.Config) {
			defer wg.Done()
			w.runners[p], errs[p] = graph500.New(g, cfg)
		}(p, cfg)
	}
	wg.Wait()
	return w, errors.Join(errs...)
}
