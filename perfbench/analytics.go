package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	graph500 "repro"
	"repro/internal/core"
	"repro/internal/sssp"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// analyticsConfig sizes the analytics workload.
type analyticsConfig struct {
	scale, ranks int
	setups       int // set-ups per run; setup_s is their median
	ssspRoots    int // distinct SSSP roots, one per suite pass in turn
	damping, tol float64
	maxIter      int
	k            int64
}

// analyticsDefaults: PageRank's tolerance is below what 20 rounds reach, so
// every call does the same 20 rounds of work whatever the graph.
var analyticsDefaults = analyticsConfig{scale: 17, ranks: 4, setups: 5, ssspRoots: 8,
	damping: 0.85, tol: 1e-12, maxIter: 20, k: 2}

// analyticsSet is one set-up of the public analytics objects.
type analyticsSet struct {
	a *graph500.Analytics
	s *graph500.SSSPRunner
}

func newAnalyticsSet(g graph500.Graph, cfg graph500.Config, weightSeed uint64) (*analyticsSet, error) {
	a, err := graph500.NewAnalytics(g, cfg)
	if err != nil {
		return nil, err
	}
	s, err := graph500.NewSSSP(g, cfg, weightSeed)
	if err != nil {
		return nil, err
	}
	return &analyticsSet{a: a, s: s}, nil
}

// analyticsChecker validates every analytics answer off the clock.
type analyticsChecker struct {
	g          graph500.Graph
	ix         *edgeIndex
	weightSeed uint64
	wcc        []int64 // core.Engine.RunWCC labels
	inCore     []bool  // core.Engine.RunKCore membership
	book       *answerBook
	ssspEdges  map[int64]int64 // TEPS numerator per validated SSSP root
}

func (c *analyticsChecker) pageRank(pr *graph500.PageRankResult) error {
	var sum float64
	for v, r := range pr.Rank {
		if !(r >= 0) || math.IsInf(r, 0) {
			return fmt.Errorf("pagerank: rank[%d]=%g", v, r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("pagerank: mass sums to %.15g, want 1", sum)
	}
	return nil
}

func (c *analyticsChecker) components(w *graph500.WCCResult) error {
	if !slices.Equal(w.Label, c.wcc) {
		return fmt.Errorf("components: labels differ from Engine.RunWCC")
	}
	return nil
}

func (c *analyticsChecker) kcore(k *graph500.KCoreResult) error {
	if !slices.Equal(k.InCore, c.inCore) {
		return fmt.Errorf("k-core: membership differs from Engine.RunKCore")
	}
	return nil
}

// sssp validates a root's first answer with sssp.ValidateResult; later
// answers for the root must reproduce it bit for bit.
func (c *analyticsChecker) sssp(res *graph500.SSSPResult) error {
	dg := c.book.d.float64s(res.Dist) ^ c.book.d.int64s(res.Parent)*0x9e3779b97f4a7c15
	if c.book.known(res.Root) {
		return c.book.matches(res.Root, dg)
	}
	if err := sssp.ValidateResult(c.g.NumVertices, c.g.Edges, c.weightSeed, res); err != nil {
		return fmt.Errorf("root %d: %w", res.Root, err)
	}
	c.ssspEdges[res.Root] = c.ix.componentEdges(func(v int64) bool { return res.Parent[v] >= 0 })
	c.book.record(res.Root, dg)
	return nil
}

// passTimes is one pass: each call's wall time, and the CPU time of the
// suite's three calls and of the SSSP call.
type passTimes struct {
	pr, wcc, kcore, sssp time.Duration
	suiteCPU, ssspCPU    float64
}

// suite is the pass's PageRank, components and k-core time, the operation
// cpu_ms_per_op costs. SSSP time varies with the root, so it is reported
// through its TEPS instead.
func (p passTimes) suite() time.Duration { return p.pr + p.wcc + p.kcore }

// suiteRound is how many passes one group of suite costs spans.
const suiteRound = 4

// runAnalytics is the analytics workload: passes of PageRank, connected
// components, k-core and SSSP from one root (the roots in turn), each
// through the public facade.
func runAnalytics(cfg analyticsConfig, e *env) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	g := graph500.Generate(graph500.GenConfig{Scale: cfg.scale, Seed: e.subSeed(1)})
	out.layers["rmat.generate_s"] = time.Since(t0).Seconds()
	ix := newEdgeIndex(g.NumVertices, g.Edges)
	weightSeed := e.subSeed(4)
	base := graph500.Config{Ranks: cfg.ranks}

	var set *analyticsSet
	var st setupTimer
	for i := 0; i < cfg.setups; i++ {
		set = nil
		st.start()
		s, err := newAnalyticsSet(g, base, weightSeed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.stop()
		set = s
	}
	st.report(out)

	// The reference answers come from the core engine's own WCC and k-core
	// drivers. The facade keeps its partitions private, so the partition
	// stage times reported here are this engine's.
	ref, err := core.NewEngine(g.NumVertices, g.Edges, core.Options{Ranks: cfg.ranks})
	if err != nil {
		return nil, err
	}
	for k, v := range setupLayers(ref) {
		out.layers[k] = v
	}
	out.host.WorkingSetBytes = partitionBytes(ref.Part)
	wcc, err := ref.RunWCC()
	if err != nil {
		return nil, err
	}
	kc, err := ref.RunKCore(cfg.k)
	if err != nil {
		return nil, err
	}
	checker := &analyticsChecker{g: g, ix: ix, weightSeed: weightSeed, wcc: wcc.Label,
		inCore: kc.InCore, book: newAnswerBook(), ssspEdges: make(map[int64]int64)}
	ref, wcc, kc = nil, nil, nil

	rng := xrand.NewXoshiro256(e.subSeed(2))
	var roots []int64
	for len(roots) < cfg.ssspRoots {
		v := int64(rng.Uint64n(uint64(g.NumVertices)))
		if ix.ptr[v+1] > ix.ptr[v] && !slices.Contains(roots, v) {
			roots = append(roots, v)
		}
	}

	sets := []*analyticsSet{set}
	var tr *trace.Tracer
	if e.traced {
		tr = trace.New()
		tcfg := base
		tcfg.Trace = tr
		ts, err := newAnalyticsSet(g, tcfg, weightSeed)
		if err != nil {
			return nil, err
		}
		sets = append(sets, ts)
	}

	ct := struct{ pr, wcc, kc, sssp, relax, calls float64 }{}
	spans := &spanTotals{ranks: cfg.ranks}
	pass := func(s *analyticsSet, root int64, fold bool) (passTimes, error) {
		var pt passTimes
		c0 := cpuSeconds()
		t0 := time.Now()
		pr, err := s.a.PageRank(cfg.damping, cfg.tol, cfg.maxIter)
		pt.pr = time.Since(t0)
		if err != nil {
			return pt, fmt.Errorf("pagerank: %w", err)
		}
		t0 = time.Now()
		w, err := s.a.ConnectedComponents()
		pt.wcc = time.Since(t0)
		if err != nil {
			return pt, fmt.Errorf("components: %w", err)
		}
		t0 = time.Now()
		k, err := s.a.KCore(cfg.k)
		pt.kcore = time.Since(t0)
		pt.suiteCPU = cpuSeconds() - c0
		if err != nil {
			return pt, fmt.Errorf("k-core: %w", err)
		}
		c0, t0 = cpuSeconds(), time.Now()
		sp, err := s.s.Run(root)
		pt.sssp = time.Since(t0)
		pt.ssspCPU = cpuSeconds() - c0
		if err != nil {
			return pt, fmt.Errorf("sssp root %d: %w", root, err)
		}
		for _, cerr := range []error{checker.pageRank(pr), checker.components(w), checker.kcore(k), checker.sssp(sp)} {
			if cerr != nil {
				out.wrong(cerr)
			}
		}
		if fold {
			ct.pr += float64(pr.Iterations)
			ct.wcc += float64(w.Iterations)
			ct.kc += float64(k.Iterations)
			ct.sssp += float64(sp.Rounds)
			ct.relax += float64(sp.Relaxations)
			ct.calls++
			if tr != nil {
				spans.add(tr.Spans())
				tr.Reset()
			}
		}
		return pt, nil
	}

	// One untimed warm-up pass per set.
	for _, s := range sets {
		if _, err := pass(s, roots[0], false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if tr != nil {
		tr.Reset()
	}

	passes := make([][]passTimes, len(sets))
	var teps []float64 // per SSSP call, untraced set: the Graph 500 inputs
	// For the untraced set: the suite's CPU cost in rounds of suiteRound
	// passes, and every SSSP call. SSSP cost depends on the root, so it is
	// pooled over all roots rather than taken from the cheapest round.
	var suiteRounds []group
	var ssspAll group
	mem0 := readMem()
	var measured time.Duration
	var ops int64
	wallLimit := time.Now().Add(wallBudget(e.seconds))
	for i := 0; measured < e.seconds && time.Now().Before(wallLimit); i++ {
		si := i % len(sets)
		ri := i / len(sets)
		root := roots[ri%len(roots)]
		out.attempted += 4
		ops += 4
		pt, err := pass(sets[si], root, si == len(sets)-1)
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		measured += pt.suite() + pt.sssp
		passes[si] = append(passes[si], pt)
		if si == 0 {
			m := checker.ssspEdges[root]
			teps = append(teps, float64(m)/pt.sssp.Seconds())
			if ri%suiteRound == 0 {
				suiteRounds = append(suiteRounds, group{})
			}
			suiteRounds[len(suiteRounds)-1].add(0, pt.suiteCPU)
			ssspAll.add(m, pt.ssspCPU)
		}
	}
	fillRuntime(out.layers, mem0, readMem(), ops)

	var suites, prS, wccS, kcS, ssspS []float64
	for _, pt := range passes[0] {
		suites = append(suites, pt.suite().Seconds())
		prS = append(prS, pt.pr.Seconds())
		wccS = append(wccS, pt.wcc.Seconds())
		kcS = append(kcS, pt.kcore.Seconds())
		ssspS = append(ssspS, pt.sssp.Seconds())
	}
	// The gated numbers are CPU costs: the cheapest round's suite, and SSSP
	// edges per CPU-second over every call. The Graph 500 harmonic mean is
	// printed, not gated (see runBFS).
	out.e2e["cpu_ms_per_op"] = bestOver(suiteRounds, cpuPerOp, false) * 1e3
	out.e2e["gteps_per_core"] = edgesPerCPU(ssspAll) / 1e9
	out.note("suite_p50_ms", median(suites)*1e3, "ms", len(suites))
	out.note("suite_p90_ms", percentile(suites, 90)*1e3, "ms", len(suites))
	out.note("pagerank_s", median(prS), "s", len(prS))
	out.note("wcc_s", median(wccS), "s", len(wccS))
	out.note("kcore_s", median(kcS), "s", len(kcS))
	out.note("sssp_s", median(ssspS), "s", len(ssspS))
	out.note("sssp_hm_gteps", harmonicMean(teps)/1e9, "GTEPS", len(teps))

	if ct.calls > 0 {
		out.layers["framework.pagerank_rounds"] = ct.pr / ct.calls
		out.layers["framework.wcc_rounds"] = ct.wcc / ct.calls
		out.layers["framework.kcore_rounds"] = ct.kc / ct.calls
		out.layers["core.sssp_rounds"] = ct.sssp / ct.calls
		out.layers["core.sssp_relaxations"] = ct.relax / ct.calls
	}
	spans.fill(out.layers)
	if e.traced {
		var traced []float64
		for _, pt := range passes[1] {
			traced = append(traced, pt.suite().Seconds())
		}
		out.layers["trace.overhead"] = median(traced) / median(suites)
	}
	return out, nil
}
