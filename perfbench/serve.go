package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	graph500 "repro"
	"repro/internal/bfsd"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// serveConfig sizes the bfsd-serve workload.
type serveConfig struct {
	scale, ranks int
	pool         int     // distinct query roots
	setups       int     // set-ups per run; setup_s is their median
	rate         float64 // open-loop arrivals per second
	openShare    float64 // share of the measuring time spent in the open loop
	parentsShare float64 // share of queries asking for the whole parent array
	warmup       int     // untimed closed-loop queries before measuring
}

// maxBatch is the batcher's default sweep width; the closed loop keeps this
// many requests in flight so sweeps can fill.
const maxBatch = 8

// serveDefaults: the open-loop rate is about a fifth of the closed-loop
// capacity measured on a 2-core host (about 200 queries/s). Open-loop
// sweeps carry one or two queries, so this keeps the service well below
// saturation, where latency measures service time rather than queueing
// behind host noise.
var serveDefaults = serveConfig{scale: 16, ranks: 4, pool: 64, setups: 5,
	rate: 40, openShare: 0.6, parentsShare: 0.1, warmup: 128}

// sweepMeter wraps the engine the batcher drives, timing each multi-source
// sweep and folding its recorder and (when traced) its spans. The batcher
// runs one sweep at a time, so the tracer is idle whenever a sweep returns.
type sweepMeter struct {
	eng *core.Engine
	tr  *trace.Tracer

	mu       sync.Mutex
	sweeps   []sweepRec
	widthSum int64
	occSum   float64
	ct       coreTotals
	st       spanTotals
}

type sweepRec struct {
	end time.Time
	dur time.Duration
}

func (m *sweepMeter) RunBatch(roots []int64) (*core.BatchResult, error) {
	t0 := time.Now()
	res, err := m.eng.RunBatch(roots)
	t1 := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweeps = append(m.sweeps, sweepRec{end: t1, dur: t1.Sub(t0)})
	m.widthSum += int64(len(roots))
	if err == nil {
		m.occSum += res.AvgOccupancy
		m.ct.add(res.Recorder, res.Trace)
	}
	if m.tr != nil {
		m.st.add(m.tr.Spans())
		m.tr.Reset()
	}
	return res, err
}

// sweepNear returns the duration of the sweep that ended closest to t.
func (m *sweepMeter) sweepNear(t time.Time) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sweeps
	if len(s) == 0 {
		return 0, false
	}
	i := sort.Search(len(s), func(i int) bool { return !s[i].end.Before(t) })
	best := -1
	for _, j := range []int{i - 1, i} {
		if j < 0 || j >= len(s) {
			continue
		}
		if best < 0 || absDur(s[j].end.Sub(t)) < absDur(s[best].end.Sub(t)) {
			best = j
		}
	}
	return s[best].dur, true
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// query is one generated request.
type query struct {
	Root   int64  `json:"root"`
	Op     string `json:"op"`
	Target *int64 `json:"target,omitempty"`
}

// reply is one request's fate as the load generator saw it.
type reply struct {
	q               query
	due, start, end time.Time
	code            int
	body            []byte
}

// service is one bfsd stack: engine behind meter, batcher and HTTP handler.
type service struct {
	meter   *sweepMeter
	batcher *bfsd.Batcher
	handler http.Handler
}

func newService(eng *core.Engine, tr *trace.Tracer, n int64, ranks int) *service {
	m := &sweepMeter{eng: eng, tr: tr, ct: coreTotals{ranks: ranks}, st: spanTotals{ranks: ranks}}
	b := bfsd.NewBatcher(m, bfsd.Config{})
	return &service{meter: m, batcher: b, handler: bfsd.NewServer(b, n).Handler()}
}

// do serves one request in process through the daemon's handler.
func (s *service) do(q query, due time.Time) reply {
	body, _ := json.Marshal(q) // a struct of ints and a string always encodes
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.handler.ServeHTTP(rec, req)
	return reply{q: q, due: due, start: start, end: time.Now(), code: rec.Code, body: rec.Body.Bytes()}
}

// poissonSchedule returns arrival offsets of a Poisson process at rate per
// second over dur, drawn from seed.
func poissonSchedule(rate float64, dur time.Duration, seed uint64) []time.Duration {
	rng := xrand.NewXoshiro256(seed)
	var out []time.Duration
	var t float64
	for {
		t += -math.Log(1-rng.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// openLoop sends qs[i] at offset sched[i] from now whether or not earlier
// requests have been answered, and waits for every answer. Each reply keeps
// its due time, so latency counts any wait a stall imposed on later
// requests, and start-due is how late the generator ran.
func (s *service) openLoop(sched []time.Duration, qs []query) []reply {
	out := make([]reply, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = s.do(qs[i], due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop runs one client per generator, each sending its next request
// when the previous one is answered, for as long as more() allows.
func (s *service) closedLoop(gens []*queryGen, more func() bool) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for _, gen := range gens {
		wg.Add(1)
		go func(gen *queryGen) {
			defer wg.Done()
			var mine []reply
			for more() {
				mine = append(mine, s.do(gen.next(), time.Now()))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(gen)
	}
	wg.Wait()
	return out
}

// forDuration allows requests until dur has passed.
func forDuration(dur time.Duration) func() bool {
	deadline := time.Now().Add(dur)
	return func() bool { return time.Now().Before(deadline) }
}

// forCount allows exactly n requests in total.
func forCount(n int64) func() bool {
	var left atomic.Int64
	left.Store(n)
	return func() bool { return left.Add(-1) >= 0 }
}

// queryGen draws the operation mix: roots from the pool, mostly distance and
// reach queries with a fixed share of whole parent arrays.
type queryGen struct {
	rng          *xrand.Xoshiro256
	pool         []int64
	n            int64
	parentsShare float64
}

func (g *queryGen) next() query {
	q := query{Root: g.pool[g.rng.Uint64n(uint64(len(g.pool)))]}
	u := g.rng.Float64()
	switch {
	case u < g.parentsShare:
		q.Op = bfsd.OpParents
		return q
	case u < (1+g.parentsShare)/2:
		q.Op = bfsd.OpDistance
	default:
		q.Op = bfsd.OpReach
	}
	t := int64(g.rng.Uint64n(uint64(g.n)))
	q.Target = &t
	return q
}

// serveRef is a pool root's validated answer: levels for distance and
// reach, a digest for the parent array, and the TEPS numerator.
type serveRef struct {
	level  []int32
	digest uint64
	edges  int64
}

// checkReply checks one 200 answer against the validated reference.
func checkReply(r reply, refs map[int64]*serveRef, d digester) (*bfsd.QueryResponse, error) {
	var resp bfsd.QueryResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	ref := refs[r.q.Root]
	if resp.Root != r.q.Root || resp.Op != r.q.Op {
		return nil, fmt.Errorf("answer for root %d op %s, asked root %d op %s", resp.Root, resp.Op, r.q.Root, r.q.Op)
	}
	switch r.q.Op {
	case bfsd.OpParents:
		if d.int64s(resp.Parents) != ref.digest {
			return nil, fmt.Errorf("root %d: parent array differs from the validated one", r.q.Root)
		}
	case bfsd.OpDistance:
		want := int64(ref.level[*r.q.Target])
		if resp.Distance == nil || *resp.Distance != want {
			return nil, fmt.Errorf("root %d target %d: distance %v, want %d", r.q.Root, *r.q.Target, resp.Distance, want)
		}
	case bfsd.OpReach:
		want := ref.level[*r.q.Target] >= 0
		if resp.Reachable == nil || *resp.Reachable != want {
			return nil, fmt.Errorf("root %d target %d: reachable %v, want %v", r.q.Root, *r.q.Target, resp.Reachable, want)
		}
	}
	return &resp, nil
}

// phaseStats summarises one service's two measured phases.
type phaseStats struct {
	openLat, handler, queueWait, late samples
	satQPS, satGTEPS                  float64
	satAnswered                       int
	cpuPerQuery, closedEdgesPerCPU    float64
}

// runServe is the bfsd-serve workload.
func runServe(cfg serveConfig, e *env) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	g := graph500.Generate(graph500.GenConfig{Scale: cfg.scale, Seed: e.subSeed(1)})
	out.layers["rmat.generate_s"] = time.Since(t0).Seconds()
	ix := newEdgeIndex(g.NumVertices, g.Edges)

	var runner *graph500.Runner
	var svc *service
	var st setupTimer
	var setupSets []map[string]float64
	for i := 0; i < cfg.setups; i++ {
		if svc != nil {
			svc.batcher.Close()
		}
		runner, svc = nil, nil
		st.start()
		r, err := graph500.New(g, graph500.Config{Ranks: cfg.ranks})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := newService(r.Engine, nil, g.NumVertices, cfg.ranks)
		st.stop()
		setupSets = append(setupSets, setupLayers(r.Engine))
		runner, svc = r, s
	}
	defer svc.batcher.Close()
	st.report(out)
	for k, v := range medianLayers(setupSets) {
		out.layers[k] = v
	}
	out.host.WorkingSetBytes = partitionBytes(runner.Engine.Part)

	pool, err := runner.SampleRoots(cfg.pool, e.subSeed(2))
	if err != nil {
		return nil, err
	}
	// Reference answers, off the clock: a solo traversal per pool root,
	// passed through the Graph 500 checks.
	refs := make(map[int64]*serveRef, len(pool))
	dg := newDigester()
	for _, root := range pool {
		res, err := runner.Run(root)
		if err != nil {
			return nil, fmt.Errorf("reference root %d: %w", root, err)
		}
		level, err := ix.checkBFS(root, res.Parent)
		if err != nil {
			return nil, fmt.Errorf("reference root %d: %w", root, err)
		}
		ref := &serveRef{level: make([]int32, len(level)), digest: dg.int64s(res.Parent), edges: res.TraversedEdges}
		for v, l := range level {
			ref.level[v] = int32(l)
		}
		refs[root] = ref
	}

	services := []*service{svc}
	var tr *trace.Tracer
	if e.traced {
		tr = trace.New()
		opt := runner.Engine.Opt
		opt.Trace = tr
		eng, err := core.NewEngineFromPartition(runner.Engine.Part, opt)
		if err != nil {
			return nil, err
		}
		ts := newService(eng, tr, g.NumVertices, cfg.ranks)
		defer ts.batcher.Close()
		services = append(services, ts)
	}

	mkGens := func(stream uint64) []*queryGen {
		gens := make([]*queryGen, maxBatch)
		for c := range gens {
			gens[c] = &queryGen{rng: xrand.NewXoshiro256(e.subSeed(stream + uint64(c))),
				pool: pool, n: g.NumVertices, parentsShare: cfg.parentsShare}
		}
		return gens
	}

	// Each service gets an equal share of the measuring time: open loop,
	// then closed loop.
	share := e.seconds / time.Duration(len(services))
	openDur := time.Duration(float64(share) * cfg.openShare)
	closedDur := share - openDur
	sched := poissonSchedule(cfg.rate, openDur, e.subSeed(3))
	openGen := mkGens(100)[0]
	openQs := make([]query, len(sched))
	for i := range openQs {
		openQs[i] = openGen.next()
	}

	var phases []phaseStats
	var mem0 memMark
	var ops int64
	for si, s := range services {
		// Untimed warm-up through the whole stack.
		warm := s.closedLoop(mkGens(200), forCount(int64(cfg.warmup)))
		for _, r := range warm {
			if r.code != http.StatusOK {
				return nil, fmt.Errorf("warm-up query: status %d: %s", r.code, r.body)
			}
			if _, err := checkReply(r, refs, dg); err != nil {
				out.wrong(err)
			}
		}
		if si == len(services)-1 {
			mem0 = readMem()
			s.meter.reset()
		}

		c0 := cpuSeconds()
		open := s.openLoop(sched, openQs)
		c1, closedStart := cpuSeconds(), time.Now()
		closed := s.closedLoop(mkGens(300), forDuration(closedDur))
		c2, closedWall := cpuSeconds(), time.Since(closedStart)
		ops += int64(len(open) + len(closed))

		var ps phaseStats
		var okClosed int
		var servedEdges int64
		for pi, phase := range [][]reply{open, closed} {
			for _, r := range phase {
				out.attempted++
				if r.code != http.StatusOK {
					out.failed++
					continue
				}
				resp, err := checkReply(r, refs, dg)
				if err != nil {
					out.wrong(err)
					continue
				}
				if pi == 1 {
					okClosed++
					servedEdges += refs[r.q.Root].edges
					continue
				}
				ps.openLat.add(r.end.Sub(r.due))
				ps.late.add(r.start.Sub(r.due))
				server := time.Duration(resp.LatencySeconds * float64(time.Second))
				ps.handler.add(r.end.Sub(r.start) - server)
				if sweep, ok := s.meter.sweepNear(r.start.Add(server)); ok {
					ps.queueWait.add(server - sweep)
				}
			}
		}
		ps.satAnswered = okClosed
		ps.cpuPerQuery = (c2 - c0) / float64(len(open)+len(closed))
		ps.closedEdgesPerCPU = float64(servedEdges) / (c2 - c1)
		ps.satQPS = float64(okClosed) / closedWall.Seconds()
		ps.satGTEPS = float64(servedEdges) / closedWall.Seconds() / 1e9
		phases = append(phases, ps)
	}

	// The gated numbers are CPU costs: see README for why the latencies and
	// the saturated rate are printed but not gated.
	base := phases[0]
	out.e2e["cpu_ms_per_op"] = base.cpuPerQuery * 1e3
	out.e2e["gteps_per_core"] = base.closedEdgesPerCPU / 1e9
	n := len(base.openLat)
	out.note("query_p50_ms", median(base.openLat)*1e3, "ms", n)
	out.note("query_p90_ms", percentile(base.openLat, 90)*1e3, "ms", n)
	out.note("query_p99_ms", percentile(base.openLat, 99)*1e3, "ms", n)
	out.notef("query_p99_ms has %d samples beyond it; open-loop rate %g/s", beyond(n, 99), cfg.rate)
	out.note("sat_qps", base.satQPS, "1/s", base.satAnswered)
	out.note("sat_gteps", base.satGTEPS, "GTEPS", base.satAnswered)
	out.note("generator_late_p50_ms", median(base.late)*1e3, "ms", len(base.late))
	out.note("generator_late_max_ms", percentile(base.late, 100)*1e3, "ms", len(base.late))

	last := phases[len(phases)-1]
	ls := services[len(services)-1]
	fillRuntime(out.layers, mem0, readMem(), ops)
	m := ls.meter
	m.mu.Lock()
	m.ct.fill(out.layers)
	m.st.fill(out.layers)
	if sw := len(m.sweeps); sw > 0 {
		var total time.Duration
		for _, s := range m.sweeps {
			total += s.dur
		}
		out.layers["core.sweep_s"] = total.Seconds() / float64(sw)
		out.layers["core.batch_width"] = float64(m.widthSum) / float64(sw)
		out.layers["core.batch_occupancy"] = m.occSum / float64(sw)
		out.layers["comm.calls_per_sweep"] = out.layers["comm.calls"]
	}
	m.mu.Unlock()
	snap := ls.batcher.Snapshot()
	out.layers["bfsd.rejected"] = float64(snap.Rejected)
	out.layers["bfsd.cancelled"] = float64(snap.Cancelled)
	out.layers["bfsd.queue_wait_ms"] = median(last.queueWait) * 1e3
	out.layers["bfsd.handler_ms"] = median(last.handler) * 1e3
	out.layers["bfsd.generator_late_ms"] = mean(last.late) * 1e3
	if e.traced {
		out.layers["trace.overhead"] = median(last.openLat) / median(base.openLat)
	}
	return out, nil
}

// reset drops what the meter folded so far (the warm-up's sweeps).
func (m *sweepMeter) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweeps, m.widthSum, m.occSum = nil, 0, 0
	m.ct = coreTotals{ranks: m.ct.ranks}
	m.st = spanTotals{ranks: m.st.ranks}
}
