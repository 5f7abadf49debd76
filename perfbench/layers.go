package main

import (
	"math"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// metricDef names one reported metric and its unit. BENCHMARK.json carries
// the same names with their direction and bound; a test keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics; every workload reports every one of them,
// for the operation it runs (see README).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mib", "MiB"},
	{"cpu_ms_per_op", "ms"},
	{"gteps_per_core", "GTEPS/core"},
}

var componentNames = [partition.NumComponents]string{"EH2EH", "E2L", "H2L", "L2E", "L2H", "L2L"}

// perLayer are the traced run's single-layer metrics. A workload that does
// not exercise a layer reports 0 for it, which is itself the prediction
// "this workload does not touch that code".
var perLayer = func() []metricDef {
	m := []metricDef{
		{"rmat.generate_s", "s"},
		{"partition.degrees_s", "s"},
		{"partition.hubdir_s", "s"},
		{"partition.distribute_s", "s"},
		{"partition.assemble_s", "s"},
		{"partition.sort_s", "s"},
		{"core.construct_s", "s"},
	}
	for _, c := range componentNames {
		m = append(m, metricDef{"core.kernel_s." + c, "s"})
	}
	for _, c := range componentNames {
		m = append(m, metricDef{"core.edges." + c, "count"})
	}
	return append(m, []metricDef{
		{"core.reduce_s", "s"},
		{"core.other_s", "s"},
		{"core.iterations", "count"},
		{"core.pull_share", "share"},
		{"comm.calls", "count"},
		{"comm.collective_s", "s"},
		{"comm.sync_s", "s"},
		{"comm.bytes_intra", "B"},
		{"comm.bytes_inter", "B"},
		{"core.sweep_s", "s"},
		{"core.batch_width", "count"},
		{"core.batch_occupancy", "count"},
		{"comm.calls_per_sweep", "count"},
		{"bfsd.queue_wait_ms", "ms"},
		{"bfsd.handler_ms", "ms"},
		{"bfsd.rejected", "count"},
		{"bfsd.cancelled", "count"},
		{"bfsd.generator_late_ms", "ms"},
		{"wire.bytes_sent", "B"},
		{"wire.bytes_recv", "B"},
		{"wire.reconnects", "count"},
		{"wire.frames_resent", "count"},
		{"checkpoint.segments", "count"},
		{"checkpoint.bytes", "B"},
		{"checkpoint.dropped", "count"},
		{"checkpoint.capture_s", "s"},
		{"framework.pagerank_rounds", "count"},
		{"framework.wcc_rounds", "count"},
		{"framework.kcore_rounds", "count"},
		{"core.sssp_rounds", "count"},
		{"core.sssp_relaxations", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"trace.overhead", "ratio"},
	}...)
}()

// setupLayers records the partitioner's stage times and the engine
// construction time of one set-up.
func setupLayers(e *core.Engine) map[string]float64 {
	st := e.Part.Stats
	return map[string]float64{
		"partition.degrees_s":    st.DegreesSeconds,
		"partition.hubdir_s":     st.HubDirSeconds,
		"partition.distribute_s": st.DistributeSeconds,
		"partition.assemble_s":   st.AssembleSeconds,
		"partition.sort_s":       st.SortSeconds,
		"core.construct_s":       e.ConstructSeconds,
	}
}

// medianLayers takes the per-key median over several set-ups.
func medianLayers(sets []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(sets) == 0 {
		return out
	}
	for k := range sets[0] {
		var xs []float64
		for _, s := range sets {
			xs = append(xs, s[k])
		}
		out[k] = median(xs)
	}
	return out
}

// coreTotals accumulates the engine's own per-run breakdown (the
// stats.Recorder every Result carries, summed over ranks) across operations.
type coreTotals struct {
	ops        int64
	ranks      int
	kernelNs   [partition.NumComponents]int64
	edges      [partition.NumComponents]int64
	reduceNs   int64
	otherNs    int64
	iterations int64
	pull, push int64
}

func (c *coreTotals) add(rec *stats.Recorder, its []core.IterTrace) {
	c.ops++
	for comp := partition.Component(0); comp < partition.NumComponents; comp++ {
		p := stats.PhaseOfComponent(comp)
		c.kernelNs[comp] += int64(rec.PhaseTime(p))
		c.edges[comp] += rec.EdgesTouched[p]
	}
	c.reduceNs += int64(rec.PhaseTime(stats.PhaseReduce))
	c.otherNs += int64(rec.PhaseTime(stats.PhaseOther))
	c.iterations += int64(len(its))
	for _, it := range its {
		for _, d := range it.Directions {
			switch d {
			case stats.DirPull:
				c.pull++
			case stats.DirPush:
				c.push++
			}
		}
	}
}

// fill writes per-operation values: times are per rank (the recorder sums
// ranks), edge counts are totals over ranks.
func (c *coreTotals) fill(m map[string]float64) {
	if c.ops == 0 || c.ranks == 0 {
		return
	}
	perRankOp := float64(c.ops) * float64(c.ranks) * 1e9
	for comp, name := range componentNames {
		m["core.kernel_s."+name] = float64(c.kernelNs[comp]) / perRankOp
		m["core.edges."+name] = float64(c.edges[comp]) / float64(c.ops)
	}
	m["core.reduce_s"] = float64(c.reduceNs) / perRankOp
	m["core.other_s"] = float64(c.otherNs) / perRankOp
	m["core.iterations"] = float64(c.iterations) / float64(c.ops)
	if c.pull+c.push > 0 {
		m["core.pull_share"] = float64(c.pull) / float64(c.pull+c.push)
	}
}

// spanTotals accumulates what the program's trace spans say about
// collectives, hub syncs and checkpoint captures.
type spanTotals struct {
	ops          int64
	ranks        int
	collCalls    int64
	collNs       int64
	syncNs       int64
	intra, inter int64
	captureNs    int64
}

// add folds one operation's spans. Collective spans nest (a composite
// collective covers the ones it issues), so time and bytes come from the
// outermost spans of each rank while calls count every span entered.
func (t *spanTotals) add(spans []trace.Span) {
	t.ops++
	byRank := make(map[int][]trace.Span)
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindCollective:
			t.collCalls++
			byRank[sp.Rank] = append(byRank[sp.Rank], sp)
		case trace.KindSync:
			t.syncNs += sp.Dur
		case trace.KindCheckpoint:
			if sp.Name == "capture" {
				t.captureNs += sp.Dur
			}
		}
	}
	for _, cs := range byRank {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Start != cs[j].Start {
				return cs[i].Start < cs[j].Start
			}
			return cs[i].Dur > cs[j].Dur
		})
		cover := int64(math.MinInt64)
		for _, sp := range cs {
			if sp.Start >= cover {
				t.collNs += sp.Dur
				t.intra += sp.IntraBytes
				t.inter += sp.InterBytes
				cover = sp.Start + sp.Dur
			}
		}
	}
}

// fill writes per-operation values: calls and times per rank, bytes summed
// over ranks.
func (t *spanTotals) fill(m map[string]float64) {
	if t.ops == 0 || t.ranks == 0 {
		return
	}
	ops, perRankOp := float64(t.ops), float64(t.ops)*float64(t.ranks)
	m["comm.calls"] = float64(t.collCalls) / perRankOp
	m["comm.collective_s"] = float64(t.collNs) / perRankOp / 1e9
	m["comm.sync_s"] = float64(t.syncNs) / perRankOp / 1e9
	m["comm.bytes_intra"] = float64(t.intra) / ops
	m["comm.bytes_inter"] = float64(t.inter) / ops
	m["checkpoint.capture_s"] = float64(t.captureNs) / perRankOp / 1e9
}

// memMark is a point on the Go runtime's allocation and GC counters.
type memMark struct {
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// fillRuntime writes the runtime's allocation and GC work between two marks,
// with allocation normalised per operation.
func fillRuntime(m map[string]float64, from, to memMark, ops int64) {
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(to.alloc-from.alloc) / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(to.numGC - from.numGC)
	m["runtime.gc_pause_s"] = float64(to.pauseNs-from.pauseNs) / 1e9
}
