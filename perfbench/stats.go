package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of per-operation timings in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It returns
// NaN for an empty set, so a missing measurement cannot pass for a fast one.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond returns how many samples lie strictly above the p-th percentile
// position, the count the report prints next to a tail percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// harmonicMean is the Graph 500 TEPS statistic: n / Σ 1/x_i. Any
// non-positive rate makes the mean undefined and yields NaN.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// group is a slice of a measured phase: one pass over the roots, or a
// round over the SSSP roots. Each gated metric is the best group's value.
type group struct {
	ops   int
	edges float64 // traversed edges of the group's operations
	cpu   float64 // CPU seconds the process used during them
}

func (g *group) add(edges int64, cpu float64) {
	g.ops++
	g.edges += float64(edges)
	g.cpu += cpu
}

// bestOver returns the lowest (or, for a rate, the highest) value of f over
// the non-empty groups, NaN when there are none.
func bestOver(gs []group, f func(g group) float64, higherIsBetter bool) float64 {
	best := math.NaN()
	for _, g := range gs {
		if g.ops == 0 {
			continue
		}
		v := f(g)
		if math.IsNaN(best) || (higherIsBetter && v > best) || (!higherIsBetter && v < best) {
			best = v
		}
	}
	return best
}

func cpuPerOp(g group) float64    { return g.cpu / float64(g.ops) }
func edgesPerCPU(g group) float64 { return g.edges / g.cpu }
