package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestSamplesBeyondPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {100, 99, 1}, {1000, 99, 10}, {64, 90, 6}, {10, 99, 0}, {0, 50, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	if got, want := harmonicMean([]float64{1, 2, 4}), 3/(1+0.5+0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("harmonic mean of 1,2,4 = %g, want %g", got, want)
	}
	// The Graph 500 statistic is dominated by the slowest rate.
	if got := harmonicMean([]float64{1e9, 1e9, 1e6}); got > 3.1e6 {
		t.Errorf("harmonic mean %g not dominated by the slow rate", got)
	}
	if !math.IsNaN(harmonicMean(nil)) || !math.IsNaN(harmonicMean([]float64{1, 0})) {
		t.Error("harmonic mean of no samples or a zero rate is not NaN")
	}
}

func TestBestOverPicksCheapestGroup(t *testing.T) {
	cheap := group{ops: 4, edges: 4e6, cpu: 0.100}
	dear := group{ops: 4, edges: 4e6, cpu: 0.140}
	gs := []group{dear, {}, cheap, dear}
	if got := bestOver(gs, cpuPerOp, false); got != 0.025 {
		t.Errorf("best CPU per op %g, want the cheap group's 0.025", got)
	}
	if got, want := bestOver(gs, edgesPerCPU, true), 4e6/0.100; got != want {
		t.Errorf("best edges per CPU-second %g, want the cheap group's %g", got, want)
	}
	if !math.IsNaN(bestOver([]group{{}}, cpuPerOp, false)) {
		t.Error("best over empty groups is not NaN")
	}
}
