package main

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleRateAndDeterminism(t *testing.T) {
	const rate, dur = 1000.0, 5 * time.Second
	a := poissonSchedule(rate, dur, 7)
	b := poissonSchedule(rate, dur, 7)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	if a[len(a)-1] >= dur {
		t.Errorf("last arrival %v is past the %v window", a[len(a)-1], dur)
	}
	// 5000 expected; a Poisson count's standard deviation is about 71.
	if n := len(a); n < 4700 || n > 5300 {
		t.Errorf("%d arrivals at %g/s over %v, want about 5000", n, rate, dur)
	}
	if c := poissonSchedule(rate, dur, 8); len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same schedule")
	}
}

// TestOpenLoopTimesFromDueTime stalls the server on its first request. An
// open loop keeps sending on schedule, so the generator stays on time while
// every request that queued behind the stall is charged the wait from its
// due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	release := make(chan struct{})
	var once sync.Once
	svc := &service{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			time.AfterFunc(stall, func() { close(release) })
		})
		<-release
		w.WriteHeader(http.StatusOK)
	})}
	sched := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	qs := make([]query, len(sched))
	t0 := time.Now()
	replies := svc.openLoop(sched, qs)
	if wall := time.Since(t0); wall > stall+100*time.Millisecond {
		t.Errorf("open loop took %v; it waited for answers instead of sending on schedule", wall)
	}
	for i, r := range replies {
		if late := r.start.Sub(r.due); late > 15*time.Millisecond {
			t.Errorf("request %d sent %v late", i, late)
		}
		lat := r.end.Sub(r.due)
		want := stall - sched[i] - 5*time.Millisecond
		if lat < want {
			t.Errorf("request %d latency %v from its due time, want at least %v", i, lat, want)
		}
		if r.code != http.StatusOK {
			t.Errorf("request %d status %d", i, r.code)
		}
	}
}

func TestSweepNearPicksClosestSweep(t *testing.T) {
	base := time.Now()
	m := &sweepMeter{sweeps: []sweepRec{
		{end: base, dur: 1 * time.Millisecond},
		{end: base.Add(10 * time.Millisecond), dur: 2 * time.Millisecond},
		{end: base.Add(20 * time.Millisecond), dur: 3 * time.Millisecond},
	}}
	for _, c := range []struct {
		at   time.Duration
		want time.Duration
	}{
		{-5 * time.Millisecond, 1 * time.Millisecond},
		{4 * time.Millisecond, 1 * time.Millisecond},
		{6 * time.Millisecond, 2 * time.Millisecond},
		{19 * time.Millisecond, 3 * time.Millisecond},
		{50 * time.Millisecond, 3 * time.Millisecond},
	} {
		got, ok := m.sweepNear(base.Add(c.at))
		if !ok || got != c.want {
			t.Errorf("sweep near %v = %v, want %v", c.at, got, c.want)
		}
	}
}
