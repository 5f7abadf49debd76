package comm

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
)

// scripted is a local test transport: a pure function over the call. The
// faultinject package cannot be imported here (it imports comm), so chaos
// tests script their transports directly.
type scripted func(Call) FaultAction

func (s scripted) Intercept(c Call) FaultAction { return s(c) }

// faultyWorld builds a world whose transport applies act to every
// contribution from the given rank, with a 1ms collective deadline.
func faultyWorld(t *testing.T, mesh topology.Mesh, rank int, act FaultAction) *World {
	t.Helper()
	n := mesh.Size()
	w, err := NewWorldOpts(n, mesh, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			if c.Rank == rank {
				return act
			}
			return FaultAction{}
		}),
		Deadline: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// collectiveOps exercises every collective once on the given communicator
// selector; each op returns the collective's error.
var collectiveOps = []struct {
	name string
	run  func(r *Rank) error
}{
	{"alltoallv", func(r *Rank) error {
		send := make([][]int64, r.World.Size())
		for j := range send {
			send[j] = []int64{int64(r.ID), int64(j)}
		}
		_, err := Alltoallv(r.World, send)
		return err
	}},
	{"allgatherv", func(r *Rank) error {
		_, err := Allgatherv(r.World, []uint64{uint64(r.ID) + 1})
		return err
	}},
	{"reducescatteror", func(r *Rank) error {
		_, err := ReduceScatterOr(r.World, make([]uint64, 4*r.World.Size()))
		return err
	}},
	{"allgathervsegments", func(r *Rank) error {
		dst := make([]uint64, r.World.Size())
		return AllgathervSegments(r.World, []uint64{uint64(r.ID)}, dst)
	}},
	{"allreduceor", func(r *Rank) error {
		return AllreduceOr(r.World, make([]uint64, 8))
	}},
	{"allreducemaxint64", func(r *Rank) error {
		return AllreduceMaxInt64(r.World, make([]int64, 2*r.World.Size()))
	}},
	{"allreducesumint64", func(r *Rank) error {
		_, err := AllreduceSumInt64(r.World, int64(r.ID))
		return err
	}},
	{"allreducesumfloat64", func(r *Rank) error {
		return AllreduceSumFloat64(r.World, make([]float64, r.World.Size()))
	}},
	{"allreducesumint64vec", func(r *Rank) error {
		return AllreduceSumInt64Vec(r.World, make([]int64, r.World.Size()))
	}},
	{"allgathersparse", func(r *Rank) error {
		send := make([][]int64, r.World.Size())
		send[r.World.Size()-1] = []int64{int64(r.ID), 7}
		_, err := AllgatherSparse(r.World, send)
		return err
	}},
	{"bcast", func(r *Rank) error {
		_, err := Bcast(r.World, r.ID*3, 0)
		return err
	}},
	{"barrier", func(r *Rank) error {
		return r.World.Barrier()
	}},
}

// TestEveryCollectiveUnderEveryFault runs each collective under each fault
// kind on several mesh shapes: every rank must observe the same typed error
// naming the faulty rank — and the world must never deadlock doing so.
func TestEveryCollectiveUnderEveryFault(t *testing.T) {
	meshes := []topology.Mesh{
		{Rows: 1, Cols: 4}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 1}, {Rows: 2, Cols: 3},
	}
	faults := []struct {
		name string
		act  FaultAction
		want error
	}{
		{"fail", FaultAction{Fail: true}, ErrCollectiveFailed},
		{"stall", FaultAction{Withhold: true}, ErrRankStalled},
		{"corrupt", FaultAction{Corrupt: true}, ErrPayloadCorrupted},
		{"deadline", FaultAction{Delay: 2 * time.Millisecond}, ErrDeadlineExceeded},
	}
	for _, mesh := range meshes {
		for _, f := range faults {
			for _, op := range collectiveOps {
				// Rank 0 is the faulty one so it is also Bcast's (intercepted)
				// root. Barriers carry no payload, so corruption cannot occur.
				wantErr := f.want
				if op.name == "barrier" && f.name == "corrupt" {
					wantErr = nil
				}
				w := faultyWorld(t, mesh, 0, f.act)
				n := mesh.Size()
				errs := make([]error, n)
				done := make(chan struct{})
				go func() {
					w.Run(func(r *Rank) { errs[r.ID] = op.run(r) })
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("%v/%s/%s: world deadlocked", mesh, f.name, op.name)
				}
				for id, err := range errs {
					if wantErr == nil {
						if err != nil {
							t.Fatalf("%v/%s/%s: rank %d got %v, want nil", mesh, f.name, op.name, id, err)
						}
						continue
					}
					if !errors.Is(err, wantErr) {
						t.Fatalf("%v/%s/%s: rank %d got %v, want %v", mesh, f.name, op.name, id, err, wantErr)
					}
					var ce *CollectiveError
					if !errors.As(err, &ce) {
						t.Fatalf("%v/%s/%s: rank %d error %T is not *CollectiveError", mesh, f.name, op.name, id, err)
					}
					if ce.Rank != 0 {
						t.Fatalf("%v/%s/%s: rank %d blames rank %d, want 0", mesh, f.name, op.name, id, ce.Rank)
					}
				}
			}
		}
	}
}

// TestStalledRankCannotDeadlockWorld is the watchdog property: a rank that
// withholds every contribution forever must surface as typed errors on all
// ranks — including itself — with the world still terminating.
func TestStalledRankCannotDeadlockWorld(t *testing.T) {
	const n = 8
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 2, Cols: 4}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Withhold: c.Rank == 3}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var worldErrs, rowErrs, barErrs atomic.Int64
	done := make(chan struct{})
	go func() {
		w.Run(func(r *Rank) {
			if _, err := AllreduceSumInt64(r.World, 1); errors.Is(err, ErrRankStalled) {
				worldErrs.Add(1)
			}
			// Row collectives: only rank 3's row observes the stall.
			if err := AllreduceOr(r.RowC, make([]uint64, 4)); errors.Is(err, ErrRankStalled) {
				rowErrs.Add(1)
			}
			if err := r.World.Barrier(); errors.Is(err, ErrRankStalled) {
				barErrs.Add(1)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled rank deadlocked the world")
	}
	if got := worldErrs.Load(); got != n {
		t.Fatalf("world allreduce: %d ranks saw the stall, want %d", got, n)
	}
	if got := rowErrs.Load(); got != 4 {
		t.Fatalf("row allreduce: %d ranks saw the stall, want the 4 in rank 3's row", got)
	}
	if got := barErrs.Load(); got != n {
		t.Fatalf("barrier: %d ranks saw the stall, want %d", got, n)
	}
}

// TestStallWindowRecovers: a rank stalled for a window of collectives errors
// during the window and works again after it — the transient-fault shape the
// engine's retry loop rides on.
func TestStallWindowRecovers(t *testing.T) {
	const n = 4
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Withhold: c.Rank == 1 && c.Seq <= 2}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		for seq := 1; seq <= 4; seq++ {
			sum, err := AllreduceSumInt64(r.World, int64(r.ID))
			if seq <= 2 {
				if !errors.Is(err, ErrRankStalled) {
					panicf(t, "seq %d: err = %v, want ErrRankStalled", seq, err)
				}
			} else {
				if err != nil {
					panicf(t, "seq %d: err = %v after stall window ended", seq, err)
				}
				if sum != 6 {
					panicf(t, "seq %d: sum = %d, want 6", seq, sum)
				}
			}
		}
	})
}

// panicf reports through panic so failures inside rank goroutines stop the
// world immediately (t.Fatalf must not be called off the test goroutine).
func panicf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
	panic("fault_test: rank assertion failed")
}

// TestErrorAgreementAcrossRanks: when one contribution to one collective is
// faulty, every member returns an identical verdict (kind, seq, blamed rank).
func TestErrorAgreementAcrossRanks(t *testing.T) {
	const n = 6
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 2, Cols: 3}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Fail: c.Rank == 4 && c.Seq == 3}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]*CollectiveError, n)
	w.Run(func(r *Rank) {
		for seq := 1; seq <= 5; seq++ {
			_, err := Allgatherv(r.World, []int64{int64(r.ID)})
			if err != nil {
				var ce *CollectiveError
				if !errors.As(err, &ce) {
					panicf(t, "rank %d: %T is not *CollectiveError", r.ID, err)
				}
				if verdicts[r.ID] != nil {
					panicf(t, "rank %d: more than one collective errored", r.ID)
				}
				verdicts[r.ID] = ce
			}
		}
	})
	for id, ce := range verdicts {
		if ce == nil {
			t.Fatalf("rank %d saw no error", id)
		}
		if ce.Kind != KindAllgather || ce.Seq != 3 || ce.Rank != 4 {
			t.Fatalf("rank %d verdict %+v, want kind=allgather seq=3 rank=4", id, ce)
		}
	}
}

// TestFaultStatsAccounting checks injected faults land in the injecting
// rank's FaultStats and observed errors in every member's.
func TestFaultStatsAccounting(t *testing.T) {
	const n = 4
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			if c.Rank != 2 {
				return FaultAction{}
			}
			switch c.Seq {
			case 1:
				return FaultAction{Delay: 100 * time.Microsecond}
			case 2:
				return FaultAction{Corrupt: true}
			case 3:
				return FaultAction{Withhold: true}
			case 4:
				return FaultAction{Fail: true}
			}
			return FaultAction{}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]FaultStats, n)
	w.Run(func(r *Rank) {
		for seq := 1; seq <= 5; seq++ {
			Allgatherv(r.World, []int64{1})
		}
		stats[r.ID] = r.Faults
	})
	s := stats[2]
	if s.Delays != 1 || s.Corruptions != 1 || s.Stalls != 1 || s.Failures != 1 {
		t.Fatalf("injecting rank stats %+v, want one of each fault", s)
	}
	if s.DelayTime != 100*time.Microsecond {
		t.Fatalf("DelayTime = %v, want 100µs", s.DelayTime)
	}
	if s.Injected() != 4 {
		t.Fatalf("Injected() = %d, want 4", s.Injected())
	}
	for id, s := range stats {
		// Seqs 2,3,4 error on every member (delay alone, with no deadline
		// configured, does not).
		if s.Errors != 3 {
			t.Fatalf("rank %d observed %d errors, want 3", id, s.Errors)
		}
	}
}

// TestSubCommunicatorFaultScoping: a fault on a row collective only errors
// that row's members; the other rows and subsequent world collectives are
// untouched.
func TestSubCommunicatorFaultScoping(t *testing.T) {
	const n = 4
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Fail: c.Rank == 0 && c.Seq == 1}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rowErr := make([]error, n)
	worldErr := make([]error, n)
	w.Run(func(r *Rank) {
		_, rowErr[r.ID] = AllreduceSumInt64(r.RowC, 1)
		_, worldErr[r.ID] = AllreduceSumInt64(r.World, 1)
	})
	for id := 0; id < n; id++ {
		inRow0 := id < 2
		if inRow0 != errors.Is(rowErr[id], ErrCollectiveFailed) {
			t.Fatalf("rank %d: row err = %v (in faulty row: %v)", id, rowErr[id], inRow0)
		}
		if worldErr[id] != nil {
			t.Fatalf("rank %d: world collective after scoped fault errored: %v", id, worldErr[id])
		}
	}
}

// TestReliableWorldNeverErrors pins the fast path: without a transport,
// Faulty() is false and no collective can return an error.
func TestReliableWorldNeverErrors(t *testing.T) {
	const n = 4
	w, err := NewWorld(n, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(n))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		if r.Faulty() {
			panicf(t, "reliable world reports Faulty()")
		}
		for _, op := range collectiveOps {
			if err := op.run(r); err != nil {
				panicf(t, "%s errored on a reliable world: %v", op.name, err)
			}
		}
		if r.Faults != (FaultStats{}) {
			panicf(t, "reliable world accumulated fault stats %+v", r.Faults)
		}
	})
}

// TestCorruptionDoesNotTouchCallerBuffer: the retry contract — a corrupted
// contribution flips a bit in a transport-owned copy, so resending the same
// buffer after the error transmits clean data.
func TestCorruptionDoesNotTouchCallerBuffer(t *testing.T) {
	const n = 2
	w, err := NewWorldOpts(n, topology.Mesh{Rows: 1, Cols: 2}, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Corrupt: c.Rank == 0 && c.Seq == 1}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		buf := []uint64{0xdeadbeef, 42}
		_, err := Allgatherv(r.World, buf)
		if !errors.Is(err, ErrPayloadCorrupted) {
			panicf(t, "rank %d: err = %v, want ErrPayloadCorrupted", r.ID, err)
		}
		if buf[0] != 0xdeadbeef || buf[1] != 42 {
			panicf(t, "rank %d: caller buffer mutated to %v", r.ID, buf)
		}
		// Retry with the same buffer: clean.
		parts, err := Allgatherv(r.World, buf)
		if err != nil {
			panicf(t, "rank %d: retry errored: %v", r.ID, err)
		}
		if parts[0][0] != 0xdeadbeef {
			panicf(t, "rank %d: retry received corrupted data %v", r.ID, parts[0])
		}
	})
}
