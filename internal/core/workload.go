package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workload is one frontier-style kernel schedule run by the per-rank driver:
// BFS, connected components, k-core peeling, delta-stepping SSSP. A workload
// owns its vertex state (bitmaps, labels, distances) and its per-step kernel
// bodies; the driver owns everything the paper's engine shares across
// workloads — the four-step retryable iteration skeleton, the control-plane
// failure votes, checkpoint capture/replay, the sparse-tail feedback loop and
// the span/recorder plumbing. The contract mirrors the BFS loop exactly:
//
//   - bootstrap seeds a fresh run over the control plane (no prior state to
//     retry from).
//   - beginIter fills the IterTrace frontier composition and latches the
//     iteration's direction/sparse schedule; it runs once per iteration, so
//     retries of a failed iteration keep the same collective schedule.
//   - step executes one of the numSteps groups; every collective inside must
//     be reached by every rank in the same order, and a collective error must
//     not short-circuit the remaining per-communicator schedule.
//   - endIter commits the epilogue's pending global counts and reports
//     convergence; it runs only after all steps passed the vote.
//   - finalize is the post-loop reduction (the delayed parent reduce for BFS;
//     a no-op elsewhere). It must be idempotent: under faults it is retried
//     with the same vote protocol as iterations.
//   - snapshot/restore capture and roll back the workload state a retry of
//     step g needs; value updates that are not monotone across a failed
//     attempt MUST be included.
//   - ckpt exposes the state the checkpoint writer persists; loadState is its
//     inverse on replay.
type workload interface {
	drv() *driver
	bootstrap() error
	beginIter(it *IterTrace)
	step(g int, it *IterTrace) error
	endIter(it *IterTrace) bool
	finalize() error
	snapshot(g int)
	restore(g int)
	ckpt() ckptSlices
	loadState(cs *checkpoint.State)
}

// One iteration is four steps, each ending at a consistent collective
// boundary so a retry can re-enter at the lowest globally failed step,
// short-circuiting everything that already completed cleanly on every rank.
// For BFS:
//
//	step 0: EH2EH + hub sync
//	step 1: E2L, H2L, L2E, L2H + hub sync
//	step 2: L2L
//	step 3: epilogue — frontier advance, optional immediate parent
//	        reduction, and the global active-L allreduce
const numSteps = 4

// drainBit is the iteration vote's graceful-drain flag, carried in the same
// OR-word as the failed-step mask (word 0). Bit 63 can never collide with a
// step index, and the vote strips it before any step-mask inspection.
const drainBit uint64 = 1 << 63

// ckptSlices is a workload's checkpointable state in the writer's fixed
// geometry: four word slices, two int64 arrays, two scalar counters. A
// workload maps its own arrays onto these slots (BFS: frontiers + parents;
// WCC: dirty sets + labels; SSSP: dirty sets + packed distance/parent pairs).
type ckptSlices struct {
	hubF, hubV, lF, lV []uint64
	pHub, pL           []int64
	activeL, visitL    int64
}

// driver is the per-rank engine substrate shared by every workload. It is
// embedded in each workload's rank state (by value; BFS query planes embed a
// pointer to their batch's driver), so kernels reach its fields (r, rg,
// sparse, batchRow, ...) via promotion.
type driver struct {
	e   *Engine
	r   *comm.Rank
	rg  *partition.RankGraph
	rec *stats.Recorder

	// tr is the rank's span stream (nil when tracing is off); curIter,
	// curStep and curAttempt are the coordinates stamped on emitted spans.
	tr         *trace.Stream
	curIter    int64
	curStep    int
	curAttempt int

	// maxIter bounds the iteration loop (BFS: Opt.MaxIterations; iterative
	// value-propagation workloads get a larger multiple — see newWorkloadDriver).
	maxIter int

	// Sparse-tail plumbing. sparse holds the iteration's per-component
	// dense-vs-sparse choices and batchRow whether the H2L and L2H payloads
	// ride one batched row exchange; both are set once per iteration, so
	// retries of the same iteration keep the same collective schedule.
	// lastIterBytes is the previous iteration's globally summed data-plane
	// bytes, fed back by the epilogue allreduce (-1 = unknown: the first
	// iteration, and the first after a checkpoint resume — identically on
	// every rank, which keeps the adaptive choice in lockstep). iterBytesBase
	// is the recorder's byte total at iteration start.
	sparse        [partition.NumComponents]bool
	batchRow      bool
	lastIterBytes int64
	iterBytesBase int64

	// resilience bookkeeping (only exercised under a fault transport)
	retries  int64
	recovery time.Duration

	// recSnaps mirrors the workload's per-step snapshots for the stats
	// recorder: a retry re-enters mid-iteration and re-observes the
	// re-executed kernels, so the failed attempt's observations must roll
	// back with the state.
	recSnaps [numSteps]stats.Recorder

	// Fail-stop recovery plumbing, set by the engine before the loop runs.
	store       *checkpoint.Store    // nil when checkpointing is off
	scope       *checkpoint.RunScope // nil when checkpointing is off
	resumeIter  int64                // -2 fresh start; >= -1 replay the chain to here
	replaced    bool                 // slot died last epoch: reload the graph tier
	writer      *checkpoint.Writer
	resumeState *checkpoint.State // replayed state, seeds the writer's shadow
	replayDur   time.Duration     // wall clock spent replaying (engine takes the max)
}

func newDriver(e *Engine, r *comm.Rank, maxIter int) driver {
	return driver{
		e:             e,
		r:             r,
		rg:            e.Part.Ranks[r.ID],
		rec:           &stats.Recorder{},
		tr:            r.Trace(),
		curIter:       -1,
		curStep:       -1,
		maxIter:       maxIter,
		lastIterBytes: -1,
		resumeIter:    -2,
	}
}

// workloadIterScale multiplies Opt.MaxIterations for the iterative
// value-propagation workloads (WCC, k-core, SSSP): label propagation runs to
// the graph diameter, peeling can shave a long path two vertices per round,
// and delta-stepping visits one bucket per quiescent iteration — all far past
// a small-world BFS depth but still bounded.
const workloadIterScale = 32

func newWorkloadDriver(e *Engine, r *comm.Rank) driver {
	return newDriver(e, r, e.Opt.MaxIterations*workloadIterScale)
}

// commBytes is the recorder's total observed data-plane traffic; deltas of it
// across an iteration feed the sparse-tail byte ceiling.
func commBytes(rec *stats.Recorder) int64 {
	v := rec.CommBreakdown()
	return v.TotalBytes()
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reduceMaxParents max-reduces a replicated int64 array across all ranks —
// the delayed-reduction collective (BFS parents, and any workload-final
// replicated fold), observed as PhaseReduce.
func reduceMaxParents(d *driver, vals []int64) error {
	return d.observeCollective(trace.KindReduce, stats.PhaseReduce, "reduce_parents", func() error {
		if len(vals) == 0 {
			return nil
		}
		return comm.AllreduceMaxInt64(d.r.World, vals)
	})
}

// syncHub merges a replicated hub array of n entries with the paper's
// delegation traffic pattern: reduce down the column, then across the row, so
// E and H state moves only on column and row links and the two-stage
// reduction over the mesh equals the world reduction. reduce runs one
// communicator's in-place collective (OR for BFS activations, min for WCC
// labels and SSSP distances, sum for k-core decrements and PageRank partials).
// Both stages always run — even after the column one fails — so the row
// communicator's collective schedule matches on every rank; a failed merge
// leaves garbage the step retry's snapshot restore discards. Observed as
// PhaseOther under the given span name.
func syncHub(d *driver, name string, n int, reduce func(c *comm.Comm) error) error {
	return d.observeCollective(trace.KindSync, stats.PhaseOther, name, func() error {
		if n == 0 {
			return nil
		}
		err := reduce(d.r.ColC)
		if e2 := reduce(d.r.RowC); err == nil {
			err = e2
		}
		return err
	})
}

// exchange ships a remote push kernel's per-destination messages over cc
// through the collective latched for component c: the dense alltoallv, or the
// sparse allgather on tail iterations. Both take and return the same shape,
// so a kernel generates and applies its messages once for either form.
func exchange[T any](d *driver, cc *comm.Comm, c partition.Component, send [][]T) ([][]T, error) {
	if d.sparse[c] {
		return comm.AllgatherSparse(cc, send)
	}
	return comm.Alltoallv(cc, send)
}

// rowExchange runs the row exchange of a workload's H2L or L2H push, whose
// messages share one type T. applyL applies H2L's received messages, applyHub
// L2H's. Under the batched row exchange (batchRow) H2L's buffers wait in
// *pend and L2H posts both lists as one sparse contribution, applied in the
// dense schedule's kernel order: all H2L, then all L2H. Deferring the H2L
// applies is safe because the kernels in between (L2E, L2H) read only base
// values and hub state, never what H2L's applies write. A retry re-enters at
// the top of step 1, where H2L overwrites *pend.
func rowExchange[T any](d *driver, c partition.Component, pend *[][]T, send [][]T, applyL, applyHub func([][]T)) error {
	if !d.batchRow {
		recv, err := exchange(d, d.r.RowC, c, send)
		if err == nil {
			if c == partition.CompH2L {
				applyL(recv)
			} else {
				applyHub(recv)
			}
		}
		return err
	}
	if c == partition.CompH2L {
		*pend = send
		return nil
	}
	recv, err := comm.AllgatherSparse(d.r.RowC, append(*pend, send...))
	*pend = nil
	if err == nil {
		applyL(recv[:len(send)])
		applyHub(recv[len(send):])
	}
	return err
}

// observeCollective times a collective-only phase (no edge touches),
// attributes its traffic delta to phase and emits one span of the given kind.
func (d *driver) observeCollective(kind trace.Kind, phase stats.Phase, name string, fn func() error) error {
	t0 := time.Now()
	var s0 int64
	if d.tr != nil {
		s0 = d.tr.Now()
	}
	base := d.r.Stats
	err := fn()
	delta := d.r.Stats.Delta(&base)
	d.rec.Observe(phase, stats.DirNone, time.Since(t0), delta, 0)
	if d.tr != nil {
		intra, inter := delta.Totals()
		sp := trace.Span{Kind: kind, Epoch: d.r.Epoch(),
			Iter: d.curIter, Step: d.curStep, Attempt: d.curAttempt,
			Name: name, Start: s0, Dur: d.tr.Now() - s0,
			IntraBytes: intra, InterBytes: inter}
		if err != nil {
			sp.Err = 1
		}
		d.tr.Emit(sp)
	}
	return err
}

// snapSlice copies src into a reusable snapshot buffer: the workloads' value
// arrays (labels, degrees, distances, ranks) and bitmap words alike.
func snapSlice[T any](dst *[]T, src []T) {
	if cap(*dst) < len(src) {
		*dst = make([]T, len(src))
	}
	*dst = (*dst)[:len(src)]
	copy(*dst, src)
}

// vote is the retry-boundary agreement over the reliable control plane.
// Word 0 ORs every rank's failed-step mask; the remaining words OR a
// dead-rank bitmask assembled from typed collective errors plus the rank's
// own death latch — a dead rank keeps participating in control collectives,
// so the "zombie" acts as its own failure detector and no timeout is needed
// for unanimous detection. Returns the global step mask and the agreed
// dead-rank list.
func (d *driver) vote(stepMask uint64, errs ...error) (uint64, []int) {
	ranks := d.e.Opt.Ranks
	words := make([]uint64, 1+(ranks+63)/64)
	words[0] = stepMask
	for _, err := range errs {
		var ce *comm.CollectiveError
		if errors.As(err, &ce) && errors.Is(ce.Err, comm.ErrRankDead) {
			words[1+ce.Rank/64] |= 1 << uint(ce.Rank%64)
		}
	}
	if d.r.Dead() {
		words[1+d.r.ID/64] |= 1 << uint(d.r.ID%64)
	}
	agg := comm.ControlOrWords(d.r.World, words)
	var dead []int
	for i := 0; i < ranks; i++ {
		if agg[1+i/64]&(1<<uint(i%64)) != 0 {
			dead = append(dead, i)
		}
	}
	return agg[0], dead
}

// observe times a kernel and attributes its traffic delta and edge touches.
func (d *driver) observe(c partition.Component, dir stats.Direction, fn func() (int64, error)) error {
	t0 := time.Now()
	var s0 int64
	if d.tr != nil {
		s0 = d.tr.Now()
	}
	base := d.r.Stats
	edges, err := fn()
	delta := d.r.Stats.Delta(&base)
	d.rec.Observe(stats.PhaseOfComponent(c), dir, time.Since(t0), delta, edges)
	if d.tr != nil {
		intra, inter := delta.Totals()
		sp := trace.Span{Kind: trace.KindKernel, Epoch: d.r.Epoch(),
			Iter: d.curIter, Step: d.curStep, Attempt: d.curAttempt,
			Tag: int(c), Name: c.String(), Dir: dir.String(),
			Start: s0, Dur: d.tr.Now() - s0, Edges: edges,
			IntraBytes: intra, InterBytes: inter}
		if err != nil {
			sp.Err = 1
		}
		d.tr.Emit(sp)
	}
	return err
}

// runComp tags and runs one component kernel under the iteration's chosen
// direction, handling the skip bookkeeping — the shared body of every
// workload's step dispatcher.
func (d *driver) runComp(c partition.Component, dir stats.Direction, fn func() (int64, error)) error {
	d.r.SetTag(int(c))
	if dir == stats.DirSkip {
		d.rec.Observe(stats.PhaseOfComponent(c), dir, 0, comm.VolumeStats{}, 0)
		if d.tr != nil {
			d.tr.Emit(trace.Span{Kind: trace.KindKernel, Epoch: d.r.Epoch(),
				Iter: d.curIter, Step: d.curStep, Attempt: d.curAttempt,
				Tag: int(c), Name: c.String(), Dir: "skip", Start: d.tr.Now()})
		}
		return nil
	}
	return d.observe(c, dir, fn)
}

// chooseSchedule is the ported workloads' direction/sparse latch: every
// component pushes (value propagation has no profitable pull form for these
// workloads) or skips when its active-source proxy is empty, and the remote
// push components go sparse under the same cutoff + byte-feedback rule as
// BFS (see pickSparse). act[c] is the component's globally consistent
// active-source count; skipEmpty elides components with act[c] == 0;
// rowBatch allows the H2L+L2H batched row exchange (a workload whose L2H is
// a local delegation, like k-core, must pass false). All inputs are
// globally consistent, so every rank latches the identical schedule.
func (d *driver) chooseSchedule(it *IterTrace, act [partition.NumComponents]int64, skipEmpty, rowBatch bool) {
	var s0 int64
	if d.tr != nil {
		s0 = d.tr.Now()
	}
	for c := 0; c < int(partition.NumComponents); c++ {
		if skipEmpty && act[c] == 0 {
			it.Directions[c] = stats.DirSkip
		} else {
			it.Directions[c] = stats.DirPush
		}
	}
	mode := d.e.Opt.SparseTail
	eligible := func(c partition.Component) bool {
		if it.Directions[c] != stats.DirPush {
			return false
		}
		if mode == SparseOff {
			return false
		}
		if mode == SparseAlways {
			return true
		}
		return act[c] <= d.e.Opt.SparseCutoff &&
			(d.lastIterBytes < 0 || d.lastIterBytes <= d.e.Opt.SparseMaxBytes)
	}
	it.Sparse[partition.CompH2L] = eligible(partition.CompH2L)
	it.Sparse[partition.CompL2H] = rowBatch && eligible(partition.CompL2H)
	it.Sparse[partition.CompL2L] = eligible(partition.CompL2L)
	d.sparse = it.Sparse
	d.batchRow = rowBatch && it.Sparse[partition.CompH2L] && it.Sparse[partition.CompL2H]
	if d.tr != nil {
		args := map[string]int64{
			"active_e":   it.ActiveE,
			"active_h":   it.ActiveH,
			"active_l":   it.ActiveL,
			"last_bytes": d.lastIterBytes,
		}
		for c := 0; c < int(partition.NumComponents); c++ {
			args["dir_"+partition.Component(c).String()] = int64(it.Directions[c])
			if it.Sparse[c] {
				args["sparse_"+partition.Component(c).String()] = 1
			}
		}
		d.tr.Emit(trace.Span{Kind: trace.KindDecision, Epoch: d.r.Epoch(),
			Iter: d.curIter, Step: -1, Name: "choose_schedule",
			Start: s0, Dur: d.tr.Now() - s0, Args: args})
	}
}

// loadCheckpoint rebuilds the rank's iteration state by replaying the delta
// chain up to resumeIter. A replaced rank slot (its predecessor fail-stopped
// last epoch) additionally reloads and verifies its graph-tier partition —
// the read a rejoining replacement pays, and the bulk of BytesRestored.
// Segments beyond the resume point are truncated: the re-executed iterations
// rewrite them, and a stale or torn tail must not shadow the rewrite.
func (d *driver) loadCheckpoint(wl workload) error {
	geo := wl.ckpt()
	cs, n, err := d.scope.Replay(d.r.ID, d.resumeIter,
		len(geo.hubF), len(geo.lF), len(geo.pHub), len(geo.pL))
	d.rec.FailStop.BytesRestored += n
	if err != nil {
		return err
	}
	if d.replaced && d.store != nil {
		var rg partition.RankGraph
		gn, err := d.store.ReadRankGraph(d.r.ID, &rg)
		d.rec.FailStop.BytesRestored += gn
		if err != nil {
			return err
		}
		if rg.LocalN != d.rg.LocalN {
			return fmt.Errorf("core: graph tier for rank %d has LocalN %d, want %d",
				d.r.ID, rg.LocalN, d.rg.LocalN)
		}
	}
	wl.loadState(cs)
	d.resumeState = cs
	return d.scope.Truncate(d.r.ID, d.resumeIter)
}

// capture queues the state as of completing iteration iter to the async
// checkpoint writer; the synchronous cost is one memcpy into a capture
// buffer. must forces it through (the bootstrap segment, without which the
// chain is useless) and keeps a later capture from superseding it while both
// buffers are in flight.
func (d *driver) capture(wl workload, iter int64, must bool) {
	var s0 int64
	if d.tr != nil {
		s0 = d.tr.Now()
	}
	cs := wl.ckpt()
	ok := d.writer.Checkpoint(iter, must,
		cs.hubF, cs.hubV, cs.lF, cs.lV, cs.pHub, cs.pL, cs.activeL, cs.visitL)
	if d.tr != nil {
		sp := trace.Span{Kind: trace.KindCheckpoint, Epoch: d.r.Epoch(),
			Iter: iter, Step: -1, Name: "capture", Start: s0, Dur: d.tr.Now() - s0}
		if !ok {
			sp.Args = map[string]int64{"dropped": 1}
		}
		d.tr.Emit(sp)
	}
}

// runLoop is the engine's shared main loop for one world epoch: the
// generalization of the BFS loop every workload now rides. All ranks execute
// it in lockstep; every collective below is reached by every rank in the same
// order (direction choices derive from globally consistent state).
//
// Under a fault transport the loop becomes a step-granular retry loop: each
// of an iteration's four steps is snapshotted on entry, collective errors are
// collected without breaking the collective schedule, and at the iteration
// boundary all ranks vote over the reliable control plane. The vote carries a
// failed-step mask — transient errors restore to the lowest globally failed
// step and re-execute only from there, so components that completed cleanly
// on every rank are not re-run — and a dead-rank bitmask. Death is the one
// non-retryable verdict: every rank returns a *deadWorldError and the engine
// rebuilds the world at the next epoch and resumes from checkpoint. Retry is
// idempotent because each workload's snapshot covers its non-monotone state.
// MaxRetries consecutive failed votes (or maxIter without convergence) abort
// with ErrNoConvergence.
func (d *driver) runLoop(wl workload) ([]IterTrace, error) {
	faulty := d.r.Faulty()

	// Epoch setup point: a rank can die before the traversal proper — the
	// "failure during partitioning/setup" case — modeled as a tagged barrier
	// at epoch start plus a death vote. Only run under a fault transport;
	// a reliable world has nothing to detect.
	if faulty {
		d.r.SetIter(-1)
		d.r.SetTag(TagSetup)
		berr := d.r.World.Barrier()
		if _, dead := d.vote(0, berr); len(dead) > 0 {
			return nil, &deadWorldError{dead: dead}
		}
		// A transient setup-barrier error is harmless: the barrier carries
		// no state and the vote just agreed nobody died.
	}

	startIter := 0
	var initErr error
	if d.scope != nil && d.resumeIter >= -1 {
		t0 := time.Now()
		var s0 int64
		if d.tr != nil {
			s0 = d.tr.Now()
		}
		initErr = d.loadCheckpoint(wl)
		d.replayDur = time.Since(t0)
		if d.tr != nil {
			sp := trace.Span{Kind: trace.KindRecovery, Iter: d.resumeIter, Step: -1,
				Name: "replay", Start: s0, Dur: d.tr.Now() - s0,
				Bytes: d.rec.FailStop.BytesRestored}
			if initErr != nil {
				sp.Err = 1
			}
			d.tr.Emit(sp)
		}
		startIter = int(d.resumeIter) + 1
	} else {
		initErr = wl.bootstrap()
		if d.scope != nil && initErr == nil {
			// A fresh start over an existing scope (e.g. a chain too torn to
			// resume) must clear any stale tail before rewriting it.
			initErr = d.scope.Truncate(d.r.ID, -1)
		}
	}
	if d.scope != nil && initErr == nil {
		// The async writer goroutine records on its own forked stream: a
		// trace stream is single-writer and the rank goroutine keeps d.tr.
		var wtr *trace.Stream
		if d.tr != nil {
			wtr = d.tr.Fork()
		}
		geo := wl.ckpt()
		d.writer, initErr = checkpoint.NewWriter(d.scope, d.r.ID,
			len(geo.hubF), len(geo.lF), len(geo.pHub), len(geo.pL),
			d.resumeState, wtr)
	}
	if d.writer != nil {
		defer func() {
			ws := d.writer.Close()
			d.rec.FailStop.CheckpointSegments += ws.Segments
			d.rec.FailStop.CheckpointBytes += ws.Bytes
			d.rec.FailStop.CheckpointDropped += ws.Dropped
			d.rec.FailStop.CheckpointErrors += ws.Errors
		}()
	}
	if d.scope != nil {
		// Init vote: a rank aborting on a local replay/setup error must not
		// leave the others stuck in the iteration loop's collectives. Rides
		// the control plane, with or without a fault transport.
		var bad int64
		if initErr != nil {
			bad = 1
		}
		if comm.ControlSumInt64(d.r.World, bad) > 0 {
			if initErr == nil {
				initErr = errRemoteRank
			}
			return nil, fmt.Errorf("core: checkpoint init failed: %w", initErr)
		}
		if d.resumeState == nil {
			d.capture(wl, -1, true)
		}
	} else if initErr != nil {
		return nil, initErr
	}

	var itrace []IterTrace
	attempt := 0
	converged := false
	for iter := startIter; iter < d.maxIter; iter++ {
		d.r.SetIter(int64(iter))
		d.curIter = int64(iter)
		d.curAttempt = attempt
		attemptStart := time.Now()
		d.iterBytesBase = commBytes(d.rec)
		var it IterTrace
		wl.beginIter(&it)
		drainAgreed := false
		g := 0
		for {
			d.curAttempt = attempt
			var stepErrs [numSteps]error
			var failMask uint64
			for ; g < numSteps; g++ {
				d.curStep = g
				if faulty {
					d.recSnaps[g] = *d.rec
					wl.snapshot(g)
				}
				if err := wl.step(g, &it); err != nil {
					stepErrs[g] = err
					failMask |= 1 << uint(g)
				}
			}
			if !faulty {
				// A reliable world's collectives cannot fail, but a drain
				// request must still be agreed: the closure may flip between
				// two ranks' polls, and a rank leaving the loop alone would
				// strand the others in the next iteration's collectives.
				if d.e.Opt.Drain != nil {
					var req uint64
					if d.e.Opt.Drain() {
						req = drainBit
					}
					if comm.ControlOrWords(d.r.World, []uint64{req})[0]&drainBit != 0 {
						drainAgreed = true
					}
				}
				break
			}
			// A drain request rides the vote's step-mask word: it needs the
			// same any-rank-wins agreement as a failed step, and the bit is
			// far above any real step index.
			if d.e.Opt.Drain != nil && d.e.Opt.Drain() {
				failMask |= drainBit
			}
			// Agreement: which steps failed anywhere, and did anyone die?
			gmask, dead := d.vote(failMask, stepErrs[:]...)
			if len(dead) > 0 {
				return itrace, &deadWorldError{dead: dead}
			}
			if gmask&drainBit != 0 {
				// Strip the drain verdict before the failed-step checks below:
				// drain is not a failure and must not trigger a retry, and
				// TrailingZeros on a mask holding only drainBit would index a
				// nonexistent step.
				drainAgreed = true
				gmask &^= drainBit
			}
			if gmask == 0 {
				attempt = 0
				break
			}
			attempt++
			d.retries++
			if attempt > d.e.Opt.MaxRetries {
				err := firstErr(stepErrs[:])
				if err == nil {
					err = errRemoteRank
				}
				d.recovery += time.Since(attemptStart)
				return itrace, fmt.Errorf("core: iteration %d still failing after %d retries: %w: %w",
					iter, d.e.Opt.MaxRetries, ErrNoConvergence, err)
			}
			// Re-enter at the lowest step any rank failed: steps below it
			// completed cleanly on every rank, so their work stands. Every
			// rank restores the same step's snapshot, keeping the collective
			// schedule from there identical.
			g = bits.TrailingZeros64(gmask)
			wl.restore(g)
			*d.rec = d.recSnaps[g]
			if d.tr != nil {
				d.tr.Emit(trace.Span{Kind: trace.KindRecovery, Iter: d.curIter,
					Step: g, Attempt: attempt, Name: "retry", Start: d.tr.Now(),
					Args: map[string]int64{"step_mask": int64(gmask)}})
			}
			time.Sleep(d.e.Opt.RetryBackoff << uint(attempt-1))
			d.recovery += time.Since(attemptStart)
			attemptStart = time.Now()
		}
		d.curStep = -1

		itrace = append(itrace, it)
		if wl.endIter(&it) {
			converged = true
			break
		}
		if drainAgreed {
			// Graceful drain: the iteration committed on every rank, so a
			// must-write checkpoint here is a clean resume point. The engine
			// keeps the run scope on this error, and a successor run replays
			// from exactly this iteration via ResumeFrom.
			if d.writer != nil {
				d.capture(wl, int64(iter), true)
			}
			return itrace, fmt.Errorf("core: drain requested at iteration %d: %w", iter, ErrDrained)
		}
		if d.writer != nil && iter%d.e.Opt.CheckpointEvery == 0 {
			d.capture(wl, int64(iter), false)
		}
	}
	if !converged {
		return itrace, fmt.Errorf("core: frontier still active after %d iterations: %w",
			d.maxIter, ErrNoConvergence)
	}

	// Delayed reduction (Section 5): one world-wide reduce after the run
	// instead of per-iteration traffic. The reduction is idempotent, so under
	// faults it retries with the same vote protocol as iterations. A
	// fail-stop here still aborts to the engine, which replays the final
	// iteration from checkpoint and reduces under the new world.
	d.r.SetTag(TagReduce)
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		d.curAttempt = attempt
		// Same rollback discipline as the step retry loop: a re-executed
		// reduction re-observes PhaseReduce, so the failed attempt's
		// observation must not stay in the aggregates.
		var recSnap stats.Recorder
		if faulty {
			recSnap = *d.rec
		}
		err := wl.finalize()
		if !faulty {
			return itrace, err
		}
		var bad uint64
		if err != nil {
			bad = 1
		}
		gmask, dead := d.vote(bad, err)
		if len(dead) > 0 {
			return itrace, &deadWorldError{dead: dead}
		}
		if gmask == 0 {
			return itrace, nil
		}
		d.retries++
		if attempt >= d.e.Opt.MaxRetries {
			d.recovery += time.Since(t0)
			if err == nil {
				err = errRemoteRank
			}
			return itrace, fmt.Errorf("core: parent reduction still failing after %d retries: %w: %w",
				d.e.Opt.MaxRetries, ErrNoConvergence, err)
		}
		*d.rec = recSnap
		if d.tr != nil {
			d.tr.Emit(trace.Span{Kind: trace.KindRecovery, Iter: d.curIter,
				Step: -1, Attempt: attempt, Name: "retry_reduce", Start: d.tr.Now()})
		}
		time.Sleep(d.e.Opt.RetryBackoff << uint(attempt))
		d.recovery += time.Since(t0)
	}
}
