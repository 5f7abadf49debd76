package core

import (
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
)

// prState is damped PageRank power iteration on the engine's fast path. Every
// vertex sends value/degree along each of its edges every round, through the
// six components: hub-targeted contributions (EH2EH, L2E, L2H) accumulate in
// a local replicated partial (hubAcc) that the epilogue sum-reduces
// column-then-row — AllreduceSumFloat64 sums in member order, so every
// replica computes bit-identical hub values without a re-broadcast — while
// L-targeted contributions land at the owner: E2L locally, H2L pulled
// locally, L2L as owner-directed messages.
//
// PageRank is dense by construction (every vertex is active every round), so
// the schedule is fixed and the sparse tail never engages. H2L pulls: hub
// values are replicated, so each owner reads its L vertices' H neighbors
// through the L2H adjacency it already holds (the BFS bottom-up form) instead
// of receiving one row message per H2L edge.
//
// The dangling mass (degree-0 vertices redistribute uniformly, keeping the
// ranks summing to 1) and the L1 change ride one epilogue allreduce; the
// dangling sum it agrees on is the next round's, computed from the values
// just applied.
type prState struct {
	driver

	damping, tol float64

	k    int
	numE int64

	hubVal, hubAcc []float64 // replicated values and this round's partials
	lVal, lAcc     []float64 // owner-local values and this round's sums
	hubOut, lOut   []float64 // value/degree: the round's per-edge message
	hubDeg, lDeg   []float64
	lIsHub         *bitmap.Bitmap // owner slots shadowed by hub delegation

	send [][]prMsg // reused L2L exchange buffers, one per rank

	dangling              float64 // agreed dangling mass entering this round
	delta                 float64 // last committed round's global L1 change
	pendDelta, pendDangle float64 // epilogue's agreed sums, committed by endIter

	// Checkpoint views of the value arrays as float bits, allocated on the
	// first capture.
	hubBits, lBits []int64

	snaps [numSteps]prSnapshot
}

// prMsg carries one edge's contribution to an owned L vertex.
type prMsg struct {
	LIdx int32
	Val  float64
}

// prSnapshot rolls back everything a retried step can touch: the partial sums
// are additive (not idempotent across a re-executed kernel) and the epilogue
// overwrites the values. The pending sums need no capture: the vote passes
// only once every rank's epilogue allreduce succeeded and set them.
type prSnapshot struct {
	hubVal, hubAcc, lVal, lAcc []float64
}

func newPageRankState(e *Engine, r *comm.Rank, damping, tol float64, rounds int) *prState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &prState{
		driver:  newDriver(e, r, rounds),
		damping: damping,
		tol:     tol,
		k:       k,
		numE:    int64(e.Part.Hubs.NumE),
		hubVal:  make([]float64, k),
		hubAcc:  make([]float64, k),
		lVal:    make([]float64, per),
		lAcc:    make([]float64, per),
		hubOut:  make([]float64, k),
		lOut:    make([]float64, per),
		hubDeg:  make([]float64, k),
		lDeg:    make([]float64, per),
		lIsHub:  bitmap.New(per),
		send:    make([][]prMsg, e.Opt.Ranks),
	}
	layout := e.Part.Layout
	hubs := e.Part.Hubs
	for h := 0; h < k; h++ {
		st.hubDeg[h] = float64(hubs.Deg[h])
	}
	for li := 0; li < st.rg.LocalN; li++ {
		v := layout.GlobalOf(r.ID, int32(li))
		st.lDeg[li] = float64(e.Part.Degrees[v])
		if _, isHub := hubs.HubOf(v); isHub {
			st.lIsHub.Set(li)
		}
	}
	return st
}

func (st *prState) drv() *driver { return &st.driver }

// bootstrap starts every vertex at 1/n. The initial dangling mass is the
// global count of degree-0 vertices (all of them owned L slots: hubs have
// degree at least H) times 1/n, agreed over the control plane.
func (st *prState) bootstrap() error {
	inv := 1 / float64(st.e.Part.Layout.N)
	for h := range st.hubVal {
		st.hubVal[h] = inv
	}
	var dangling int64
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lIsHub.Test(li) {
			continue
		}
		st.lVal[li] = inv
		if st.lDeg[li] == 0 {
			dangling++
		}
	}
	st.dangling = float64(comm.ControlSumInt64(st.r.World, dangling)) * inv
	return nil
}

// ckpt persists the value arrays as float bits in the int64 slots and the
// agreed dangling mass in the ActiveL scalar; PageRank has no bitmaps.
func (st *prState) ckpt() ckptSlices {
	return ckptSlices{pHub: floatBits(&st.hubBits, st.hubVal), pL: floatBits(&st.lBits, st.lVal),
		activeL: int64(math.Float64bits(st.dangling))}
}

// floatBits fills the reusable buffer *dst with the bit patterns of src.
func floatBits(dst *[]int64, src []float64) []int64 {
	if len(*dst) != len(src) {
		*dst = make([]int64, len(src))
	}
	for i, v := range src {
		(*dst)[i] = int64(math.Float64bits(v))
	}
	return *dst
}

func (st *prState) loadState(cs *checkpoint.State) {
	for h, b := range cs.ParentHub {
		st.hubVal[h] = math.Float64frombits(uint64(b))
	}
	for li, b := range cs.ParentL {
		st.lVal[li] = math.Float64frombits(uint64(b))
	}
	st.dangling = math.Float64frombits(uint64(cs.ActiveL))
}

// beginIter latches the fixed dense schedule (H2L pulls, everything else
// pushes), clears the partial sums and precomputes each vertex's per-edge
// message from the committed values.
func (st *prState) beginIter(it *IterTrace) {
	it.ActiveE = st.numE
	it.ActiveH = int64(st.k) - st.numE
	it.ActiveL = st.e.Part.Layout.N - int64(st.k)
	for c := range it.Directions {
		it.Directions[c] = stats.DirPush
	}
	it.Directions[partition.CompH2L] = stats.DirPull
	clear(st.hubAcc)
	clear(st.lAcc)
	for h, v := range st.hubVal {
		st.hubOut[h] = v / st.hubDeg[h]
	}
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lDeg[li] != 0 {
			st.lOut[li] = st.lVal[li] / st.lDeg[li]
		}
	}
}

func (st *prState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH, st.ehPush)
		run(partition.CompE2L, st.e2lPush)
	case 1:
		run(partition.CompH2L, st.h2lPull)
		run(partition.CompL2E, func() (int64, error) { return st.lToHub(&st.rg.LToE), nil })
		run(partition.CompL2H, func() (int64, error) { return st.lToHub(&st.rg.LToH), nil })
	case 2:
		run(partition.CompL2L, st.l2lPush)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// ehPush: source hubs contribute to destination hubs over this rank's 2D
// core-subgraph block, into the local replicated partial.
func (st *prState) ehPush() (int64, error) {
	push := &st.rg.EHPush
	var edges int64
	for i, src := range push.IDs {
		msg := st.hubOut[src]
		adj := push.Adj[push.Ptr[i]:push.Ptr[i+1]]
		for _, dst := range adj {
			st.hubAcc[dst] += msg
		}
		edges += int64(len(adj))
	}
	return edges, nil
}

// e2lPush: E hubs contribute to owned L vertices locally.
func (st *prState) e2lPush() (int64, error) {
	csr := &st.rg.EToL
	var edges int64
	for i, hub := range csr.IDs {
		msg := st.hubOut[hub]
		adj := csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]]
		for _, li := range adj {
			st.lAcc[li] += msg
		}
		edges += int64(len(adj))
	}
	return edges, nil
}

// h2lPull: owned L vertices sum their H neighbors' replicated messages
// through the local L2H adjacency.
func (st *prState) h2lPull() (int64, error) {
	csr := &st.rg.LToH
	var edges int64
	for li := 0; li < st.rg.LocalN; li++ {
		adj := csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]]
		var sum float64
		for _, hub := range adj {
			sum += st.hubOut[hub]
		}
		st.lAcc[li] += sum
		edges += int64(len(adj))
	}
	return edges, nil
}

// lToHub: owned L vertices contribute to E (L2E) or H (L2H) delegates into
// the local replicated partial; the epilogue's two-stage sum propagates it,
// so additive delegation needs no message.
func (st *prState) lToHub(csr *partition.DenseCSR32) int64 {
	var edges int64
	for li := 0; li < st.rg.LocalN; li++ {
		adj := csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]]
		if len(adj) == 0 {
			continue
		}
		msg := st.lOut[li]
		for _, hub := range adj {
			st.hubAcc[hub] += msg
		}
		edges += int64(len(adj))
	}
	return edges
}

// l2lPush: owned L vertices message their L neighbors' owners in one world
// alltoallv.
func (st *prState) l2lPush() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := st.send
	for j := range send {
		send[j] = send[j][:0]
	}
	var edges int64
	for li := 0; li < st.rg.LocalN; li++ {
		adj := csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]]
		if len(adj) == 0 {
			continue
		}
		msg := st.lOut[li]
		for _, dst := range adj {
			o := layout.Owner(dst)
			send[o] = append(send[o], prMsg{LIdx: layout.LocalIdx(dst), Val: msg})
		}
		edges += int64(len(adj))
	}
	recv, err := comm.Alltoallv(st.r.World, send)
	if err != nil {
		return edges, err
	}
	for _, part := range recv {
		for _, m := range part {
			st.lAcc[m.LIdx] += m.Val
		}
	}
	return edges, nil
}

// epilogue sum-reduces the hub partials column-then-row, applies the damped
// update to every replicated hub and owned L vertex, and agrees on the round's
// L1 change and the next round's dangling mass. Each hub's change is counted
// by the owner of its original vertex only (the update is replicated). Both
// collectives run unconditionally so every rank keeps the same schedule under
// faults; values applied from a garbled merge are rolled back by the step
// retry's snapshot restore.
func (st *prState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	firstErr := syncHub(&st.driver, "rank_sync", st.k, func(c *comm.Comm) error {
		return comm.AllreduceSumFloat64(c, st.hubAcc)
	})
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	n := float64(layout.N)
	base := (1 - st.damping) / n
	share := st.dangling / n
	var delta, dangling float64
	for h := 0; h < st.k; h++ {
		nv := base + st.damping*(st.hubAcc[h]+share)
		if layout.Owner(hubs.Orig[h]) == st.r.ID {
			delta += math.Abs(nv - st.hubVal[h])
		}
		st.hubVal[h] = nv
	}
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lIsHub.Test(li) {
			continue
		}
		nv := base + st.damping*(st.lAcc[li]+share)
		delta += math.Abs(nv - st.lVal[li])
		st.lVal[li] = nv
		if st.lDeg[li] == 0 {
			dangling += nv
		}
	}
	sums := []float64{delta, dangling}
	err := comm.AllreduceSumFloat64(st.r.World, sums)
	if firstErr == nil {
		firstErr = err
	}
	if err == nil {
		st.pendDelta, st.pendDangle = sums[0], sums[1]
	}
	return firstErr
}

// endIter commits the agreed sums; the run stops once the L1 change is at or
// below tol, or after the round cap (the driver's loop bound).
func (st *prState) endIter(it *IterTrace) bool {
	st.delta = st.pendDelta
	st.dangling = st.pendDangle
	return st.delta <= st.tol || st.curIter+1 >= int64(st.maxIter)
}

func (st *prState) finalize() error { return nil }

func (st *prState) snapshot(g int) {
	s := &st.snaps[g]
	snapSlice(&s.hubVal, st.hubVal)
	snapSlice(&s.hubAcc, st.hubAcc)
	snapSlice(&s.lVal, st.lVal)
	snapSlice(&s.lAcc, st.lAcc)
}

func (st *prState) restore(g int) {
	s := &st.snaps[g]
	copy(st.hubVal, s.hubVal)
	copy(st.hubAcc, s.hubAcc)
	copy(st.lVal, s.lVal)
	copy(st.lAcc, s.lAcc)
}

// writeResult assembles this rank's share of the rank array: owned non-hub L
// vertices, then the hub vertices whose original IDs it owns (hub values are
// replicated bit-identically).
func (st *prState) writeResult(rank []float64) {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for li := 0; li < st.rg.LocalN; li++ {
		if !st.lIsHub.Test(li) {
			rank[layout.GlobalOf(st.r.ID, int32(li))] = st.lVal[li]
		}
	}
	for h, orig := range hubs.Orig {
		if layout.Owner(orig) == st.r.ID {
			rank[orig] = st.hubVal[h]
		}
	}
}

// RunPageRank runs damped PageRank power iteration on the fast path until the
// L1 change drops to tol or maxIter rounds elapse (maxIter <= 0 selects 100).
// Dangling mass is redistributed uniformly, so the ranks sum to 1 throughout.
// Hub partial sums are delegated and sum-reduced column-then-row, and the loop
// inherits retry and checkpoint/recovery from the driver.
func (e *Engine) RunPageRank(damping, tol float64, maxIter int) (*WorkloadResult, error) {
	if !(damping > 0 && damping < 1) {
		return nil, fmt.Errorf("core: damping %g out of (0,1)", damping)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	rc, err := e.execute("pagerank", map[string]int64{"rounds": int64(maxIter)},
		func(e *Engine, r *comm.Rank) workload { return newPageRankState(e, r, damping, tol, maxIter) })
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult("pagerank", rc)
	res.Rank = make([]float64, e.Part.Layout.N)
	if rc.err == nil {
		for _, wl := range rc.states {
			if wl == nil {
				continue
			}
			st := wl.(*prState)
			st.writeResult(res.Rank)
			res.Delta = st.delta
		}
		e.distAssemble(func(r *comm.Rank, lead bool) {
			gatherOwned(e, r, lead, res.Rank)
		})
	}
	return res, rc.err
}
