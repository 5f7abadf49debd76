package core

import (
	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
)

// kcoreState is k-core peeling on the engine's fast path. Every iteration
// marks the live vertices whose remaining degree fell below the threshold and
// sends one degree decrement along each of their edges through the six
// components: hub-sourced and hub-targeted decrements accumulate in a local
// replicated partial (hubDec) that the epilogue sum-reduces column-then-row
// (the two-stage sum over the mesh equals the world sum — delegation for
// additive state), while L-targeted decrements travel as owner-directed
// messages (dense alltoallv, or the sparse allgather on small peel rounds).
//
// L2H never exchanges: a hub decrement from an owned L vertex lands in the
// local hubDec partial, so the workload's row batch stays off (rowBatch=false
// in chooseSchedule). The sparse/dense choice keys off the previous round's
// globally agreed peel count — peel cascades typically decay, mirroring the
// BFS tail.
type kcoreState struct {
	driver

	kth  int64 // the core threshold (the "k" of k-core)
	k    int   // hub count
	numE int64

	hubDeg, lDeg []int64 // remaining degrees (hub: replicated, L: owner-local)
	hubDec, lDec []int64 // this iteration's decrements

	hubRemoved, hubPeel *bitmap.Bitmap
	lRemoved, lPeel     *bitmap.Bitmap
	lIsHub              *bitmap.Bitmap // owner slots shadowed by hub delegation

	liveL      int64 // global count of live (unremoved, non-hub) L vertices
	lastPeeled int64 // previous round's agreed global peel count; -1 first round

	peeledOwn, peeledL      int64 // this round's local counts (step 0)
	pendPeeled, pendPeeledL int64 // epilogue's agreed counts, committed by endIter

	snaps [numSteps]kcoreSnapshot
}

// kcoreSnapshot rolls back everything a retried step can have touched:
// degrees and decrements are additive (not monotone across a failed partial
// sum-reduce), and the peel marks drive which edges decrement.
type kcoreSnapshot struct {
	hubDeg, lDeg, hubDec, lDec           []int64
	hubRemoved, hubPeel, lRemoved, lPeel []uint64
	peeledOwn, peeledL                   int64
}

func newKCoreState(e *Engine, r *comm.Rank, kth int64) *kcoreState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	st := &kcoreState{
		driver:     newWorkloadDriver(e, r),
		kth:        kth,
		k:          k,
		numE:       int64(e.Part.Hubs.NumE),
		hubDeg:     make([]int64, k),
		lDeg:       make([]int64, per),
		hubDec:     make([]int64, k),
		lDec:       make([]int64, per),
		hubRemoved: bitmap.New(k),
		hubPeel:    bitmap.New(k),
		lRemoved:   bitmap.New(per),
		lPeel:      bitmap.New(per),
		lIsHub:     bitmap.New(per),
		lastPeeled: -1,
	}
	layout := e.Part.Layout
	hubs := e.Part.Hubs
	for li := 0; li < st.rg.LocalN; li++ {
		if _, isHub := hubs.HubOf(layout.GlobalOf(r.ID, int32(li))); isHub {
			st.lIsHub.Set(li)
		}
	}
	return st
}

func (st *kcoreState) drv() *driver { return &st.driver }

// bootstrap loads the partitioner's degree table (hub degrees replicated, L
// degrees owner-local) and agrees on the global live-L count.
func (st *kcoreState) bootstrap() error {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	copy(st.hubDeg, hubs.Deg)
	var live int64
	for li := 0; li < st.rg.LocalN; li++ {
		st.lDeg[li] = st.e.Part.Degrees[layout.GlobalOf(st.r.ID, int32(li))]
		if !st.lIsHub.Test(li) {
			live++
		}
	}
	st.liveL = comm.ControlSumInt64(st.r.World, live)
	return nil
}

// ckpt persists removal bitmaps and remaining degrees. The peel bitmaps and
// decrement arrays are empty at every capture point (the epilogue clears
// them), so their slots double as the writer's second bitmap pair; lastPeeled
// rides the VisitL scalar to keep the post-resume sparse choice in lockstep.
func (st *kcoreState) ckpt() ckptSlices {
	return ckptSlices{
		hubF: st.hubRemoved.Words(), hubV: st.hubPeel.Words(),
		lF: st.lRemoved.Words(), lV: st.lPeel.Words(),
		pHub: st.hubDeg, pL: st.lDeg,
		activeL: st.liveL, visitL: st.lastPeeled,
	}
}

func (st *kcoreState) loadState(cs *checkpoint.State) {
	copy(st.hubRemoved.Words(), cs.HubFrontier)
	copy(st.hubPeel.Words(), cs.HubVisited)
	copy(st.lRemoved.Words(), cs.LFrontier)
	copy(st.lPeel.Words(), cs.LVisited)
	copy(st.hubDeg, cs.ParentHub)
	copy(st.lDeg, cs.ParentL)
	st.liveL = cs.ActiveL
	st.lastPeeled = cs.VisitL
}

// beginIter latches the schedule. Peeling has no per-component active-source
// count before the marks are computed (that happens inside step 0), so every
// component keys off the previous round's agreed global peel count — the
// sparse tail engages as the cascade decays. The first round has no history
// and stays dense.
func (st *kcoreState) beginIter(it *IterTrace) {
	it.ActiveE = st.numE - int64(st.hubRemoved.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.k) - st.numE - int64(st.hubRemoved.CountRange(int(st.numE), st.k))
	it.ActiveL = st.liveL
	proxy := st.lastPeeled
	if proxy < 0 {
		proxy = st.e.Opt.SparseCutoff + 1
	}
	var act [partition.NumComponents]int64
	for c := range act {
		act[c] = proxy
	}
	st.chooseSchedule(it, act, false, false)
	st.peeledOwn, st.peeledL = 0, 0
	st.pendPeeled, st.pendPeeledL = 0, 0
}

func (st *kcoreState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		st.peelMark()
		run(partition.CompEH2EH, st.ehDec)
		run(partition.CompE2L, st.e2lDec)
	case 1:
		run(partition.CompH2L, st.h2lDec)
		run(partition.CompL2E, st.l2eDec)
		run(partition.CompL2H, st.l2hDec)
	case 2:
		run(partition.CompL2L, st.l2lDec)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// peelMark marks every live vertex below the threshold. Hub removals are
// decided identically on every rank (replicated degrees); only the owner of
// the hub's original vertex counts them toward the global total.
func (st *kcoreState) peelMark() {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for h := 0; h < st.k; h++ {
		if !st.hubRemoved.Test(h) && st.hubDeg[h] < st.kth {
			st.hubRemoved.Set(h)
			st.hubPeel.Set(h)
			if layout.Owner(hubs.Orig[h]) == st.r.ID {
				st.peeledOwn++
			}
		}
	}
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lIsHub.Test(li) || st.lRemoved.Test(li) {
			continue
		}
		if st.lDeg[li] < st.kth {
			st.lRemoved.Set(li)
			st.lPeel.Set(li)
			st.peeledOwn++
			st.peeledL++
		}
	}
}

// ehDec: freshly peeled source hubs decrement destination hubs over this
// rank's 2D core-subgraph block, into the local replicated partial.
func (st *kcoreState) ehDec() (int64, error) {
	push := &st.rg.EHPush
	var edges int64
	for i, src := range push.IDs {
		if !st.hubPeel.Test(int(src)) {
			continue
		}
		for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			edges++
			st.hubDec[dst]++
		}
	}
	return edges, nil
}

// e2lDec: peeled E hubs decrement owned L degrees locally.
func (st *kcoreState) e2lDec() (int64, error) {
	csr := &st.rg.EToL
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubPeel.Test(int(hub)) {
			continue
		}
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			st.lDec[li]++
		}
	}
	return edges, nil
}

// h2lDec: peeled H hubs in this rank's column block send decrements to their
// L neighbors' owners along the row.
func (st *kcoreState) h2lDec() (int64, error) {
	csr := &st.rg.HToL
	send := make([][]rowMsg, st.e.Opt.Mesh.Cols)
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubPeel.Test(int(hub)) {
			continue
		}
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			send[rem.Col] = append(send[rem.Col], rowMsg{Idx: rem.LIdx, Val: 1})
		}
	}
	recv, err := exchange(&st.driver, st.r.RowC, partition.CompH2L, send)
	if err != nil {
		return edges, err
	}
	for _, part := range recv {
		for _, m := range part {
			st.lDec[m.Idx] += m.Val
		}
	}
	return edges, nil
}

// l2eDec: peeled owned L vertices decrement E delegates locally.
func (st *kcoreState) l2eDec() (int64, error) {
	csr := &st.rg.LToE
	var edges int64
	st.lPeel.ForEach(func(li int) {
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.hubDec[hub]++
		}
	})
	return edges, nil
}

// l2hDec: peeled owned L vertices decrement H delegates into the local
// partial — additive delegation needs no message; the epilogue's two-stage
// sum-reduce propagates it.
func (st *kcoreState) l2hDec() (int64, error) {
	csr := &st.rg.LToH
	var edges int64
	st.lPeel.ForEach(func(li int) {
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.hubDec[hub]++
		}
	})
	return edges, nil
}

// l2lDec: peeled owned L vertices send decrements to their L neighbors'
// owners over the world.
func (st *kcoreState) l2lDec() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := make([][]l2lMsg, layout.P)
	var edges int64
	st.lPeel.ForEach(func(li int) {
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			send[layout.Owner(dst)] = append(send[layout.Owner(dst)], l2lMsg{Dst: dst, Parent: 1})
		}
	})
	recv, err := exchange(&st.driver, st.r.World, partition.CompL2L, send)
	if err != nil {
		return edges, err
	}
	for _, part := range recv {
		for _, m := range part {
			st.lDec[layout.LocalIdx(m.Dst)] += m.Parent
		}
	}
	return edges, nil
}

// epilogue sum-reduces the replicated hub decrements column-then-row, applies
// both decrement arrays, clears the round's marks, and agrees on the global
// peel count (plus the byte feedback for the sparse tail). Both collectives
// run unconditionally so every rank keeps the same schedule under faults; a
// garbled partial merge is discarded by the step retry's snapshot restore.
func (st *kcoreState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	firstErr := syncHub(&st.driver, "deg_sync", st.k, func(c *comm.Comm) error {
		return comm.AllreduceSumInt64Vec(c, st.hubDec)
	})
	for h := 0; h < st.k; h++ {
		st.hubDeg[h] -= st.hubDec[h]
		st.hubDec[h] = 0
	}
	for li := range st.lDec {
		st.lDeg[li] -= st.lDec[li]
		st.lDec[li] = 0
	}
	st.hubPeel.Reset()
	st.lPeel.Reset()
	iterBytes := commBytes(st.rec) - st.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(st.r.World,
		[]int64{st.peeledOwn, iterBytes, st.peeledL})
	if firstErr == nil {
		firstErr = err
	}
	if err == nil {
		st.pendPeeled = sums[0]
		st.lastIterBytes = sums[1]
		st.pendPeeledL = sums[2]
	}
	return firstErr
}

// endIter commits the agreed counts; the peel converges when a whole round
// removed nothing anywhere.
func (st *kcoreState) endIter(it *IterTrace) bool {
	st.lastPeeled = st.pendPeeled
	st.liveL -= st.pendPeeledL
	return st.pendPeeled == 0
}

func (st *kcoreState) finalize() error { return nil }

func (st *kcoreState) snapshot(g int) {
	s := &st.snaps[g]
	snapSlice(&s.hubDeg, st.hubDeg)
	snapSlice(&s.lDeg, st.lDeg)
	snapSlice(&s.hubDec, st.hubDec)
	snapSlice(&s.lDec, st.lDec)
	snapSlice(&s.hubRemoved, st.hubRemoved.Words())
	snapSlice(&s.hubPeel, st.hubPeel.Words())
	snapSlice(&s.lRemoved, st.lRemoved.Words())
	snapSlice(&s.lPeel, st.lPeel.Words())
	s.peeledOwn, s.peeledL = st.peeledOwn, st.peeledL
}

func (st *kcoreState) restore(g int) {
	s := &st.snaps[g]
	copy(st.hubDeg, s.hubDeg)
	copy(st.lDeg, s.lDeg)
	copy(st.hubDec, s.hubDec)
	copy(st.lDec, s.lDec)
	copy(st.hubRemoved.Words(), s.hubRemoved)
	copy(st.hubPeel.Words(), s.hubPeel)
	copy(st.lRemoved.Words(), s.lRemoved)
	copy(st.lPeel.Words(), s.lPeel)
	st.peeledOwn, st.peeledL = s.peeledOwn, s.peeledL
}

// writeResult assembles this rank's share of the membership array: owned
// non-hub L vertices, then the hub vertices whose original IDs it owns
// (removal decisions are replicated).
func (st *kcoreState) writeResult(inCore []bool) {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for li := 0; li < st.rg.LocalN; li++ {
		v := layout.GlobalOf(st.r.ID, int32(li))
		if _, isHub := hubs.HubOf(v); !isHub {
			inCore[v] = !st.lRemoved.Test(li)
		}
	}
	for h, orig := range hubs.Orig {
		if layout.Owner(orig) == st.r.ID {
			inCore[orig] = !st.hubRemoved.Test(h)
		}
	}
}
