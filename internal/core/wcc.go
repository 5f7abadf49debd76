package core

import (
	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
)

// wccState is connected components on the engine's fast path: min-label
// propagation over the six 1.5D components. Hub labels are delegated exactly
// like BFS hub state — replicated per rank and min-merged column-then-row
// after each hub-lowering step — while L labels live only at their owner.
//
// The per-iteration discipline: beginIter latches base copies of both label
// arrays; every kernel reads source labels from the base (so the batched row
// exchange can defer its applies without changing any kernel's input) and
// lowers live labels; the epilogue diffs live against base to build the next
// dirty sets and agree on the global change count.
type wccState struct {
	driver

	k    int
	numE int64

	hubLabel, hubBase []int64
	lLabel, lBase     []int64

	hubDirty, lDirty *bitmap.Bitmap // lowered last iteration: this iteration's sources
	hubNext, lNext   *bitmap.Bitmap // staged: lowered this iteration

	pendRow [][]rowMsg // H2L's buffers awaiting the batched row exchange

	activeL             int64 // global count of dirty L vertices
	pendChanged, pendAL int64 // epilogue's agreed counts, committed by endIter

	snaps [numSteps]wccSnapshot
}

// wccSnapshot is the state a retried step must roll back: label lowering is
// not monotone across a failed collective (a partially merged sync can leave
// garbage), so both live label arrays are captured alongside the staged dirty
// sets. The base arrays are latched once per iteration and never written by
// steps, so they need no capture.
type wccSnapshot struct {
	hubLabel, lLabel []int64
	hubNext, lNext   []uint64
}

func newWCCState(e *Engine, r *comm.Rank) *wccState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	return &wccState{
		driver:   newWorkloadDriver(e, r),
		k:        k,
		numE:     int64(e.Part.Hubs.NumE),
		hubLabel: make([]int64, k),
		hubBase:  make([]int64, k),
		lLabel:   make([]int64, per),
		lBase:    make([]int64, per),
		hubDirty: bitmap.New(k),
		hubNext:  bitmap.New(k),
		lDirty:   bitmap.New(per),
		lNext:    bitmap.New(per),
	}
}

func (st *wccState) drv() *driver { return &st.driver }

// bootstrap seeds every vertex with its own original ID as label and marks
// everything dirty; the global dirty-L count rides the control plane.
func (st *wccState) bootstrap() error {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for h := 0; h < st.k; h++ {
		st.hubLabel[h] = hubs.Orig[h]
		st.hubDirty.Set(h)
	}
	for li := range st.lLabel {
		st.lLabel[li] = layout.GlobalOf(st.r.ID, int32(li))
	}
	var al int64
	for li := 0; li < st.rg.LocalN; li++ {
		v := layout.GlobalOf(st.r.ID, int32(li))
		if _, isHub := hubs.HubOf(v); !isHub {
			st.lDirty.Set(li)
			al++
		}
	}
	st.activeL = comm.ControlSumInt64(st.r.World, al)
	return nil
}

func (st *wccState) ckpt() ckptSlices {
	return ckptSlices{
		hubF: st.hubDirty.Words(), hubV: st.hubNext.Words(),
		lF: st.lDirty.Words(), lV: st.lNext.Words(),
		pHub: st.hubLabel, pL: st.lLabel,
		activeL: st.activeL, visitL: 0,
	}
}

func (st *wccState) loadState(cs *checkpoint.State) {
	copy(st.hubDirty.Words(), cs.HubFrontier)
	copy(st.hubNext.Words(), cs.HubVisited)
	copy(st.lDirty.Words(), cs.LFrontier)
	copy(st.lNext.Words(), cs.LVisited)
	copy(st.hubLabel, cs.ParentHub)
	copy(st.lLabel, cs.ParentL)
	st.activeL = cs.ActiveL
}

// beginIter latches the iteration's base labels and collective schedule. The
// active counts derive from replicated hub dirty state plus the globally
// agreed L count, so every rank latches identically.
func (st *wccState) beginIter(it *IterTrace) {
	it.ActiveE = int64(st.hubDirty.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.hubDirty.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	var act [partition.NumComponents]int64
	act[partition.CompEH2EH] = it.ActiveE + it.ActiveH
	act[partition.CompE2L] = it.ActiveE
	act[partition.CompH2L] = it.ActiveH
	act[partition.CompL2E] = it.ActiveL
	act[partition.CompL2H] = it.ActiveL
	act[partition.CompL2L] = it.ActiveL
	st.chooseSchedule(it, act, true, true)
	copy(st.hubBase, st.hubLabel)
	copy(st.lBase, st.lLabel)
	st.pendChanged, st.pendAL = 0, 0
}

func (st *wccState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH, st.ehProp)
		if err := st.syncLabels(); firstErr == nil {
			firstErr = err
		}
	case 1:
		run(partition.CompE2L, st.e2lProp)
		run(partition.CompH2L, st.h2lProp)
		run(partition.CompL2E, st.l2eProp)
		run(partition.CompL2H, st.l2hProp)
		if err := st.syncLabels(); firstErr == nil {
			firstErr = err
		}
	case 2:
		run(partition.CompL2L, st.l2lProp)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// epilogue diffs live labels against the iteration's base to stage the next
// dirty sets and agrees on the global change count. Hub lowers are counted by
// the owner of the hub's original vertex only (the diff is replicated); the
// allreduce triple also carries the byte feedback for the sparse tail and the
// next iteration's global dirty-L count.
func (st *wccState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	var changed int64
	for h := 0; h < st.k; h++ {
		if st.hubLabel[h] < st.hubBase[h] {
			st.hubNext.Set(h)
			if layout.Owner(hubs.Orig[h]) == st.r.ID {
				changed++
			}
		}
	}
	lChanged := int64(st.lNext.Count())
	iterBytes := commBytes(st.rec) - st.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(st.r.World,
		[]int64{changed + lChanged, iterBytes, lChanged})
	if err != nil {
		return err
	}
	st.pendChanged = sums[0]
	st.lastIterBytes = sums[1]
	st.pendAL = sums[2]
	return nil
}

// endIter swaps the staged dirty sets in; convergence is the zero-change
// round, which counts toward Iterations like every other driver workload.
func (st *wccState) endIter(it *IterTrace) bool {
	st.hubDirty.CopyFrom(st.hubNext)
	st.hubNext.Reset()
	st.lDirty.CopyFrom(st.lNext)
	st.lNext.Reset()
	st.activeL = st.pendAL
	return st.pendChanged == 0
}

// finalize is a no-op: labels are already globally consistent (hub labels by
// the per-iteration syncs, L labels owner-local).
func (st *wccState) finalize() error { return nil }

func (st *wccState) snapshot(g int) {
	s := &st.snaps[g]
	snapSlice(&s.hubLabel, st.hubLabel)
	snapSlice(&s.lLabel, st.lLabel)
	snapSlice(&s.hubNext, st.hubNext.Words())
	snapSlice(&s.lNext, st.lNext.Words())
}

func (st *wccState) restore(g int) {
	s := &st.snaps[g]
	copy(st.hubLabel, s.hubLabel)
	copy(st.lLabel, s.lLabel)
	copy(st.hubNext.Words(), s.hubNext)
	copy(st.lNext.Words(), s.lNext)
}

func (st *wccState) lowerHub(h int32, lbl int64) {
	if lbl < st.hubLabel[h] {
		st.hubLabel[h] = lbl
	}
}

func (st *wccState) lowerL(li int32, lbl int64) {
	if lbl < st.lLabel[li] {
		st.lLabel[li] = lbl
		st.lNext.Set(int(li))
	}
}

// syncLabels min-merges the replicated hub labels column-then-row, the
// label-carrying analogue of the BFS hub-bitmap sync, as a max-reduce of the
// negated labels. A failed merge leaves negated-back garbage that the step
// retry's snapshot restore discards.
func (st *wccState) syncLabels() error {
	negate(st.hubLabel)
	err := syncHub(&st.driver, "label_sync", st.k, func(c *comm.Comm) error {
		return comm.AllreduceMaxInt64(c, st.hubLabel)
	})
	negate(st.hubLabel)
	return err
}

func negate(vals []int64) {
	for i := range vals {
		vals[i] = -vals[i]
	}
}

// ehProp: dirty source hubs lower their destination hubs' replicated labels
// over this rank's 2D core-subgraph block; purely local, merged by the sync.
func (st *wccState) ehProp() (int64, error) {
	push := &st.rg.EHPush
	var edges int64
	for i, src := range push.IDs {
		if !st.hubDirty.Test(int(src)) {
			continue
		}
		lbl := st.hubBase[src]
		for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			edges++
			st.lowerHub(dst, lbl)
		}
	}
	return edges, nil
}

// e2lProp: dirty E hubs lower owned L labels locally (E is delegated
// everywhere).
func (st *wccState) e2lProp() (int64, error) {
	csr := &st.rg.EToL
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubDirty.Test(int(hub)) {
			continue
		}
		lbl := st.hubBase[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			st.lowerL(li, lbl)
		}
	}
	return edges, nil
}

// h2lProp: dirty H hubs in this rank's column block message their L
// neighbors' owners along the row.
func (st *wccState) h2lProp() (int64, error) {
	csr := &st.rg.HToL
	send := make([][]rowMsg, st.e.Opt.Mesh.Cols)
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubDirty.Test(int(hub)) {
			continue
		}
		lbl := st.hubBase[hub]
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			send[rem.Col] = append(send[rem.Col], rowMsg{Idx: rem.LIdx, Val: lbl})
		}
	}
	return edges, rowExchange(&st.driver, partition.CompH2L, &st.pendRow, send, st.applyLLabels, st.applyHubLabels)
}

func (st *wccState) applyLLabels(parts [][]rowMsg) {
	for _, part := range parts {
		for _, m := range part {
			st.lowerL(m.Idx, m.Val)
		}
	}
}

// l2eProp: dirty owned L vertices lower E delegate labels locally.
func (st *wccState) l2eProp() (int64, error) {
	csr := &st.rg.LToE
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.lowerHub(hub, lbl)
		}
	})
	return edges, nil
}

// l2hProp: dirty owned L vertices message the row delegate of each H
// neighbor whose replicated label is not already as low (delegation knowledge
// saves the message; nothing between L2E and here touches hub labels).
func (st *wccState) l2hProp() (int64, error) {
	csr := &st.rg.LToH
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	send := make([][]rowMsg, mesh.Cols)
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if lbl >= st.hubLabel[hub] {
				continue
			}
			col := hubs.ColBlockOf(hub, mesh)
			send[col] = append(send[col], rowMsg{Idx: hub, Val: lbl})
		}
	})
	return edges, rowExchange(&st.driver, partition.CompL2H, &st.pendRow, send, st.applyLLabels, st.applyHubLabels)
}

func (st *wccState) applyHubLabels(parts [][]rowMsg) {
	for _, part := range parts {
		for _, m := range part {
			st.lowerHub(m.Idx, m.Val)
		}
	}
}

// l2lProp: dirty owned L vertices message their L neighbors' owners over the
// world.
func (st *wccState) l2lProp() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := make([][]l2lMsg, layout.P)
	var edges int64
	st.lDirty.ForEach(func(li int) {
		lbl := st.lBase[li]
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			send[layout.Owner(dst)] = append(send[layout.Owner(dst)], l2lMsg{Dst: dst, Parent: lbl})
		}
	})
	recv, err := exchange(&st.driver, st.r.World, partition.CompL2L, send)
	if err != nil {
		return edges, err
	}
	for _, part := range recv {
		for _, m := range part {
			st.lowerL(layout.LocalIdx(m.Dst), m.Parent)
		}
	}
	return edges, nil
}

// writeResult assembles this rank's share of the global label array: owned
// non-hub L vertices, then the hub vertices whose original IDs it owns (hub
// labels are identical on all ranks after the per-iteration syncs).
func (st *wccState) writeResult(label []int64) {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for li := 0; li < st.rg.LocalN; li++ {
		v := layout.GlobalOf(st.r.ID, int32(li))
		if _, isHub := hubs.HubOf(v); !isHub {
			label[v] = st.lLabel[li]
		}
	}
	for h, orig := range hubs.Orig {
		if layout.Owner(orig) == st.r.ID {
			label[orig] = st.hubLabel[h]
		}
	}
}
