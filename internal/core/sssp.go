package core

import (
	"math"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// ssspState is delta-bucketed single-source shortest path on the engine's
// fast path, under the deterministic Graph 500 weights (sssp.WeightOf). The
// dirty sets track vertices whose tentative distance improved since they last
// relaxed; each iteration relaxes the dirty vertices whose distance falls
// inside the current bucket ((bucket+1)*delta), shipping (distance, parent)
// relaxations through the six components. Hub distances are delegated:
// replicated per rank and min-merged column-then-row after each hub-relaxing
// step, with a deterministic tie-break (equal distance -> larger parent) so
// every replica folds to the identical value. When a whole iteration improves
// nothing, the bucket advances to the smallest bucket holding a dirty vertex;
// the run converges when nothing improved and nothing is dirty.
type ssspState struct {
	driver

	root  int64
	seed  uint64
	delta float64

	k    int
	numE int64

	hubDist, hubBaseD []float64
	hubParent         []int64
	lDist, lBaseD     []float64
	lParent           []int64

	hubDirty, lDirty *bitmap.Bitmap // improved since last relaxed
	relaxHub, relaxL *bitmap.Bitmap // this iteration's in-bucket relax set

	bucket  int64
	activeL int64 // global dirty-L count (sparse/skip proxy)

	relaxations int64

	pendImproved, pendAL, pendNext int64

	dpBuf          []hubDP // gather buffer for the dist+parent hub sync
	hubPack, lPack []int64 // checkpoint packing: [Float64bits(dist)..., parent...]

	pendRow [][]distRowMsg // H2L's buffers awaiting the batched row exchange

	snaps [numSteps]ssspSnapshot
}

// hubDP pairs a hub's tentative distance and parent for the delegation sync.
type hubDP struct {
	D float64
	P int64
}

// ssspSnapshot rolls back a retried step: distance/parent updates are not
// monotone across a failed partial merge, the L dirty set grows during
// kernels, and the relaxation counter re-observes re-executed applies.
type ssspSnapshot struct {
	hubDist, lDist     []float64
	hubParent, lParent []int64
	hubDirty, lDirty   []uint64
	relaxations        int64
}

func newSSSPState(e *Engine, r *comm.Rank, root int64, seed uint64, delta float64) *ssspState {
	per := int(e.Part.Layout.PerRank)
	k := e.Part.Hubs.K()
	return &ssspState{
		driver:    newWorkloadDriver(e, r),
		root:      root,
		seed:      seed,
		delta:     delta,
		k:         k,
		numE:      int64(e.Part.Hubs.NumE),
		hubDist:   make([]float64, k),
		hubBaseD:  make([]float64, k),
		hubParent: make([]int64, k),
		lDist:     make([]float64, per),
		lBaseD:    make([]float64, per),
		lParent:   make([]int64, per),
		hubDirty:  bitmap.New(k),
		lDirty:    bitmap.New(per),
		relaxHub:  bitmap.New(k),
		relaxL:    bitmap.New(per),
		dpBuf:     make([]hubDP, k),
		hubPack:   make([]int64, 2*k),
		lPack:     make([]int64, 2*per),
	}
}

func (st *ssspState) drv() *driver { return &st.driver }

// bootstrap seeds infinite distances everywhere and the root at zero in
// bucket zero; the root's placement is replicated (hub) or owner-local (L).
func (st *ssspState) bootstrap() error {
	for h := 0; h < st.k; h++ {
		st.hubDist[h] = math.Inf(1)
		st.hubParent[h] = -1
	}
	for li := range st.lDist {
		st.lDist[li] = math.Inf(1)
		st.lParent[li] = -1
	}
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	var al int64
	if h, ok := hubs.HubOf(st.root); ok {
		st.hubDist[h] = 0
		st.hubParent[h] = st.root
		st.hubDirty.Set(int(h))
	} else if layout.Owner(st.root) == st.r.ID {
		li := layout.LocalIdx(st.root)
		st.lDist[li] = 0
		st.lParent[li] = st.root
		st.lDirty.Set(int(li))
		al = 1
	}
	st.activeL = comm.ControlSumInt64(st.r.World, al)
	st.bucket = 0
	return nil
}

// ckpt packs (distance, parent) pairs into the writer's int64 arrays; the
// relax sets are rebuilt by beginIter, so their bitmap slots carry no load.
// The bucket index rides the VisitL scalar.
func (st *ssspState) ckpt() ckptSlices {
	for h := 0; h < st.k; h++ {
		st.hubPack[h] = int64(math.Float64bits(st.hubDist[h]))
		st.hubPack[st.k+h] = st.hubParent[h]
	}
	per := len(st.lDist)
	for li := 0; li < per; li++ {
		st.lPack[li] = int64(math.Float64bits(st.lDist[li]))
		st.lPack[per+li] = st.lParent[li]
	}
	return ckptSlices{
		hubF: st.hubDirty.Words(), hubV: st.relaxHub.Words(),
		lF: st.lDirty.Words(), lV: st.relaxL.Words(),
		pHub: st.hubPack, pL: st.lPack,
		activeL: st.activeL, visitL: st.bucket,
	}
}

func (st *ssspState) loadState(cs *checkpoint.State) {
	copy(st.hubDirty.Words(), cs.HubFrontier)
	copy(st.relaxHub.Words(), cs.HubVisited)
	copy(st.lDirty.Words(), cs.LFrontier)
	copy(st.relaxL.Words(), cs.LVisited)
	for h := 0; h < st.k; h++ {
		st.hubDist[h] = math.Float64frombits(uint64(cs.ParentHub[h]))
		st.hubParent[h] = cs.ParentHub[st.k+h]
	}
	per := len(st.lDist)
	for li := 0; li < per; li++ {
		st.lDist[li] = math.Float64frombits(uint64(cs.ParentL[li]))
		st.lParent[li] = cs.ParentL[per+li]
	}
	st.activeL = cs.ActiveL
	st.bucket = cs.VisitL
}

// beginIter carves this iteration's relax set out of the dirty sets (dirty
// vertices inside the current bucket) and latches base distances and the
// collective schedule. Hub decisions derive from replicated state and the L
// proxy is the globally agreed dirty count, so every rank latches identically.
func (st *ssspState) beginIter(it *IterTrace) {
	limit := float64(st.bucket+1) * st.delta
	st.relaxHub.Reset()
	for h := 0; h < st.k; h++ {
		if st.hubDirty.Test(h) && st.hubDist[h] < limit {
			st.relaxHub.Set(h)
		}
	}
	st.hubDirty.AndNot(st.relaxHub)
	st.relaxL.Reset()
	st.lDirty.ForEach(func(li int) {
		if st.lDist[li] < limit {
			st.relaxL.Set(li)
		}
	})
	st.lDirty.AndNot(st.relaxL)

	it.ActiveE = int64(st.relaxHub.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.relaxHub.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	var act [partition.NumComponents]int64
	act[partition.CompEH2EH] = it.ActiveE + it.ActiveH
	act[partition.CompE2L] = it.ActiveE
	act[partition.CompH2L] = it.ActiveH
	act[partition.CompL2E] = it.ActiveL
	act[partition.CompL2H] = it.ActiveL
	act[partition.CompL2L] = it.ActiveL
	st.chooseSchedule(it, act, true, true)
	copy(st.hubBaseD, st.hubDist)
	copy(st.lBaseD, st.lDist)
	st.pendImproved, st.pendAL, st.pendNext = 0, 0, 0
}

func (st *ssspState) step(g int, it *IterTrace) error {
	var firstErr error
	run := func(c partition.Component, fn func() (int64, error)) {
		if err := st.runComp(c, it.Directions[c], fn); firstErr == nil {
			firstErr = err
		}
	}
	switch g {
	case 0:
		run(partition.CompEH2EH, st.ehRelax)
		if err := st.syncDists(); firstErr == nil {
			firstErr = err
		}
	case 1:
		run(partition.CompE2L, st.e2lRelax)
		run(partition.CompH2L, st.h2lRelax)
		run(partition.CompL2E, st.l2eRelax)
		run(partition.CompL2H, st.l2hRelax)
		if err := st.syncDists(); firstErr == nil {
			firstErr = err
		}
	case 2:
		run(partition.CompL2L, st.l2lRelax)
	case 3:
		return st.epilogue()
	}
	return firstErr
}

// epilogue re-marks the hubs whose replicated distance improved (the diff
// against base is identical on every rank post-sync), counts improvements
// owner-side, and runs the agreement pair: the sum-allreduce carries the
// improvement count, byte feedback and global dirty-L count; the max-allreduce
// (negated) agrees on the smallest bucket holding a dirty vertex. Both
// collectives run unconditionally so the schedule matches on every rank.
func (st *ssspState) epilogue() error {
	st.r.SetTag(TagEpilogue)
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	var improved int64
	for h := 0; h < st.k; h++ {
		if st.hubDist[h] < st.hubBaseD[h] {
			st.hubDirty.Set(h)
			if layout.Owner(hubs.Orig[h]) == st.r.ID {
				improved++
			}
		}
	}
	for li := 0; li < st.rg.LocalN; li++ {
		if st.lDist[li] < st.lBaseD[li] {
			improved++
		}
	}
	next := int64(math.MaxInt64)
	for h := 0; h < st.k; h++ {
		if st.hubDirty.Test(h) && !math.IsInf(st.hubDist[h], 1) {
			if b := int64(st.hubDist[h] / st.delta); b < next {
				next = b
			}
		}
	}
	st.lDirty.ForEach(func(li int) {
		if math.IsInf(st.lDist[li], 1) {
			return
		}
		if b := int64(st.lDist[li] / st.delta); b < next {
			next = b
		}
	})
	iterBytes := commBytes(st.rec) - st.iterBytesBase
	sums, err := comm.AllreduceSumInt64s(st.r.World,
		[]int64{improved, iterBytes, int64(st.lDirty.Count())})
	neg := []int64{-next}
	err2 := comm.AllreduceMaxInt64(st.r.World, neg)
	if err == nil {
		st.pendImproved = sums[0]
		st.lastIterBytes = sums[1]
		st.pendAL = sums[2]
	}
	if err2 == nil {
		st.pendNext = -neg[0]
	}
	if err != nil {
		return err
	}
	return err2
}

// endIter commits the agreed counts. A quiescent iteration (no improvement
// anywhere) either converges — nothing left dirty — or advances the bucket to
// the agreed next occupied one; remaining dirty vertices all sit past the
// current limit, so the bucket strictly advances.
func (st *ssspState) endIter(it *IterTrace) bool {
	st.activeL = st.pendAL
	if st.pendImproved == 0 {
		if st.pendNext == math.MaxInt64 {
			return true
		}
		st.bucket = st.pendNext
	}
	return false
}

func (st *ssspState) finalize() error { return nil }

func (st *ssspState) snapshot(g int) {
	s := &st.snaps[g]
	snapSlice(&s.hubDist, st.hubDist)
	snapSlice(&s.lDist, st.lDist)
	snapSlice(&s.hubParent, st.hubParent)
	snapSlice(&s.lParent, st.lParent)
	snapSlice(&s.hubDirty, st.hubDirty.Words())
	snapSlice(&s.lDirty, st.lDirty.Words())
	s.relaxations = st.relaxations
}

func (st *ssspState) restore(g int) {
	s := &st.snaps[g]
	copy(st.hubDist, s.hubDist)
	copy(st.lDist, s.lDist)
	copy(st.hubParent, s.hubParent)
	copy(st.lParent, s.lParent)
	copy(st.hubDirty.Words(), s.hubDirty)
	copy(st.lDirty.Words(), s.lDirty)
	st.relaxations = s.relaxations
}

func (st *ssspState) lowerHub(h int32, nd float64, parent int64) {
	if nd < st.hubDist[h] {
		st.hubDist[h] = nd
		st.hubParent[h] = parent
		st.relaxations++
	}
}

func (st *ssspState) lowerL(li int32, nd float64, parent int64) {
	if nd < st.lDist[li] {
		st.lDist[li] = nd
		st.lParent[li] = parent
		st.lDirty.Set(int(li))
		st.relaxations++
	}
}

// syncDists min-merges the replicated hub (distance, parent) pairs
// column-then-row with a deterministic fold (smaller distance wins; equal
// distance takes the larger parent), the SSSP analogue of the hub-bitmap
// sync.
func (st *ssspState) syncDists() error {
	return syncHub(&st.driver, "dist_sync", st.k, st.syncDistsOver)
}

func (st *ssspState) syncDistsOver(c *comm.Comm) error {
	for h := 0; h < st.k; h++ {
		st.dpBuf[h] = hubDP{D: st.hubDist[h], P: st.hubParent[h]}
	}
	parts, err := comm.Allgatherv(c, st.dpBuf)
	if err != nil {
		return err
	}
	for h := 0; h < st.k; h++ {
		best := parts[0][h]
		for _, p := range parts[1:] {
			dp := p[h]
			if dp.D < best.D || (dp.D == best.D && dp.P > best.P) {
				best = dp
			}
		}
		st.hubDist[h] = best.D
		st.hubParent[h] = best.P
	}
	return nil
}

// ehRelax: in-bucket source hubs relax destination hubs over this rank's 2D
// core-subgraph block (weights from original IDs); local, merged by the sync.
func (st *ssspState) ehRelax() (int64, error) {
	push := &st.rg.EHPush
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, src := range push.IDs {
		if !st.relaxHub.Test(int(src)) {
			continue
		}
		du := st.hubBaseD[src]
		u := orig[src]
		for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
			edges++
			st.lowerHub(dst, du+sssp.WeightOf(u, orig[dst], st.seed), u)
		}
	}
	return edges, nil
}

// e2lRelax: in-bucket E hubs relax owned L vertices locally.
func (st *ssspState) e2lRelax() (int64, error) {
	csr := &st.rg.EToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if !st.relaxHub.Test(int(hub)) {
			continue
		}
		du := st.hubBaseD[hub]
		u := orig[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			v := layout.GlobalOf(st.r.ID, li)
			st.lowerL(li, du+sssp.WeightOf(u, v, st.seed), u)
		}
	}
	return edges, nil
}

// h2lRelax: in-bucket H hubs in this rank's column block relax their L
// neighbors across the row.
func (st *ssspState) h2lRelax() (int64, error) {
	csr := &st.rg.HToL
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	mesh := st.e.Opt.Mesh
	send := make([][]distRowMsg, mesh.Cols)
	var edges int64
	for i, hub := range csr.IDs {
		if !st.relaxHub.Test(int(hub)) {
			continue
		}
		du := st.hubBaseD[hub]
		u := orig[hub]
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			v := layout.GlobalOf(mesh.RankAt(st.r.Row, int(rem.Col)), rem.LIdx)
			send[rem.Col] = append(send[rem.Col],
				distRowMsg{Idx: rem.LIdx, Dist: du + sssp.WeightOf(u, v, st.seed), Parent: u})
		}
	}
	return edges, rowExchange(&st.driver, partition.CompH2L, &st.pendRow, send, st.applyLRelax, st.applyHubRelax)
}

// distRowMsg is a row-exchange relaxation: H2L's targets an L vertex at a
// known rank by local index, L2H's a hub delegate by hub id.
type distRowMsg struct {
	Idx    int32
	Dist   float64
	Parent int64
}

// distWorldMsg relaxes an L vertex by original ID.
type distWorldMsg struct {
	Dst    int64
	Dist   float64
	Parent int64
}

func (st *ssspState) applyLRelax(parts [][]distRowMsg) {
	for _, part := range parts {
		for _, m := range part {
			st.lowerL(m.Idx, m.Dist, m.Parent)
		}
	}
}

func (st *ssspState) applyHubRelax(parts [][]distRowMsg) {
	for _, part := range parts {
		for _, m := range part {
			st.lowerHub(m.Idx, m.Dist, m.Parent)
		}
	}
}

// l2eRelax: in-bucket owned L vertices relax E delegates locally.
func (st *ssspState) l2eRelax() (int64, error) {
	csr := &st.rg.LToE
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			st.lowerHub(hub, du+sssp.WeightOf(u, orig[hub], st.seed), u)
		}
	})
	return edges, nil
}

// l2hRelax: in-bucket owned L vertices message the row delegate of each H
// neighbor the relaxation would actually improve (the live check against the
// replicated distance saves the message; nothing between L2E and here
// touches hub distances).
func (st *ssspState) l2hRelax() (int64, error) {
	csr := &st.rg.LToH
	orig := st.e.Part.Hubs.Orig
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	send := make([][]distRowMsg, mesh.Cols)
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			nd := du + sssp.WeightOf(u, orig[hub], st.seed)
			if nd >= st.hubDist[hub] {
				continue
			}
			col := hubs.ColBlockOf(hub, mesh)
			send[col] = append(send[col], distRowMsg{Idx: hub, Dist: nd, Parent: u})
		}
	})
	return edges, rowExchange(&st.driver, partition.CompL2H, &st.pendRow, send, st.applyLRelax, st.applyHubRelax)
}

// l2lRelax: in-bucket owned L vertices relax their L neighbors at the
// owners over the world.
func (st *ssspState) l2lRelax() (int64, error) {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	send := make([][]distWorldMsg, layout.P)
	var edges int64
	st.relaxL.ForEach(func(li int) {
		du := st.lBaseD[li]
		u := layout.GlobalOf(st.r.ID, int32(li))
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			send[layout.Owner(dst)] = append(send[layout.Owner(dst)],
				distWorldMsg{Dst: dst, Dist: du + sssp.WeightOf(u, dst, st.seed), Parent: u})
		}
	})
	recv, err := exchange(&st.driver, st.r.World, partition.CompL2L, send)
	if err != nil {
		return edges, err
	}
	for _, part := range recv {
		for _, m := range part {
			st.lowerL(layout.LocalIdx(m.Dst), m.Dist, m.Parent)
		}
	}
	return edges, nil
}

// writeResult assembles this rank's share of the global distance and parent
// arrays: owned non-hub L vertices, then the hub vertices whose original IDs
// it owns (hub state is identical on all ranks after the per-iteration syncs).
func (st *ssspState) writeResult(dist []float64, parent []int64) {
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	for li := 0; li < st.rg.LocalN; li++ {
		v := layout.GlobalOf(st.r.ID, int32(li))
		if _, isHub := hubs.HubOf(v); !isHub {
			dist[v] = st.lDist[li]
			parent[v] = st.lParent[li]
		}
	}
	for h, orig := range hubs.Orig {
		if layout.Owner(orig) == st.r.ID {
			dist[orig] = st.hubDist[h]
			parent[orig] = st.hubParent[h]
		}
	}
}
