package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Message types. All parents travel as original vertex IDs.

// rowMsg is a row-exchange message: H2L's targets an L vertex at a known
// rank by local index, L2H's a hub delegate by hub id. One type for both lets
// the batched H2L+L2H row exchange post the two kernels' buffer lists as one
// contribution. Val is the payload: a parent for BFS, a label for WCC, a
// decrement for k-core.
type rowMsg struct {
	Idx int32
	Val int64
}

// l2lMsg targets an L vertex by original ID (owner derived from layout).
type l2lMsg struct {
	Dst    int64
	Parent int64
}

// --- EH2EH -----------------------------------------------------------------

// ehPush is the top-down kernel over the 2D-partitioned core subgraph:
// scan active source hubs in this rank's column block, activate destination
// hubs in its row block. With RankWorkers > 1 the active sources are split by
// the edge-aware vertex-cut (Section 5): chunk boundaries follow the prefix
// sum of active-source degrees, not source counts, so one heavy hub cannot
// serialize the kernel.
func (st *rankState) ehPush() (int64, error) {
	push := &st.rg.EHPush
	orig := st.e.Part.Hubs.Orig
	// Collect active source positions.
	var active []int32
	for i, src := range push.IDs {
		if st.hubFrontier.Test(int(src)) {
			active = append(active, int32(i))
		}
	}
	if len(active) == 0 {
		return 0, nil
	}
	workers := st.e.Opt.RankWorkers
	if workers == 1 || len(active) < 2*workers {
		var edges int64
		for _, i := range active {
			parent := orig[push.IDs[i]]
			for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
				edges++
				if !st.hubVisited.Test(int(dst)) && !st.hubNew.Test(int(dst)) {
					st.hubNew.Set(int(dst))
					st.parentHub[dst] = parent
				}
			}
		}
		return edges, nil
	}
	// Edge-aware vertex cut: prefix-sum active degrees, then split evenly by
	// accumulated degree.
	prefix := make([]int64, len(active)+1)
	for j, i := range active {
		prefix[j+1] = prefix[j] + (push.Ptr[i+1] - push.Ptr[i])
	}
	chunks := edgeCutChunks(prefix, workers)
	// Workers emit candidates into private buffers; the apply step is
	// serial, mirroring the atomics-free discipline of the chip kernels.
	bufs := make([][]rowMsg, len(chunks))
	edgesPer := make([]int64, len(chunks))
	var wg sync.WaitGroup
	for w, ch := range chunks {
		wg.Add(1)
		go func(w int, lo, hi int) {
			defer wg.Done()
			var buf []rowMsg
			var edges int64
			for _, i := range active[lo:hi] {
				parent := orig[push.IDs[i]]
				for _, dst := range push.Adj[push.Ptr[i]:push.Ptr[i+1]] {
					edges++
					if !st.hubVisited.Test(int(dst)) {
						buf = append(buf, rowMsg{Idx: dst, Val: parent})
					}
				}
			}
			bufs[w] = buf
			edgesPer[w] = edges
		}(w, ch[0], ch[1])
	}
	wg.Wait()
	var edges int64
	for w := range bufs {
		edges += edgesPer[w]
		for _, m := range bufs[w] {
			if !st.hubVisited.Test(int(m.Idx)) && !st.hubNew.Test(int(m.Idx)) {
				st.hubNew.Set(int(m.Idx))
				st.parentHub[m.Idx] = m.Val
			}
		}
	}
	return edges, nil
}

// edgeCutChunks splits [0, len(prefix)-1) into up to `workers` ranges of
// near-equal accumulated weight. prefix is the weight prefix sum.
func edgeCutChunks(prefix []int64, workers int) [][2]int {
	n := len(prefix) - 1
	total := prefix[n]
	var chunks [][2]int
	lo := 0
	for w := 1; w <= workers && lo < n; w++ {
		target := total * int64(w) / int64(workers)
		hi := sort.Search(n+1, func(i int) bool { return prefix[i] >= target })
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n || w == workers {
			hi = n
		}
		chunks = append(chunks, [2]int{lo, hi})
		lo = hi
	}
	return chunks
}

// ehPull is the bottom-up core-subgraph kernel: scan unvisited destination
// hubs in the row block, probing source hubs in the column block against the
// replicated frontier, with early exit on the first active parent.
func (st *rankState) ehPull() (int64, error) {
	pull := &st.rg.EHPull
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, dst := range pull.IDs {
		if st.hubVisited.Test(int(dst)) || st.hubNew.Test(int(dst)) {
			continue
		}
		for _, src := range pull.Adj[pull.Ptr[i]:pull.Ptr[i+1]] {
			edges++
			if st.hubFrontier.Test(int(src)) {
				st.hubNew.Set(int(dst))
				st.parentHub[dst] = orig[src]
				break
			}
		}
	}
	return edges, nil
}

// ehPullSegmented is the CG-aware variant (Section 4.3): the source bitmap is
// cut into Segments slices with pre-grouped adjacency; `Segments` worker
// goroutines (the simulated core groups) each own one slice, and destination
// intervals rotate round-robin across steps so no two workers ever write the
// same destination range concurrently. The hot source-bitmap slice stays
// cache-resident per worker — the commodity-CPU analogue of LDM residency.
func (st *rankState) ehPullSegmented() (int64, error) {
	segs := st.e.segPull[st.r.ID]
	s := len(segs)
	orig := st.e.Part.Hubs.Orig
	// Destination intervals over hub-ID space, word-aligned so concurrent
	// bitmap writes never share a word.
	words := (st.k + 63) / 64
	ivBound := make([]int, s+1)
	for i := 0; i <= s; i++ {
		ivBound[i] = (i * words / s) * 64
	}
	ivBound[s] = words * 64
	edgesPer := make([]int64, s)
	for step := 0; step < s; step++ {
		var wg sync.WaitGroup
		for cg := 0; cg < s; cg++ {
			iv := (cg + step) % s
			wg.Add(1)
			go func(cg, iv int) {
				defer wg.Done()
				csr := &segs[cg]
				loID, hiID := int32(ivBound[iv]), int32(ivBound[iv+1])
				// Locate the dst-ID range of this interval in the sorted IDs.
				lo := sort.Search(len(csr.IDs), func(i int) bool { return csr.IDs[i] >= loID })
				hi := sort.Search(len(csr.IDs), func(i int) bool { return csr.IDs[i] >= hiID })
				var edges int64
				for i := lo; i < hi; i++ {
					dst := csr.IDs[i]
					if st.hubVisited.Test(int(dst)) || st.hubNew.Test(int(dst)) {
						continue
					}
					for _, src := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
						edges++
						if st.hubFrontier.Test(int(src)) {
							st.hubNew.Set(int(dst))
							st.parentHub[dst] = orig[src]
							break
						}
					}
				}
				edgesPer[cg] += edges
			}(cg, iv)
		}
		wg.Wait()
	}
	var edges int64
	for _, e := range edgesPer {
		edges += e
	}
	return edges, nil
}

// --- E2L / H2L (hub -> L) ---------------------------------------------------

// e2lPush: active E hubs activate owned L vertices; purely local because E is
// delegated on every rank.
func (st *rankState) e2lPush() (int64, error) {
	csr := &st.rg.EToL
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubFrontier.Test(int(hub)) {
			continue
		}
		parent := orig[hub]
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if !st.lVisited.Test(int(li)) && !st.lNew.Test(int(li)) {
				st.lNew.Set(int(li))
				st.parentL[li] = parent
			}
		}
	}
	return edges, nil
}

// e2lPull: unvisited owned L vertices probe their E neighbors against the
// replicated frontier; local, with early exit.
func (st *rankState) e2lPull() (int64, error) {
	csr := &st.rg.LToE
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for li, n := 0, st.rg.LocalN; li < n; li++ {
		if csr.Ptr[li] == csr.Ptr[li+1] || st.lVisited.Test(li) || st.lNew.Test(li) {
			continue
		}
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.hubFrontier.Test(int(hub)) {
				st.lNew.Set(li)
				st.parentL[li] = orig[hub]
				break
			}
		}
	}
	return edges, nil
}

// h2lGen is the generate half of the H2L push: active H hubs in this rank's
// column block message their L neighbors' owners along the row (the H2L
// component is stored at the intersection of H's column and the owner's row).
// It walks the component once, calling emit for every (destination column,
// L-index, parent) activation; the batch's dense and sparse exchanges both
// generate through this one loop body, which keeps their receiver-side apply
// streams identical message for message.
func (st *rankState) h2lGen(emit func(col, li int32, parent int64)) int64 {
	csr := &st.rg.HToL
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for i, hub := range csr.IDs {
		if !st.hubFrontier.Test(int(hub)) {
			continue
		}
		parent := orig[hub]
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			emit(rem.Col, rem.LIdx, parent)
		}
	}
	return edges
}

// h2lPull: unvisited owned L vertices probe their H neighbors against the
// replicated hub frontier; local thanks to delegation.
func (st *rankState) h2lPull() (int64, error) {
	csr := &st.rg.LToH
	orig := st.e.Part.Hubs.Orig
	var edges int64
	for li, n := 0, st.rg.LocalN; li < n; li++ {
		if csr.Ptr[li] == csr.Ptr[li+1] || st.lVisited.Test(li) || st.lNew.Test(li) {
			continue
		}
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.hubFrontier.Test(int(hub)) {
				st.lNew.Set(li)
				st.parentL[li] = orig[hub]
				break
			}
		}
	}
	return edges, nil
}

// applyLMsgs applies received L activation messages owner-locally. With
// RankWorkers > 1 and enough messages it uses the two-stage destination
// update (paper Section 4.4, third OCS-RMA use case): messages are coarse-
// sorted into word-aligned index ranges, and each range is applied by
// exactly one worker — no atomics, no racing bitmap words.
func (st *rankState) applyLMsgs(recv [][]rowMsg) {
	total := 0
	for _, part := range recv {
		total += len(part)
	}
	workers := st.e.Opt.RankWorkers
	if workers > 1 && total >= 4*workers {
		st.applyLMsgsTwoStage(recv, total, workers)
		return
	}
	for _, part := range recv {
		for _, m := range part {
			st.applyOneL(m)
		}
	}
}

func (st *rankState) applyOneL(m rowMsg) {
	if !st.lVisited.Test(int(m.Idx)) && !st.lNew.Test(int(m.Idx)) {
		st.lNew.Set(int(m.Idx))
		st.parentL[m.Idx] = m.Val
	}
}

// applyLMsgsTwoStage: stage one buckets messages by 64-bit-aligned index
// range (so two ranges never share a bitmap word); stage two applies each
// range on its own worker with exclusive ownership.
func (st *rankState) applyLMsgsTwoStage(recv [][]rowMsg, total, workers int) {
	words := (st.rg.LocalN + 63) / 64
	if words == 0 {
		return
	}
	ranges := workers * 4
	if ranges > words {
		ranges = words
	}
	wordsPer := (words + ranges - 1) / ranges
	buckets := make([][]rowMsg, ranges)
	per := total/ranges + 1
	for i := range buckets {
		buckets[i] = make([]rowMsg, 0, per)
	}
	for _, part := range recv {
		for _, m := range part {
			r := int(m.Idx) / 64 / wordsPer
			buckets[r] = append(buckets[r], m)
		}
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= ranges {
					return
				}
				for _, m := range buckets[r] {
					st.applyOneL(m)
				}
			}
		}()
	}
	wg.Wait()
}

// --- L2E / L2H (L -> hub) ---------------------------------------------------

// l2ePush: active owned L vertices activate E delegates locally (E is
// delegated everywhere, so no message leaves the rank).
func (st *rankState) l2ePush() (int64, error) {
	csr := &st.rg.LToE
	layout := st.e.Part.Layout
	me := st.r.ID
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if !st.hubVisited.Test(int(hub)) && !st.hubNew.Test(int(hub)) {
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(me, int32(li))
			}
		}
	})
	return edges, nil
}

// l2ePull: unvisited E hubs probe their owned-L neighbors against the local
// frontier; every rank does its share, with per-rank early exit.
func (st *rankState) l2ePull() (int64, error) {
	csr := &st.rg.EToL
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if st.hubVisited.Test(int(hub)) || st.hubNew.Test(int(hub)) {
			continue
		}
		for _, li := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if st.lFrontier.Test(int(li)) {
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(st.r.ID, li)
				break
			}
		}
	}
	return edges, nil
}

// l2hGen is the generate half of the L2H push: active owned L vertices
// message the row delegate of each unvisited H neighbor (the rank in this row
// holding H's column), which records the delegate activation; the next hub
// sync propagates it. It calls emit for every (destination column, hub,
// parent) activation — the one loop body of the dense and sparse exchanges.
// Delegation knowledge (hubVisited) prunes the message before emit.
func (st *rankState) l2hGen(emit func(col, hub int32, parent int64)) int64 {
	csr := &st.rg.LToH
	layout := st.e.Part.Layout
	hubs := st.e.Part.Hubs
	mesh := st.e.Opt.Mesh
	me := st.r.ID
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		parent := layout.GlobalOf(me, int32(li))
		for _, hub := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.hubVisited.Test(int(hub)) {
				continue // delegation knowledge saves the message
			}
			emit(int32(hubs.ColBlockOf(hub, mesh)), hub, parent)
		}
	})
	return edges
}

// applyHubMsgs records received delegate activations (the L2H push's receive
// side), in part order.
func (st *rankState) applyHubMsgs(parts [][]rowMsg) {
	for _, part := range parts {
		for _, m := range part {
			if !st.hubVisited.Test(int(m.Idx)) && !st.hubNew.Test(int(m.Idx)) {
				st.hubNew.Set(int(m.Idx))
				st.parentHub[m.Idx] = m.Val
			}
		}
	}
}

// l2hPullScan is the probe half of the L2H pull: unvisited H hubs in this
// rank's column block probe their L neighbors across the row against the
// row-wide L frontier, with early exit. The batch fills every pulling plane's
// rowFrontier with one row gather, then scans each plane through this method.
func (st *rankState) l2hPullScan() int64 {
	per := int(st.e.Part.Layout.PerRank)
	mesh := st.e.Opt.Mesh
	csr := &st.rg.HToL
	layout := st.e.Part.Layout
	var edges int64
	for i, hub := range csr.IDs {
		if st.hubVisited.Test(int(hub)) || st.hubNew.Test(int(hub)) {
			continue
		}
		for _, rem := range csr.Adj[csr.Ptr[i]:csr.Ptr[i+1]] {
			edges++
			if st.rowFrontier.Test(int(rem.Col)*per + int(rem.LIdx)) {
				owner := mesh.RankAt(st.r.Row, int(rem.Col))
				st.hubNew.Set(int(hub))
				st.parentHub[hub] = layout.GlobalOf(owner, rem.LIdx)
				break
			}
		}
	}
	return edges
}

// --- L2L ---------------------------------------------------------------------

// l2lGenFlat is the generate half of the L2L push: active owned L vertices
// message their L neighbors' owners, calling emit with every (owner rank,
// destination vertex, parent) message — the one loop body of the flat dense
// and sparse exchanges.
func (st *rankState) l2lGenFlat(emit func(owner int, dst, parent int64)) int64 {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	me := st.r.ID
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		parent := layout.GlobalOf(me, int32(li))
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			emit(layout.Owner(dst), dst, parent)
		}
	})
	return edges
}

// l2lGenRows is l2lGenFlat keyed by the owner's mesh row — stage 1 of the
// hierarchical forwarding scheme, where messages hop via the intersection rank
// of the source column and destination row (column alltoallv then row
// alltoallv), the paper's forwarding for fewer live global connections.
func (st *rankState) l2lGenRows(emit func(row int, dst, parent int64)) int64 {
	csr := &st.rg.L2L
	layout := st.e.Part.Layout
	mesh := st.e.Opt.Mesh
	me := st.r.ID
	var edges int64
	st.lFrontier.ForEach(func(li int) {
		parent := layout.GlobalOf(me, int32(li))
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			emit(mesh.RowOf(layout.Owner(dst)), dst, parent)
		}
	})
	return edges
}

// applyL2L applies received L2L activations owner-locally, in part order.
func (st *rankState) applyL2L(recv [][]l2lMsg) {
	layout := st.e.Part.Layout
	for _, part := range recv {
		for _, m := range part {
			li := layout.LocalIdx(m.Dst)
			if !st.lVisited.Test(int(li)) && !st.lNew.Test(int(li)) {
				st.lNew.Set(int(li))
				st.parentL[li] = m.Parent
			}
		}
	}
}

// l2lPullScan is the probe half of the L2L pull: unvisited owned L vertices
// probe their neighbors against the world-wide L frontier (indexed by original
// vertex ID thanks to the padded block layout), with early exit. The batch
// fills every pulling plane's worldFrontier with one world gather.
func (st *rankState) l2lPullScan() int64 {
	csr := &st.rg.L2L
	var edges int64
	for li, n := 0, st.rg.LocalN; li < n; li++ {
		if csr.Ptr[li] == csr.Ptr[li+1] || st.lVisited.Test(li) || st.lNew.Test(li) {
			continue
		}
		for _, dst := range csr.Adj[csr.Ptr[li]:csr.Ptr[li+1]] {
			edges++
			if st.worldFrontier.Test(int(dst)) {
				st.lNew.Set(li)
				st.parentL[li] = dst
				break
			}
		}
	}
	return edges
}
