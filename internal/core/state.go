package core

import (
	"repro/internal/bitmap"
)

// rankState is one BFS query's per-rank plane: its frontier/visited bitmaps
// and parent arrays, the rank-local kernels, the gen loops and apply halves of
// the remote kernels, the pull scans and the direction decision. The batched
// sweep (multisource.go) owns the schedule and every collective; a plane's
// bitmaps are views over the batch's stacked backings, and its driver is the
// batch's own, so plane kernel and decision spans land on the batch's span
// stream under the batch's iteration coordinates and recorder.
//
// Hub (E and H) state is delegated: every rank holds full hubFrontier and
// hubVisited bitmaps over the K hubs, kept coherent by column+row
// allreduce-OR after each hub-activating sub-iteration. hubNew accumulates
// this rank's not-yet-synchronized activations; hubIter accumulates all hubs
// activated in the current iteration (the next hub frontier). L state is
// owner-local only.
type rankState struct {
	*driver

	k          int // hub count
	numE, numL int64

	hubFrontier *bitmap.Bitmap // replicated: current sources
	hubVisited  *bitmap.Bitmap // replicated: visited as of last sync
	hubNew      *bitmap.Bitmap // local activations since last sync
	hubIter     *bitmap.Bitmap // all activations this iteration (synced)
	parentHub   []int64        // local delegate parent array, reduced at the end

	lFrontier *bitmap.Bitmap // owner-local: current L sources
	lVisited  *bitmap.Bitmap
	lNew      *bitmap.Bitmap
	parentL   []int64

	// pull-frontier scratch, filled by the batch's frontier gathers
	rowFrontier   *bitmap.Bitmap // row-wide L frontier for L2H pull
	worldFrontier *bitmap.Bitmap // world-wide L frontier for L2L pull

	// cached active counts, recomputed after each hub sync / L update
	activeL int64
	visitL  int64

	// pendNewHubs/pendAL stage the epilogue's agreed global counts between
	// step 3 and endIter (committed only after the iteration passes the vote).
	pendNewHubs, pendAL int64
}

// beginIter fills the frontier composition and latches the iteration's
// direction and sparse choices (chooseDirections), which retries keep.
func (st *rankState) beginIter(it *IterTrace) {
	it.ActiveE = int64(st.hubFrontier.CountRange(0, int(st.numE)))
	it.ActiveH = int64(st.hubFrontier.CountRange(int(st.numE), st.k))
	it.ActiveL = st.activeL
	st.chooseDirections(it)
	st.pendNewHubs, st.pendAL = 0, 0
}

// endIter commits the epilogue's agreed counts; the query converges when no
// hub and no L vertex was newly discovered.
func (st *rankState) endIter() bool {
	st.activeL = st.pendAL
	st.visitL += st.pendAL
	return st.pendNewHubs+st.pendAL == 0
}

// writeParents assembles this rank's share of the global parent array:
// its owned L vertices plus the hub vertices whose original IDs it owns
// (hub parents are identical on all ranks after the delayed reduction).
func (st *rankState) writeParents(parent []int64) {
	layout := st.e.Part.Layout
	me := st.r.ID
	for i, p := range st.parentL[:st.rg.LocalN] {
		if p >= 0 {
			parent[layout.GlobalOf(me, int32(i))] = p
		}
	}
	for h, orig := range st.e.Part.Hubs.Orig {
		if layout.Owner(orig) == me && st.parentHub[h] >= 0 {
			parent[orig] = st.parentHub[h]
		}
	}
}
