package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const (
	hubWords = 2
	lWords   = 4
	hubLen   = 100
	lLen     = 200
)

func openScope(t *testing.T) (*Store, *RunScope) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scope("run")
	if err != nil {
		t.Fatal(err)
	}
	return s, sc
}

// writeChain commits a bootstrap segment plus iterations 0..upTo-1 through a
// Writer, mutating the state a little every iteration, and returns the final
// state for comparison.
func writeChain(t *testing.T, sc *RunScope, rank int, upTo int) *State {
	t.Helper()
	w, err := NewWriter(sc, rank, hubWords, lWords, hubLen, lLen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewState(hubWords, lWords, hubLen, lLen)
	post := func(iter int64) {
		if !w.Checkpoint(iter, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
			cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL) {
			t.Fatalf("mandatory capture of iter %d dropped", iter)
		}
	}
	cur.HubFrontier[0] = 1
	cur.ParentHub[0] = 7
	post(-1)
	for it := 0; it < upTo; it++ {
		cur.HubFrontier[it%hubWords] ^= 1 << uint(it)
		cur.HubVisited[it%hubWords] |= 1 << uint(it)
		cur.LFrontier[it%lWords] = uint64(it * 3)
		cur.LVisited[it%lWords] |= uint64(it + 1)
		cur.ParentHub[it%hubLen] = int64(it)
		cur.ParentL[it%lLen] = int64(it * 2)
		cur.ActiveL = int64(it + 10)
		cur.VisitL += int64(it + 10)
		post(int64(it))
	}
	ws := w.Close()
	if ws.Segments != int64(upTo)+1 {
		t.Fatalf("writer committed %d segments, want %d", ws.Segments, upTo+1)
	}
	if ws.Errors != 0 || ws.Dropped != 0 {
		t.Fatalf("writer stats %+v, want no errors/drops", ws)
	}
	return cur
}

func sameState(t *testing.T, got, want *State) {
	t.Helper()
	if got.Iter != want.Iter || got.ActiveL != want.ActiveL || got.VisitL != want.VisitL {
		t.Fatalf("scalars: got (%d,%d,%d), want (%d,%d,%d)",
			got.Iter, got.ActiveL, got.VisitL, want.Iter, want.ActiveL, want.VisitL)
	}
	for i := range want.HubFrontier {
		if got.HubFrontier[i] != want.HubFrontier[i] || got.HubVisited[i] != want.HubVisited[i] {
			t.Fatalf("hub word %d differs", i)
		}
	}
	for i := range want.LFrontier {
		if got.LFrontier[i] != want.LFrontier[i] || got.LVisited[i] != want.LVisited[i] {
			t.Fatalf("L word %d differs", i)
		}
	}
	for i := range want.ParentHub {
		if got.ParentHub[i] != want.ParentHub[i] {
			t.Fatalf("parentHub[%d] = %d, want %d", i, got.ParentHub[i], want.ParentHub[i])
		}
	}
	for i := range want.ParentL {
		if got.ParentL[i] != want.ParentL[i] {
			t.Fatalf("parentL[%d] = %d, want %d", i, got.ParentL[i], want.ParentL[i])
		}
	}
}

func TestWriterReplayRoundTrip(t *testing.T) {
	_, sc := openScope(t)
	want := writeChain(t, sc, 0, 6)
	want.Iter = 5
	got, n, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("replay read zero bytes")
	}
	sameState(t, got, want)
	// Replaying a prefix stops exactly at the requested iteration.
	mid, _, err := sc.Replay(0, 2, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Iter != 2 {
		t.Fatalf("prefix replay stopped at %d, want 2", mid.Iter)
	}
}

// TestBurstCommitsNewestCapture fires non-mandatory captures far faster than
// the writer commits them. Captures that arrive with both buffers in flight
// supersede the queued one rather than being dropped, so once the writer
// drains, the chain ends at the last captured iteration and replays to the
// final state.
func TestBurstCommitsNewestCapture(t *testing.T) {
	_, sc := openScope(t)
	w, err := NewWriter(sc, 0, hubWords, lWords, hubLen, lLen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewState(hubWords, lWords, hubLen, lLen)
	const last = 199
	for it := int64(-1); it <= last; it++ {
		if it >= 0 {
			cur.ParentL[it%lLen] = it
			cur.LVisited[it%lWords] |= 1 << uint(it%64)
			cur.VisitL++
		}
		if !w.Checkpoint(it, it < 0, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
			cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL) {
			t.Fatalf("capture of iteration %d dropped", it)
		}
	}
	ws := w.Close()
	if ws.Errors != 0 || ws.Segments+ws.Dropped != last+2 {
		t.Fatalf("writer stats %+v: every capture must commit or be superseded", ws)
	}
	if it, ok := sc.LatestComplete(1); !ok || it != last {
		t.Fatalf("LatestComplete = (%d, %v), want (%d, true)", it, ok, last)
	}
	got, _, err := sc.Replay(0, last, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	cur.Iter = last
	sameState(t, got, cur)
}

func TestLatestCompleteIsIntersection(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	writeChain(t, sc, 1, 4) // rank 1 committed less
	it, ok := sc.LatestComplete(2)
	if !ok || it != 3 {
		t.Fatalf("LatestComplete = (%d, %v), want (3, true)", it, ok)
	}
	// A rank without a boot segment poisons the whole scope.
	if _, ok := sc.LatestComplete(3); ok {
		t.Fatal("scope with a bootless rank reported resumable")
	}
}

func segPath(sc *RunScope, rank int, iter int64) string {
	return deltaPath(sc.rankDir(rank), iter)
}

func TestTruncatedSegmentFallsBackOneIteration(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	// Tear the newest segment: chop it mid-payload, as a crash during a
	// non-atomic filesystem would.
	p := segPath(sc, 0, 5)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	it, ok := sc.LatestComplete(1)
	if !ok || it != 4 {
		t.Fatalf("after torn write LatestComplete = (%d, %v), want (4, true)", it, ok)
	}
	// Asking for the torn iteration anyway surfaces the typed corruption.
	if _, _, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("replay past torn segment: %v, want ErrCheckpointCorrupt", err)
	}
}

func TestBitFlipFallsBackOneIteration(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	p := segPath(sc, 0, 5)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10 // flip one payload bit; CRC must catch it
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if it, ok := sc.LatestComplete(1); !ok || it != 4 {
		t.Fatalf("after bit flip LatestComplete = (%d, %v), want (4, true)", it, ok)
	}
	if _, _, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("replay of flipped segment: %v, want ErrCheckpointCorrupt", err)
	}
	// The surviving prefix still replays cleanly.
	if _, _, err := sc.Replay(0, 4, hubWords, lWords, hubLen, lLen); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptMidChainPoisonsTail(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	p := segPath(sc, 0, 2)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Deltas build on each other: everything at or past the corrupt segment
	// is unusable, valid-looking files notwithstanding.
	if it, ok := sc.LatestComplete(1); !ok || it != 1 {
		t.Fatalf("LatestComplete = (%d, %v), want (1, true)", it, ok)
	}
}

func TestTruncateRemovesTail(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	if err := sc.Truncate(0, 2); err != nil {
		t.Fatal(err)
	}
	for it := int64(3); it < 6; it++ {
		if _, err := os.Stat(segPath(sc, 0, it)); !os.IsNotExist(err) {
			t.Fatalf("segment for iter %d survived truncation", it)
		}
	}
	if it, ok := sc.LatestComplete(1); !ok || it != 2 {
		t.Fatalf("LatestComplete = (%d, %v), want (2, true)", it, ok)
	}
}

func TestWriterResumeSeedsShadow(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 4)
	if err := sc.Truncate(0, 1); err != nil {
		t.Fatal(err)
	}
	resume, _, err := sc.Replay(0, 1, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	// A post-resume writer diffs against the replayed state: re-committing
	// identical state for iteration 2 must produce an (almost) empty delta
	// that still replays to the same result.
	w, err := NewWriter(sc, 0, hubWords, lWords, hubLen, lLen, resume, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewState(hubWords, lWords, hubLen, lLen)
	if err := copyState(cur, resume); err != nil {
		t.Fatal(err)
	}
	cur.LVisited[0] |= 1 << 40
	cur.ActiveL = 99
	w.Checkpoint(2, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
		cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL)
	w.Close()
	got, _, err := sc.Replay(0, 2, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	cur.Iter = 2
	sameState(t, got, cur)
}

func TestGraphTierRoundTripAndIdentity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := GraphMeta{N: 1 << 10, Ranks: 4, MeshRows: 2, MeshCols: 2, PerRank: 256, NumE: 3, NumH: 17, ThreshE: 128, ThreshH: 16}
	if s.HasGraph(meta) {
		t.Fatal("empty store claims a graph tier")
	}
	type fakeGraph struct {
		Rank   int
		LocalN int
		Rows   []int32
	}
	for r := 0; r < 4; r++ {
		if _, err := s.WriteRankGraph(r, &fakeGraph{Rank: r, LocalN: 256, Rows: []int32{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.WriteGraphMeta(meta); err != nil {
		t.Fatal(err)
	}
	if !s.HasGraph(meta) {
		t.Fatal("written graph tier not recognized")
	}
	other := meta
	other.ThreshH = 99
	if s.HasGraph(other) {
		t.Fatal("mismatched partitioning accepted")
	}
	var rg fakeGraph
	n, err := s.ReadRankGraph(2, &rg)
	if err != nil || n <= 0 {
		t.Fatalf("ReadRankGraph: n=%d err=%v", n, err)
	}
	if rg.Rank != 2 || rg.LocalN != 256 {
		t.Fatalf("rank graph decoded wrong: %+v", rg)
	}
	// Rank mismatch (wrong file under the right name) is corruption.
	a := filepath.Join(s.Dir(), "graph", "rank-0001.ckpt")
	b := filepath.Join(s.Dir(), "graph", "rank-0002.ckpt")
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRankGraph(1, &rg); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("cross-rank segment read: %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCommitIsAtomicRename(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "seg.ckpt")
	if err := commit(p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind after commit")
	}
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("committed contents %q err=%v", got, err)
	}
}
