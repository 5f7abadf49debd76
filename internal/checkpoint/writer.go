package checkpoint

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// WriterStats summarizes one Writer's lifetime.
type WriterStats struct {
	Segments int64 // delta segments committed
	Bytes    int64 // bytes committed
	Dropped  int64 // captures superseded or skipped while both buffers were in flight
	Errors   int64 // segments that failed to encode or commit
}

// Writer checkpoints one rank's iteration state asynchronously. The caller
// copies its live state into one of two capture buffers (the only
// synchronous cost — a memcpy of the bitmap words and parent arrays) and the
// writer goroutine does everything expensive off the critical path: diffing
// the capture against its shadow of the last committed state, gob-encoding
// the sparse delta, and committing the CRC'd segment by atomic rename. When
// both buffers are in flight a new capture never blocks a kernel: it
// overwrites the queued capture the writer has not started on, so the
// pending segment is always the newest iteration and the chain ends at most
// one commit behind the live state. The delta chain stays consistent because
// diffs are always taken against the last *committed* state, so the newer
// capture simply carries the superseded iteration's changes too.
type Writer struct {
	rank    int
	rankDir string
	done    chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond // signalled when a capture is queued or a buffer frees
	free   []*State   // capture buffers nobody holds
	queue  []*State   // captures awaiting commit, oldest first
	pinned *State     // queued must-capture; never superseded
	closed bool

	segments, bytes, dropped, errs atomic.Int64

	shadow *State        // writer-goroutine-owned after start
	tr     *trace.Stream // writer-goroutine-owned span stream; nil when tracing is off
}

// NewWriter builds the writer for rank inside scope. The size arguments fix
// the capture-buffer geometry. resume, when non-nil, seeds the shadow with
// the state of the rank's last committed segment (the state a replay
// produced) so post-resume diffs chain correctly; nil means a fresh chain
// whose first capture must be the bootstrap (Iter -1) state. tr, when
// non-nil, receives one "commit" span per committed segment; it must be a
// stream dedicated to this writer (the writer goroutine is its single
// writer).
func NewWriter(sc *RunScope, rank int, hubWords, lWords, hubLen, lLen int, resume *State, tr *trace.Stream) (*Writer, error) {
	rd := sc.rankDir(rank)
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		rank:    rank,
		rankDir: rd,
		done:    make(chan struct{}),
		free:    []*State{NewState(hubWords, lWords, hubLen, lLen), NewState(hubWords, lWords, hubLen, lLen)},
		shadow:  NewState(hubWords, lWords, hubLen, lLen),
		tr:      tr,
	}
	w.cond = sync.NewCond(&w.mu)
	if resume != nil {
		if err := copyState(w.shadow, resume); err != nil {
			return nil, err
		}
		w.shadow.Iter = resume.Iter
	}
	go w.loop()
	return w, nil
}

func copyState(dst, src *State) error {
	if len(dst.HubFrontier) != len(src.HubFrontier) || len(dst.LFrontier) != len(src.LFrontier) ||
		len(dst.ParentHub) != len(src.ParentHub) || len(dst.ParentL) != len(src.ParentL) {
		return fmt.Errorf("checkpoint: state geometry mismatch")
	}
	copy(dst.HubFrontier, src.HubFrontier)
	copy(dst.HubVisited, src.HubVisited)
	copy(dst.LFrontier, src.LFrontier)
	copy(dst.LVisited, src.LVisited)
	copy(dst.ParentHub, src.ParentHub)
	copy(dst.ParentL, src.ParentL)
	dst.ActiveL, dst.VisitL = src.ActiveL, src.VisitL
	return nil
}

// Checkpoint captures the rank's state as of completing iteration iter and
// queues it for committing. With both buffers in flight a non-mandatory
// capture takes over the queued one the writer has not started on (counting
// that one as dropped), or, when the queued one is a mandatory capture, is
// itself dropped and Checkpoint returns false. must blocks for a free buffer
// instead, and its capture is never superseded — used for the bootstrap
// segment, without which a chain is worthless, and for drain points.
func (w *Writer) Checkpoint(iter int64, must bool,
	hubFrontier, hubVisited, lFrontier, lVisited []uint64,
	parentHub, parentL []int64, activeL, visitL int64) bool {
	w.mu.Lock()
	var buf *State
	switch {
	case len(w.free) > 0:
		buf = w.free[len(w.free)-1]
		w.free = w.free[:len(w.free)-1]
	case must:
		for len(w.free) == 0 {
			w.cond.Wait()
		}
		buf = w.free[len(w.free)-1]
		w.free = w.free[:len(w.free)-1]
	case len(w.queue) > 0 && w.queue[len(w.queue)-1] != w.pinned:
		// The newest queued capture is older than this one and nothing
		// queued after it, so replacing it in place keeps commit order.
		buf = w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.dropped.Add(1)
	default:
		w.dropped.Add(1)
		w.mu.Unlock()
		return false
	}
	w.mu.Unlock()

	buf.Iter = iter
	copy(buf.HubFrontier, hubFrontier)
	copy(buf.HubVisited, hubVisited)
	copy(buf.LFrontier, lFrontier)
	copy(buf.LVisited, lVisited)
	copy(buf.ParentHub, parentHub)
	copy(buf.ParentL, parentL)
	buf.ActiveL, buf.VisitL = activeL, visitL

	w.mu.Lock()
	w.queue = append(w.queue, buf)
	if must {
		w.pinned = buf
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return true
}

// Close drains pending captures, stops the writer goroutine and returns the
// lifetime stats. The Writer must not be used afterwards.
func (w *Writer) Close() WriterStats {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	return WriterStats{
		Segments: w.segments.Load(),
		Bytes:    w.bytes.Load(),
		Dropped:  w.dropped.Load(),
		Errors:   w.errs.Load(),
	}
}

// next blocks for the oldest queued capture, taking it off the queue so no
// later capture can supersede it; nil means the writer is closed and drained.
func (w *Writer) next() *State {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.closed {
		w.cond.Wait()
	}
	if len(w.queue) == 0 {
		return nil
	}
	buf := w.queue[0]
	w.queue = w.queue[1:]
	if buf == w.pinned {
		w.pinned = nil
	}
	return buf
}

func (w *Writer) loop() {
	defer close(w.done)
	for buf := w.next(); buf != nil; buf = w.next() {
		var t0 int64
		if w.tr != nil {
			t0 = w.tr.Now()
		}
		d := diffStates(w.shadow, buf)
		data, err := encodeSegment(kindDelta, w.rank, buf.Iter, &d)
		if err == nil {
			err = commit(deltaPath(w.rankDir, buf.Iter), data)
		}
		if err != nil {
			// Leave the shadow untouched: the next capture's diff then
			// re-carries this one's changes, keeping the on-disk chain
			// consistent (just with a gap, like a dropped capture).
			w.errs.Add(1)
		} else {
			w.segments.Add(1)
			w.bytes.Add(int64(len(data)))
			w.shadow.apply(&d)
		}
		if w.tr != nil {
			sp := trace.Span{Kind: trace.KindCheckpoint, Iter: buf.Iter, Step: -1,
				Name: "commit", Start: t0, Dur: w.tr.Now() - t0, Bytes: int64(len(data))}
			if err != nil {
				sp.Err = 1
			}
			w.tr.Emit(sp)
		}
		w.mu.Lock()
		w.free = append(w.free, buf)
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

func diffWords(shadow, cur []uint64) []WordDelta {
	var out []WordDelta
	for i, w := range cur {
		if shadow[i] != w {
			out = append(out, WordDelta{Idx: int32(i), Word: w})
		}
	}
	return out
}

func diffParents(shadow, cur []int64) []ParentDelta {
	var out []ParentDelta
	for i, p := range cur {
		if shadow[i] != p {
			out = append(out, ParentDelta{Idx: int32(i), Parent: p})
		}
	}
	return out
}

func diffStates(shadow, cur *State) Delta {
	return Delta{
		Iter:        cur.Iter,
		HubFrontier: diffWords(shadow.HubFrontier, cur.HubFrontier),
		HubVisited:  diffWords(shadow.HubVisited, cur.HubVisited),
		LFrontier:   diffWords(shadow.LFrontier, cur.LFrontier),
		LVisited:    diffWords(shadow.LVisited, cur.LVisited),
		ParentHub:   diffParents(shadow.ParentHub, cur.ParentHub),
		ParentL:     diffParents(shadow.ParentL, cur.ParentL),
		ActiveL:     cur.ActiveL,
		VisitL:      cur.VisitL,
	}
}
