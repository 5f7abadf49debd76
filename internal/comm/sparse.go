package comm

import "fmt"

// AllgatherSparse is the tail-iteration exchange. It takes and returns
// exactly what Alltoallv does — send[j] goes to member j, recv[j] is the
// buffer member j sent the caller, in j's send order — so a caller picks
// between the two in one line and applies the received messages in an
// identical order. Only the schedule differs: every member posts its whole
// buffer list once, allgather-style, and each receiver reads only its own
// part. For the tiny frontiers of tail iterations one small posting replaces
// a k-way personalized exchange of mostly empty buffers.
//
// send may carry several per-destination lists back to back: with k =
// Size(), list l's buffer for member j is send[l*k+j], and recv has the same
// layout. One contribution can so batch several kernels' messages (the
// engine's H2L+L2H row exchange) with no tag on any message. A send whose
// length is not a positive multiple of k panics: it would leave some member
// without a buffer, and a misaddressed message must not vanish silently.
//
// The contribution rides the same path as Alltoallv's, so the fault
// transport's delay/stall/corrupt/fail/kill actions all apply. Traffic is
// accounted allgather-shaped: the posted bytes count once for every other
// member.
func AllgatherSparse[T any](c *Comm, send [][]T) ([][]T, error) {
	k := c.Size()
	if len(send) == 0 || len(send)%k != 0 {
		panic(fmt.Sprintf("comm: AllgatherSparse needs one buffer per member per list, got %d buffers for %d members", len(send), k))
	}
	seq := c.nextSeq()
	tok := c.traceEnter()
	c.rank.Stats.Calls[KindAllgatherSparse]++
	var posted int64
	for _, buf := range send {
		posted += int64(len(buf))
	}
	posted *= elemSize[T]()
	for j := 0; j < k; j++ {
		if j != c.me {
			c.account(KindAllgatherSparse, j, posted)
		}
	}
	contribute2(c, KindAllgatherSparse, seq, send)
	c.rendezvous(seq, nil)
	err := c.verify(KindAllgatherSparse, nil)
	var recv [][]T
	if err == nil {
		recv = make([][]T, len(send))
		for l := 0; l < len(send); l += k {
			for j := 0; j < k; j++ {
				if mine := slotPart[T](c, "allgather_sparse", j, l+c.me); len(mine) > 0 {
					recv[l+j] = append([]T(nil), mine...)
				}
			}
		}
	}
	c.complete(seq)
	c.traceExit("allgather_sparse", tok, err)
	return recv, err
}
