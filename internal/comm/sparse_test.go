package comm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// padRec is a padded message type (4 bytes of padding after A), the layout of
// the engine's row messages: the byte view the collectives ship includes the
// padding, so it must survive the socket decode like any other byte.
type padRec struct {
	A int32
	B int64
}

// sparseSends builds rank id's per-destination buffers for an n-member
// exchange: value 100*id+j twice to every member j < id, once to itself, and
// nothing to the members above it — so some buffers are empty, some repeat,
// and each source's order is observable.
func sparseSends(id, n int) ([][]int64, [][]padRec) {
	ints := make([][]int64, n)
	recs := make([][]padRec, n)
	for j := 0; j < id; j++ {
		for rep := 0; rep < 2; rep++ {
			v := int64(100*id + j)
			ints[j] = append(ints[j], v)
			recs[j] = append(recs[j], padRec{A: int32(rep), B: v})
		}
	}
	ints[id] = append(ints[id], int64(-id))
	recs[id] = append(recs[id], padRec{A: -1, B: int64(-id)})
	return ints, recs
}

// equalRecv compares two exchanges' results element for element, treating
// nil and empty buffers alike.
func equalRecv[T comparable](got, want [][]T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d buffers, want %d", len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			return fmt.Errorf("buffer %d: %v, want %v", j, got[j], want[j])
		}
		for i := range want[j] {
			if got[j][i] != want[j][i] {
				return fmt.Errorf("buffer %d: %v, want %v", j, got[j], want[j])
			}
		}
	}
	return nil
}

// checkSparseMatchesAlltoallv pins the substitution contract on c: for an
// int64 exchange, a padded-struct exchange and a two-list (batched)
// contribution, AllgatherSparse returns element for element what Alltoallv
// returns for the same buffers.
func checkSparseMatchesAlltoallv(c *Comm, id int) error {
	n := c.Size()
	ints, recs := sparseSends(c.Rank(), n)
	wantInts, err := Alltoallv(c, ints)
	if err != nil {
		return err
	}
	gotInts, err := AllgatherSparse(c, ints)
	if err != nil {
		return err
	}
	if err := equalRecv(gotInts, wantInts); err != nil {
		return fmt.Errorf("rank %d int64: %v", id, err)
	}
	wantRecs, err := Alltoallv(c, recs)
	if err != nil {
		return err
	}
	gotRecs, err := AllgatherSparse(c, recs)
	if err != nil {
		return err
	}
	if err := equalRecv(gotRecs, wantRecs); err != nil {
		return fmt.Errorf("rank %d padded struct: %v", id, err)
	}
	// Two lists in one contribution: the second list reverses the first's
	// destinations, so a receiver mixing the lists up reads the wrong values.
	second := make([][]padRec, n)
	for j := range second {
		second[j] = recs[n-1-j]
	}
	wantSecond, err := Alltoallv(c, second)
	if err != nil {
		return err
	}
	got2, err := AllgatherSparse(c, append(append([][]padRec(nil), recs...), second...))
	if err != nil {
		return err
	}
	if err := equalRecv(got2[:n], wantRecs); err != nil {
		return fmt.Errorf("rank %d two-list, first list: %v", id, err)
	}
	if err := equalRecv(got2[n:], wantSecond); err != nil {
		return fmt.Errorf("rank %d two-list, second list: %v", id, err)
	}
	return nil
}

func TestAllgatherSparseMatchesAlltoallv(t *testing.T) {
	for _, mesh := range []topology.Mesh{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}} {
		n := mesh.Size()
		w, err := NewWorld(n, mesh, topology.NewSunway(n))
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r *Rank) {
			for _, c := range []*Comm{r.World, r.RowC, r.ColC} {
				if err := checkSparseMatchesAlltoallv(c, r.ID); err != nil {
					panicf(t, "%dx%d %s: %v", mesh.Rows, mesh.Cols, c.scope, err)
				}
			}
		})
	}
}

func TestAllgatherSparseEmptyExchange(t *testing.T) {
	const n = 4
	w, err := NewWorld(n, topology.Mesh{Rows: 1, Cols: 4}, topology.NewSunway(n))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		out, err := AllgatherSparse(r.World, make([][]int64, n))
		if err != nil {
			panicf(t, "rank %d: %v", r.ID, err)
		}
		for j, part := range out {
			if len(part) != 0 {
				panicf(t, "rank %d: empty exchange delivered %d records from %d", r.ID, len(part), j)
			}
		}
		if r.Stats.Calls[KindAllgatherSparse] != 1 {
			panicf(t, "rank %d: Calls[allgather_sparse] = %d, want 1", r.ID, r.Stats.Calls[KindAllgatherSparse])
		}
		if b := r.Stats.IntraBytes[KindAllgatherSparse] + r.Stats.InterBytes[KindAllgatherSparse]; b != 0 {
			panicf(t, "rank %d: empty exchange accounted %d bytes", r.ID, b)
		}
	})
}

func TestAllgatherSparseScopedToRow(t *testing.T) {
	// On a row communicator, buffer j goes to row member j and nothing leaks
	// to the other row; traffic is accounted once per other row member.
	const n = 4
	w, err := NewWorld(n, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(n))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		me := r.RowC.Rank()
		peer := 1 - me
		send := make([][]padRec, 2)
		send[peer] = []padRec{{A: int32(r.ID), B: int64(10 * r.ID)}}
		out, err := AllgatherSparse(r.RowC, send)
		if err != nil {
			panicf(t, "rank %d: %v", r.ID, err)
		}
		if len(out[me]) != 0 {
			panicf(t, "rank %d: %d records from itself, want 0", r.ID, len(out[me]))
		}
		got := out[peer]
		wantFrom := r.Row*2 + peer
		if len(got) != 1 || got[0] != (padRec{A: int32(wantFrom), B: int64(10 * wantFrom)}) {
			panicf(t, "rank %d: got %+v, want one record from world rank %d", r.ID, got, wantFrom)
		}
		if b := r.Stats.IntraBytes[KindAllgatherSparse] + r.Stats.InterBytes[KindAllgatherSparse]; b != 16 {
			panicf(t, "rank %d: accounted %d bytes, want 16", r.ID, b)
		}
	})
}

// TestAllgatherSparsePanicsOnBadDst: a buffer addressed past the last member
// (a send list one longer than Size()) must panic on the sender rather than
// silently drop its messages.
func TestAllgatherSparsePanicsOnBadDst(t *testing.T) {
	const n = 2
	w, err := NewWorld(n, topology.Mesh{Rows: 1, Cols: 2}, topology.NewSunway(n))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "one buffer per member") {
			t.Fatalf("misaddressed send: recovered %q, want the one-buffer-per-member panic", msg)
		}
	}()
	w.Run(func(r *Rank) {
		send := make([][]int64, n+1)
		send[n] = []int64{1}
		AllgatherSparse(r.World, send)
	})
}

// recoverMsg runs fn and returns what it panicked with ("" if it returned).
func recoverMsg(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// remoteComm is a one-member communicator whose slot holds a remote-shaped
// posting of parts, as the socket backend's router leaves it.
func remoteComm(parts [][]byte) *Comm {
	return &Comm{sh: &shared{members: []int{0}, slots: []contribution{{payload: remoteParts{parts}}}}}
}

func TestRemoteDecodeRejectsRaggedPayload(t *testing.T) {
	// 16-byte padRec elements: unchecked, a 20-byte part is copied into a
	// 16-byte backing (an out-of-bounds write) and a 3-byte part fails with
	// a bare index error naming nothing.
	for _, size := range []int{20, 3} {
		c := remoteComm([][]byte{make([]byte, size)})
		msg := recoverMsg(func() { slotPart[padRec](c, "alltoallv", 0, 0) })
		if !strings.Contains(msg, "alltoallv") || !strings.Contains(msg, "member 0") ||
			!strings.Contains(msg, fmt.Sprintf("%d bytes", size)) {
			t.Fatalf("%d-byte part: recovered %q, want a panic naming the collective, member and size", size, msg)
		}
		msg = recoverMsg(func() { slotSlice[padRec](c, "allgatherv", 0) })
		if !strings.Contains(msg, "allgatherv") || !strings.Contains(msg, "member 0") {
			t.Fatalf("%d-byte payload: recovered %q, want a panic naming the collective and member", size, msg)
		}
	}
	// Whole elements still decode, padding bytes included.
	want := []padRec{{A: 7, B: -3}, {A: -1, B: 1 << 40}}
	got := slotPart[padRec](remoteComm([][]byte{sliceBytes(want)}), "alltoallv", 0, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

func TestRemoteDecodeRejectsMissingPart(t *testing.T) {
	// A remote member that posted 2 buffers to a 4-member exchange: read as
	// nil, buffer 3's messages would vanish without an error.
	c := remoteComm([][]byte{nil, nil})
	msg := recoverMsg(func() { slotPart[int64](c, "allgather_sparse", 0, 3) })
	if !strings.Contains(msg, "allgather_sparse") || !strings.Contains(msg, "member 0") ||
		!strings.Contains(msg, "2 buffers") {
		t.Fatalf("recovered %q, want a panic naming the collective, member and buffer count", msg)
	}
	// The in-process posting form fails the same way.
	local := &Comm{sh: &shared{members: []int{0}, slots: []contribution{{payload: [][]int64{nil}}}}}
	if msg := recoverMsg(func() { slotPart[int64](local, "alltoallv", 0, 1) }); !strings.Contains(msg, "member 0") {
		t.Fatalf("local posting: recovered %q, want a panic naming the member", msg)
	}
}

// envelope builds a contribution envelope the way encodeContribution does.
func envelope(delay time.Duration, declared uint64, parts ...[]byte) []byte {
	return encodeContribution(&contribution{delay: delay, declared: declared}, parts)
}

// FuzzContributionDecode fuzzes the socket backend's contribution decode —
// the path every remote message, sparse-tail records included, takes. Any
// envelope that decodes must re-encode to the identical bytes, and its parts
// must either decode through the typed slot accessor to exactly their bytes
// or fail with the accessor's named panic — never a bare runtime error or a
// silent drop. Truncated or extended envelopes must be rejected.
func FuzzContributionDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(envelope(0, 0))
	f.Add(envelope(5, 99, sliceBytes([]padRec{{A: 1, B: 2}})))
	f.Add(envelope(0, 1, sliceBytes([]padRec{{A: 1, B: 2}}), nil, sliceBytes([]padRec{{A: -1, B: 3}, {A: 4, B: -5}})))
	f.Add(envelope(0, 0, make([]byte, 20), make([]byte, 3)))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ctr, err := decodeContribution(&wire.Frame{Type: wire.TypeData, Payload: payload})
		if err != nil {
			return
		}
		var parts [][]byte
		if rp, ok := ctr.payload.(remoteParts); ok {
			parts = rp.parts
		}
		if re := encodeContribution(ctr, parts); !bytes.Equal(re, payload) {
			t.Fatalf("round trip diverged:\n in: %x\nout: %x", payload, re)
		}
		if _, err := decodeContribution(&wire.Frame{Payload: payload[:len(payload)-1]}); err == nil {
			t.Fatal("decoder accepted a truncated envelope")
		}
		if _, err := decodeContribution(&wire.Frame{Payload: append(append([]byte(nil), payload...), 0)}); err == nil {
			t.Fatal("decoder accepted trailing bytes")
		}
		c := &Comm{sh: &shared{members: []int{0}, slots: []contribution{*ctr}}}
		for i, p := range parts {
			var got []padRec
			msg := recoverMsg(func() { got = slotPart[padRec](c, "fuzz", 0, i) })
			if len(p)%16 != 0 {
				if !strings.Contains(msg, "fuzz: member 0") {
					t.Fatalf("part %d (%d bytes): recovered %q, want the named ragged-payload panic", i, len(p), msg)
				}
				continue
			}
			if msg != "" {
				t.Fatalf("part %d (%d bytes): unexpected panic %q", i, len(p), msg)
			}
			if !bytes.Equal(sliceBytes(got), p) {
				t.Fatalf("part %d: typed decode changed the bytes", i)
			}
		}
		if parts != nil {
			msg := recoverMsg(func() { slotPart[padRec](c, "fuzz", 0, len(parts)) })
			if !strings.Contains(msg, "fuzz: member 0") {
				t.Fatalf("missing part: recovered %q, want the named missing-buffer panic", msg)
			}
		}
	})
}
