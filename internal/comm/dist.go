package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the socket backend of the rendezvous protocol: the same
// collectives, slots and envelope verification as the in-process backend,
// with the rank set split across OS processes. Each process runs its local
// ranks as goroutines exactly as before (hybrid mode: a process stands in
// for a supernode); contributions from remote ranks arrive as wire frames,
// are routed by (epoch, generation, communicator, collective-sequence) into
// per-collective arrival buffers, and are copied into the shared slots by
// the communicator's local leader before verification. Detection stays
// symmetric the same way it does in process: every member verifies the same
// envelope set, so every member returns the same typed error.
//
// Failure semantics across processes:
//   - Injected faults (delay/stall/corrupt/fail/kill) travel inside the
//     envelope, so chaos plans behave identically on both backends.
//   - A dead or hung peer PROCESS is detected by the wire layer's heartbeat
//     failure detector; its ranks' contributions are synthesized as dead
//     envelopes, surfacing the existing ErrRankDead. The verdict is latched:
//     real fail-stop means every surviving process reaches the same verdict
//     independently, which is what keeps the membership vote consistent
//     without a coordinator. (Asymmetric partitions that suspect a live
//     process are out of scope, as in the paper's MPI runtime.)
//   - Transient connection faults (drops, short hangs) are absorbed by the
//     wire layer's reconnect + replay and never surface here at all.

// fenceComm is the reserved communicator id for process-level fences.
const fenceComm = ^uint32(0)

// outcomeComm is the reserved communicator id for the per-epoch outcome
// exchange (ExchangeOutcome): fence-shaped frames that carry a payload.
const outcomeComm = ^uint32(0) - 1

// Frame-type aliases so the collectives don't import wire directly.
const (
	wireData    = wire.TypeData
	wireControl = wire.TypeControl
)

// DistConfig makes a World span the processes of a Group. ProcOf maps each
// world rank to its hosting process; ranks with ProcOf[r] == Group.Proc()
// run as goroutines in this process, the rest are remote.
type DistConfig struct {
	Group  *Group
	ProcOf []int
}

// ContiguousProcOf builds the hybrid-mode rank→process map: ranksPerProc
// consecutive ranks per process (the paper's nodes-per-supernode split).
func ContiguousProcOf(n, ranksPerProc int) []int {
	m := make([]int, n)
	for r := range m {
		m[r] = r / ranksPerProc
	}
	return m
}

// arrKey addresses one collective's arrival buffer.
type arrKey struct {
	epoch, gen, comm uint32
	seq              uint64
}

// wmKey addresses a completion watermark (per communicator per run).
type wmKey struct {
	epoch, gen, comm uint32
}

// runKey addresses one run generation of one world epoch — the scope of an
// outcome revoke (see Group.departed).
type runKey struct {
	epoch, gen uint32
}

// arrival buffers remote contributions for one collective until the local
// leader consumes them. update is closed and replaced on every change so
// waiters can block without polling.
type arrival struct {
	ctrs   map[int]*contribution // sender world rank (process id for fences)
	update chan struct{}
}

// Group is one process's durable membership in a multi-process world
// sequence: it owns the wire endpoint and the frame router, and survives
// world epochs (worlds come and go across rebuilds; the sockets persist).
type Group struct {
	ep *wire.Endpoint

	mu        sync.Mutex
	arrivals  map[arrKey]*arrival
	marks     map[wmKey]uint64
	deadProcs map[int]bool
	// departed records, per (epoch, run generation), the processes whose
	// epoch-outcome announcement has arrived. An outcome frame doubles as an
	// epoch revoke: its sender has left that epoch's collective schedule for
	// good, and because sessions deliver in order, any contribution of its
	// that was not delivered before the announcement never will be. Failure
	// detection is asynchronous, so two survivors of a process kill can
	// disagree on which collective first surfaces the death — one leaves the
	// epoch while the other, having received the victim's last in-flight
	// frames, sails past the vote and blocks on the leaver's next
	// contribution. The revoke converts that wait into dead-envelope
	// synthesis (fill), re-joining the verdicts at the outcome exchange.
	departed   map[runKey]map[int]bool
	gen        uint32
	fenceSeq   uint64
	outcomeSeq uint64
}

// NewGroup binds a wire endpoint for this process and starts routing frames.
// The caller fills cfg's identity, addresses and timings; the Group installs
// its own frame and peer-death handlers.
func NewGroup(cfg wire.Config) (*Group, error) {
	g := &Group{
		arrivals:  make(map[arrKey]*arrival),
		marks:     make(map[wmKey]uint64),
		deadProcs: make(map[int]bool),
		departed:  make(map[runKey]map[int]bool),
	}
	cfg.OnFrame = g.deliver
	cfg.OnPeerDead = g.peerDead
	ep, err := wire.Listen(cfg)
	if err != nil {
		return nil, err
	}
	g.ep = ep
	return g, nil
}

// Proc returns this process's index in the group.
func (g *Group) Proc() int { return g.ep.Proc() }

// Procs returns the process-group size.
func (g *Group) Procs() int { return g.ep.Procs() }

// WireStats snapshots the endpoint's transport counters.
func (g *Group) WireStats() wire.Stats { return g.ep.Stats() }

// DeadProcs returns the processes the failure detector has declared dead.
func (g *Group) DeadProcs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.deadProcs))
	for p := range g.deadProcs {
		out = append(out, p)
	}
	return out
}

// Close shuts the endpoint down gracefully (peers see Bye, not a failure).
func (g *Group) Close() error { return g.ep.Close() }

// Abort tears the endpoint down silently — peers' failure detectors will
// declare this process dead, exactly as after a SIGKILL.
func (g *Group) Abort() error { return g.ep.Abort() }

// beginRun opens a new run generation: advance the counter, prune state from
// completed epochs, and let the endpoint drop stale replay frames. Every
// process calls Run in the same global order (the engine is SPMD), so the
// generation counters stay aligned without any exchange.
func (g *Group) beginRun(epoch int) uint32 {
	e := uint32(epoch)
	g.mu.Lock()
	g.gen++
	gen := g.gen
	for k := range g.arrivals {
		if k.epoch < e {
			delete(g.arrivals, k)
		}
	}
	for k := range g.marks {
		if k.epoch < e {
			delete(g.marks, k)
		}
	}
	for k := range g.departed {
		if k.epoch < e {
			delete(g.departed, k)
		}
	}
	g.mu.Unlock()
	g.ep.SetEpoch(e)
	return gen
}

// arrivalLocked returns (creating if needed) the buffer for key. Caller
// holds g.mu.
func (g *Group) arrivalLocked(key arrKey) *arrival {
	arr := g.arrivals[key]
	if arr == nil {
		arr = &arrival{ctrs: make(map[int]*contribution), update: make(chan struct{})}
		g.arrivals[key] = arr
	}
	return arr
}

// bumpLocked wakes everyone blocked on arr. Caller holds g.mu.
func bumpLocked(arr *arrival) {
	close(arr.update)
	arr.update = make(chan struct{})
}

// deliver is the wire endpoint's frame callback (reader goroutines).
func (g *Group) deliver(peer int, f *wire.Frame) {
	switch f.Type {
	case wire.TypeData, wire.TypeControl:
		ctr, err := decodeContribution(f)
		if err != nil {
			return // CRC-clean but malformed envelope: drop, sender is buggy
		}
		key := arrKey{f.Epoch, f.Gen, f.Comm, f.Seq}
		g.mu.Lock()
		if f.Seq <= g.marks[wmKey{f.Epoch, f.Gen, f.Comm}] {
			g.mu.Unlock() // completed collective: stale retransmit
			return
		}
		arr := g.arrivalLocked(key)
		arr.ctrs[int(f.Rank)] = ctr
		bumpLocked(arr)
		g.mu.Unlock()
	case wire.TypeFence:
		// Fence-shaped frames key by their reserved communicator id so the
		// plain fence and the payload-carrying outcome exchange don't alias.
		key := arrKey{f.Epoch, 0, f.Comm, f.Seq}
		g.mu.Lock()
		arr := g.arrivalLocked(key)
		ctr := &contribution{}
		if len(f.Payload) > 0 {
			ctr.payload = remoteParts{parts: [][]byte{f.Payload}}
		}
		arr.ctrs[peer] = ctr
		if f.Comm == outcomeComm {
			// The sender has left this (epoch, run): latch the revoke and
			// wake every waiter, not just this key's — a fill blocked on a
			// contribution the sender will never make must re-check.
			rk := runKey{f.Epoch, f.Gen}
			dep := g.departed[rk]
			if dep == nil {
				dep = make(map[int]bool)
				g.departed[rk] = dep
			}
			dep[peer] = true
			for _, a := range g.arrivals {
				bumpLocked(a)
			}
		} else {
			bumpLocked(arr)
		}
		g.mu.Unlock()
	}
}

// peerDead is the wire endpoint's failure-detector callback: latch the
// process dead and wake every waiter so they synthesize dead envelopes.
func (g *Group) peerDead(peer int) {
	g.mu.Lock()
	g.deadProcs[peer] = true
	for _, arr := range g.arrivals {
		bumpLocked(arr)
	}
	g.mu.Unlock()
}

// complete marks a collective finished: stale retransmits below the
// watermark are dropped on arrival and the buffer is freed.
func (g *Group) complete(key arrKey) {
	g.mu.Lock()
	wk := wmKey{key.epoch, key.gen, key.comm}
	if key.seq > g.marks[wk] {
		g.marks[wk] = key.seq
	}
	delete(g.arrivals, key)
	g.mu.Unlock()
}

// distComm is a communicator's cross-process geometry: which members are
// local goroutines, which live on remote processes, and who leads the local
// gather.
type distComm struct {
	w           *World
	id          uint32
	local       []int // member indices hosted by this process
	leader      int   // lowest local member index
	remote      []int // member indices hosted remotely
	remoteProcs []int // distinct processes hosting remote members
	gbar        *barrier
}

// fill copies every needed remote contribution into the shared slots,
// blocking until each has either arrived or its hosting process has been
// declared dead (in which case a dead envelope is synthesized — the typed
// ErrRankDead every member then agrees on). members narrows the wait to a
// contributing subset (Bcast); nil means all. Only the local leader calls
// this, between the opening barrier and the gather barrier.
func (sh *shared) fill(seq uint64, members []int) {
	d := sh.dist
	g := d.w.dist.Group
	var need []int
	for _, m := range d.remote {
		if members != nil && !containsMember(members, m) {
			continue
		}
		need = append(need, m)
	}
	if len(need) == 0 {
		return
	}
	key := arrKey{uint32(d.w.epoch), d.w.gen, d.id, seq}
	rk := runKey{uint32(d.w.epoch), d.w.gen}
	filled := make([]bool, len(need))
	done := 0
	for {
		g.mu.Lock()
		arr := g.arrivalLocked(key)
		dep := g.departed[rk]
		for i, m := range need {
			if filled[i] {
				continue
			}
			wr := sh.members[m]
			if ctr := arr.ctrs[wr]; ctr != nil {
				sh.slots[m] = *ctr
				filled[i] = true
				done++
			} else if p := d.w.procOf[wr]; g.deadProcs[p] || dep[p] {
				// Hosting process dead, or it announced this epoch's outcome
				// and so will contribute nothing more (delivery is in-order:
				// anything it sent first has already arrived). Either way
				// this contribution cannot come — synthesize the dead
				// envelope so the collective fails typed instead of hanging.
				sh.slots[m] = contribution{dead: true}
				filled[i] = true
				done++
			}
		}
		ch := arr.update
		g.mu.Unlock()
		if done == len(need) {
			return
		}
		<-ch
	}
}

func containsMember(members []int, m int) bool {
	for _, x := range members {
		if x == m {
			return true
		}
	}
	return false
}

// nextSeq advances this member's collective counter on the communicator.
// Members execute an identical collective schedule (the SPMD contract the
// in-process barriers already rely on), so the counters agree across
// processes and (comm, seq) uniquely addresses a collective within a run.
func (c *Comm) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// rendezvous is the cross-backend replacement for the opening barrier: local
// members rendezvous, then (socket backend only) the leader gathers remote
// contributions into the slots and everyone syncs again before verifying.
func (c *Comm) rendezvous(seq uint64, members []int) {
	c.sh.bar.wait()
	if d := c.sh.dist; d != nil {
		if c.me == d.leader {
			c.sh.fill(seq, members)
		}
		d.gbar.wait()
	}
}

// complete is the cross-backend replacement for the closing barrier: once
// every local member has read the payloads, the leader retires the
// collective's arrival buffer.
func (c *Comm) complete(seq uint64) {
	c.sh.bar.wait()
	if d := c.sh.dist; d != nil && c.me == d.leader {
		d.w.dist.Group.complete(arrKey{uint32(d.w.epoch), d.w.gen, d.id, seq})
	}
}

// distSend ships this member's contribution to every remote process with
// members in the communicator. A send to a dead peer is dropped — its ranks
// will be synthesized dead on every survivor anyway. Payload bytes are
// copied at enqueue, so callers may reuse their buffers immediately.
func (c *Comm) distSend(seq uint64, typ uint8, ctr *contribution, parts [][]byte) {
	d := c.sh.dist
	if d == nil || len(d.remoteProcs) == 0 {
		return
	}
	payload := encodeContribution(ctr, parts)
	var flags uint8
	if ctr.withheld {
		flags |= wire.FlagWithheld
	}
	if ctr.failed {
		flags |= wire.FlagFailed
	}
	if ctr.dead {
		flags |= wire.FlagDead
	}
	for _, p := range d.remoteProcs {
		f := &wire.Frame{
			Type:    typ,
			Flags:   flags,
			Epoch:   uint32(d.w.epoch),
			Gen:     d.w.gen,
			Comm:    d.id,
			Seq:     seq,
			Rank:    int32(c.sh.members[c.me]),
			Payload: payload,
		}
		_ = d.w.dist.Group.ep.Send(p, f)
	}
}

// Envelope encoding carried in data/control frame payloads: delay (ns),
// declared checksum, part count, part lengths, raw part bytes. Parts are the
// native-endian byte views of the contribution's buffers — the same bytes
// the in-process checksum folds over, so corruption injected before the
// send is detected identically on local and remote members.
func encodeContribution(ctr *contribution, parts [][]byte) []byte {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	b := make([]byte, 0, 20+4*len(parts)+total)
	b = binary.LittleEndian.AppendUint64(b, uint64(ctr.delay))
	b = binary.LittleEndian.AppendUint64(b, ctr.declared)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	}
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// remoteParts is the payload form of a remote contribution: the sender's
// buffers as raw bytes. Collectives decode through the slot accessors.
type remoteParts struct {
	parts [][]byte
}

func decodeContribution(f *wire.Frame) (*contribution, error) {
	b := f.Payload
	if len(b) < 20 {
		return nil, fmt.Errorf("comm: contribution envelope %d bytes, want >= 20", len(b))
	}
	ctr := &contribution{
		delay:    time.Duration(binary.LittleEndian.Uint64(b[0:8])),
		declared: binary.LittleEndian.Uint64(b[8:16]),
		withheld: f.Flags&wire.FlagWithheld != 0,
		failed:   f.Flags&wire.FlagFailed != 0,
		dead:     f.Flags&wire.FlagDead != 0,
	}
	nparts := int(binary.LittleEndian.Uint32(b[16:20]))
	if nparts == 0 {
		if len(b) != 20 {
			return nil, fmt.Errorf("comm: contribution envelope has %d trailing bytes", len(b)-20)
		}
		return ctr, nil
	}
	off := 20 + 4*nparts
	if off > len(b) {
		return nil, fmt.Errorf("comm: contribution envelope truncated part table")
	}
	parts := make([][]byte, nparts)
	pos := off
	for i := 0; i < nparts; i++ {
		plen := int(binary.LittleEndian.Uint32(b[20+4*i : 24+4*i]))
		if pos+plen > len(b) {
			return nil, fmt.Errorf("comm: contribution envelope truncated part %d", i)
		}
		parts[i] = b[pos : pos+plen]
		pos += plen
	}
	if pos != len(b) {
		return nil, fmt.Errorf("comm: contribution envelope has %d trailing bytes", len(b)-pos)
	}
	ctr.payload = remoteParts{parts}
	ctr.resum = func() uint64 {
		h := uint64(fnvOffset)
		for _, p := range parts {
			h = sumSlice(h, p)
		}
		return h
	}
	return ctr, nil
}

// Fence is a process-level control barrier among live processes: it returns
// once every process has either announced this fence or been declared dead.
// The engine fences around checkpoint-directory transitions (choosing a
// resume point, writing the shared graph tier) so no process reads state
// another is still writing. No-op on the in-process backend, where World.Run
// returning is already a full barrier.
func (w *World) Fence() {
	if w.dist == nil {
		return
	}
	g := w.dist.Group
	g.mu.Lock()
	g.fenceSeq++
	seq := g.fenceSeq
	g.mu.Unlock()
	me := g.Proc()
	for p := 0; p < g.Procs(); p++ {
		if p == me {
			continue
		}
		_ = g.ep.Send(p, &wire.Frame{
			Type: wire.TypeFence, Epoch: uint32(w.epoch), Comm: fenceComm,
			Seq: seq, Rank: int32(me),
		})
	}
	key := arrKey{uint32(w.epoch), 0, fenceComm, seq}
	arrived := make([]bool, g.Procs())
	arrived[me] = true
	n := 1
	for {
		g.mu.Lock()
		arr := g.arrivalLocked(key)
		for p := 0; p < g.Procs(); p++ {
			if arrived[p] {
				continue
			}
			if arr.ctrs[p] != nil || g.deadProcs[p] {
				arrived[p] = true
				n++
			}
		}
		ch := arr.update
		if n == g.Procs() {
			delete(g.arrivals, key)
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		<-ch
	}
}

// ExchangeOutcome is a process-level allgather of one epoch's verdict: every
// process (rank-hosting or spare) announces the dead ranks its vote surfaced
// and a small outcome code, and receives the agreed dead ranks and the
// maximum code across live processes. It exists for the processes that host
// no running ranks — spares waiting for adoption, and processes whose local
// ranks all died — which never see the in-band membership vote yet must
// follow the same epoch transitions in lockstep. Dead processes contribute
// nothing; their ranks are already in the survivors' lists. No-op on the
// in-process backend.
//
// The announcement is also this (epoch, run)'s revoke on every receiver: a
// peer still blocked in one of the epoch's collectives stops waiting for this
// process's contributions and synthesizes dead envelopes instead (see
// Group.departed) — without it, survivors whose failure detectors fired on
// different collectives deadlock, one side parked here and the other waiting
// for a contribution the parked side will never send.
//
// Because a revoke surfaces as ErrRankDead, a straggler lists the ranks of
// every process that left the epoch before it, alive or not. So each process
// that announces is the authority on its own ranks: one of them is dead only
// if its host's announcement says so (an injected kill, which the host's own
// vote records). A rank whose host never announced — a dead process — is dead
// if any announcement lists it. Every receiver sees the same announcements
// and the same dead processes, so every receiver computes the same set.
func (w *World) ExchangeOutcome(dead []int, code uint8) ([]int, uint8) {
	if w.dist == nil {
		return dead, code
	}
	g := w.dist.Group
	g.mu.Lock()
	g.outcomeSeq++
	seq := g.outcomeSeq
	g.mu.Unlock()
	payload := encodeOutcome(dead, code)
	me := g.Proc()
	for p := 0; p < g.Procs(); p++ {
		if p == me {
			continue
		}
		// Gen scopes the revoke this frame doubles as: receivers still inside
		// this (epoch, run)'s collectives stop waiting for our contributions.
		_ = g.ep.Send(p, &wire.Frame{
			Type: wire.TypeFence, Epoch: uint32(w.epoch), Gen: w.gen,
			Comm: outcomeComm, Seq: seq, Rank: int32(me), Payload: payload,
		})
	}
	claims := map[int][]int{me: dead} // announcing process -> its dead ranks
	maxCode := code
	key := arrKey{uint32(w.epoch), 0, outcomeComm, seq}
	arrived := make([]bool, g.Procs())
	arrived[me] = true
	n := 1
	for {
		g.mu.Lock()
		arr := g.arrivalLocked(key)
		for p := 0; p < g.Procs(); p++ {
			if arrived[p] {
				continue
			}
			if ctr := arr.ctrs[p]; ctr != nil {
				if rp, ok := ctr.payload.(remoteParts); ok && len(rp.parts) == 1 {
					theirDead, theirCode := decodeOutcome(rp.parts[0])
					claims[p] = theirDead
					if theirCode > maxCode {
						maxCode = theirCode
					}
				}
				arrived[p] = true
				n++
			} else if g.deadProcs[p] {
				arrived[p] = true
				n++
			}
		}
		ch := arr.update
		if n == g.Procs() {
			delete(g.arrivals, key)
			g.mu.Unlock()
			deadSet := make(map[int]bool)
			for p, list := range claims {
				for _, d := range list {
					if d < 0 || d >= len(w.procOf) {
						continue
					}
					if _, announced := claims[w.procOf[d]]; !announced || w.procOf[d] == p {
						deadSet[d] = true
					}
				}
			}
			merged := make([]int, 0, len(deadSet))
			for d := range deadSet {
				merged = append(merged, d)
			}
			sortInts(merged)
			return merged, maxCode
		}
		g.mu.Unlock()
		<-ch
	}
}

// encodeOutcome packs an outcome payload: code, dead-rank count, ranks.
func encodeOutcome(dead []int, code uint8) []byte {
	b := []byte{code}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dead)))
	for _, d := range dead {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

func decodeOutcome(b []byte) (dead []int, code uint8) {
	if len(b) < 5 {
		return nil, 0
	}
	code = b[0]
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) < 5+4*n {
		return nil, code
	}
	for i := 0; i < n; i++ {
		dead = append(dead, int(binary.LittleEndian.Uint32(b[5+4*i:9+4*i])))
	}
	return dead, code
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// markDeadRank sets rank r's bit in the membership vote's dead-rank mask
// (words[1+r/64], bit r%64 — the layout documented on ControlOrWords). Used
// when a dead process's control contribution is synthesized: the comm layer
// casts the vote its zombie goroutine would have cast.
func markDeadRank(words []uint64, r int) {
	w := 1 + r/64
	if w < len(words) {
		words[w] |= 1 << uint(r%64)
	}
}
