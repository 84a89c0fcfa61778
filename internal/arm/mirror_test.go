package arm

// mirror_test.go drives a shard leader and its follower by hand, message by
// message, to check what replication keeps while both ends reuse their
// records: the follower applies each snapshot in place and its reply cache
// copies what it keeps, so after every ship its books must read exactly as
// the leader's. Every test here runs under DYNACC_POISON=1 too, where a
// snapshot's buffer is scribbled over as soon as the follower is done with
// it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// tap is a transport that delivers nothing: it keeps every message sent in
// its world for the test to hand on, and the simulation never runs.
type tap struct {
	w    *minimpi.World
	msgs []tapped
}

// tapped is one kept message; data is a pool buffer the test gives back.
type tapped struct {
	dst  int
	tag  minimpi.Tag
	data []byte
}

func (tp *tap) Deliver(m *minimpi.Message) {
	data, owned := m.TakePayload()
	if !owned {
		b := tp.w.GetBuf(len(data))
		copy(b, data)
		data = b
	}
	env := m.RemoteEnvelope()
	tp.msgs = append(tp.msgs, tapped{dst: env.Dst, tag: env.Tag, data: data})
	m.FinishLocal()
}

func (tp *tap) Stats() minimpi.TransportStats { return minimpi.TransportStats{} }
func (tp *tap) Close() error                  { return nil }

// take returns the messages sent since the last take.
func (tp *tap) take() []tapped {
	msgs := tp.msgs
	tp.msgs = nil
	return msgs
}

// handPlane is one replicated shard driven by hand: clients on ranks
// 0..clients-1, the leader and the follower on the next two ranks.
type handPlane struct {
	t      *testing.T
	tap    *tap
	dir    *Directory
	leader *Server
	rp     *Replica
	ships  int
	nextID map[int]uint64 // per client rank: its last reqID
	// replies holds every reply the leader sent, by request.
	replies map[minimpi.ReplyKey][]byte
}

func newHandPlane(t *testing.T, clients int, inv, followerInv []Handle, opts Options) *handPlane {
	t.Helper()
	w, err := minimpi.NewWorld(sim.New(), clients+2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{w: w}
	w.SetTransport(tp)
	dir := NewDirectory(NewRing(1), []int{clients}, []int{clients + 1})
	opts.Shard, opts.Directory = 0, dir
	leader, err := NewServerOpts(w.Comm(clients), inv, opts)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ReplicaFor(w.Comm(clients+1), dir, 0, followerInv, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &handPlane{t: t, tap: tp, dir: dir, leader: leader, rp: rp,
		nextID: make(map[int]uint64), replies: make(map[minimpi.ReplyKey][]byte)}
}

// frame starts a request from client c under a fresh reqID.
func (hp *handPlane) frame(c int, op uint8) (*wire.Writer, uint64) {
	hp.nextID[c]++
	id := hp.nextID[c]
	return wire.NewWriter(64).U8(op).U64(id).U64(hp.dir.Epoch(0)), id
}

// send has the leader handle one request, hands every snapshot it ships to
// the follower, and keeps the replies.
func (hp *handPlane) send(c int, msg []byte) {
	hp.leader.handle(c, msg)
	hp.deliver()
}

func (hp *handPlane) deliver() {
	for _, m := range hp.tap.take() {
		switch {
		case m.tag == TagReplicate:
			hp.rp.apply(m.data)
			hp.ships++
		case m.tag > tagReplyBase:
			hp.replies[minimpi.ReplyKey{Src: m.dst, ReqID: uint64(m.tag - tagReplyBase)}] = bytes.Clone(m.data)
		}
		hp.tap.w.PutBuf(m.data)
	}
}

// capEqual compares capabilities, a nil kernel list equal to an empty one.
func capEqual(a, b Capability) bool {
	return a.Class == b.Class && slices.Equal(a.Kernels, b.Kernels)
}

// diff describes how the follower's books differ from the leader's, or
// returns "".
func (hp *handPlane) diff() string {
	l, f := hp.leader, hp.rp.srv
	if len(l.accels) != len(f.accels) || len(l.byID) != len(f.byID) || len(f.byID) != len(f.accels) {
		return fmt.Sprintf("leader has %d accelerators (%d by id), follower %d (%d by id)",
			len(l.accels), len(l.byID), len(f.accels), len(f.byID))
	}
	for i, a := range l.accels {
		b := f.accels[i]
		ranks := func(x *accel) []int {
			var rs []int
			for _, h := range x.holders {
				rs = append(rs, h.rank)
			}
			return rs
		}
		switch {
		case a.id != b.id || a.rank != b.rank || f.byID[b.id] != b:
			return fmt.Sprintf("slot %d: leader has %d@%d, follower %d@%d", i, a.id, a.rank, b.id, b.rank)
		case a.state != b.state || (a.drain == nil) != (b.drain == nil) || a.drain != nil && a.drain.remove != b.drain.remove:
			return fmt.Sprintf("accel %d: leader %d drain=%+v, follower %d drain=%+v", a.id, a.state, a.drain, b.state, b.drain)
		case !slices.Equal(ranks(a), ranks(b)):
			return fmt.Sprintf("accel %d: leader holders %v, follower %v", a.id, ranks(a), ranks(b))
		case !capEqual(a.cap, b.cap):
			return fmt.Sprintf("accel %d: leader cap %+v, follower %+v", a.id, a.cap, b.cap)
		}
	}
	for key := range hp.replies {
		if lr, fr := l.replies.Lookup(key), f.replies.Lookup(key); !bytes.Equal(lr, fr) {
			return fmt.Sprintf("reply to %+v: leader caches %x, follower %x", key, lr, fr)
		}
	}
	return ""
}

// TestFollowerMirrorsLeader runs seeded op sequences — exclusive, shared
// and queued acquires, releases, fail and repair, drain, and elastic grow
// and shrink (register, retire) — from four clients against a leader, and
// after every ship compares the follower's per-accelerator state (state,
// flags, holder ranks, capability) and its reply lookups with the
// leader's. A third of the followers start with accelerators the leader
// never had, which the first snapshot must sweep out.
func TestFollowerMirrorsLeader(t *testing.T) {
	const clients, seqs, ops = 4, 1000, 40
	classes := []Capability{{}, capC1060(), capFermi(), capFPGA()}
	for seed := int64(1); seed <= seqs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var inv []Handle
		for id := 0; id < 2+rng.Intn(5); id++ {
			inv = append(inv, Handle{ID: id, Rank: 100 + id, Cap: classes[rng.Intn(len(classes))]})
		}
		followerInv := inv
		if seed%3 == 0 {
			followerInv = append(slices.Clone(inv), Handle{ID: 50, Rank: 150}, Handle{ID: 51, Rank: 151, Cap: capFermi()})
		}
		opts := Options{ShareCapacity: 1 + rng.Intn(3), Policy: Policy(rng.Intn(2))}
		hp := newHandPlane(t, clients, inv, followerInv, opts)
		nextID := len(inv)
		pickID := func() int {
			if len(hp.leader.accels) == 0 || rng.Intn(8) == 0 {
				return 1000 + rng.Intn(4) // unknown: a refused request
			}
			return hp.leader.accels[rng.Intn(len(hp.leader.accels))].id
		}
		for i := 0; i < ops; i++ {
			c := rng.Intn(clients)
			var w *wire.Writer
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				w, _ = hp.frame(c, opAcquire)
				flags := flag(rng.Intn(2) == 0, flagShared) | flag(rng.Intn(3) == 0, flagBlocking)
				constraint := Constraint{}
				if rng.Intn(4) == 0 {
					constraint.Class = classes[rng.Intn(len(classes))].Class
				}
				encodeConstraint(w.Int(1+rng.Intn(2)).U8(flags), constraint)
			case 3, 4:
				w, _ = hp.frame(c, opRelease)
				var ids []int
				for _, a := range hp.leader.accels {
					if a.holds(c) && rng.Intn(3) > 0 {
						ids = append(ids, a.id)
					}
				}
				if len(ids) == 0 {
					ids = []int{pickID()}
				}
				w.Ints(ids)
			case 5:
				w, _ = hp.frame(c, opRegister)
				nextID++
				encodeCapability(w.Int(nextID).Int(100+nextID), classes[rng.Intn(len(classes))])
			case 6:
				w, _ = hp.frame(c, opRetire)
				w.Int(pickID()).I64(0)
			case 7:
				w, _ = hp.frame(c, opDrain)
				w.Int(pickID()).I64(0)
			case 8:
				w, _ = hp.frame(c, opFail)
				w.Int(pickID())
			case 9:
				w, _ = hp.frame(c, opRepair)
				w.Int(pickID())
			}
			ships := hp.ships
			hp.send(c, w.Bytes())
			if hp.ships != ships+1 {
				t.Fatalf("seed %d op %d: %d ships, want one", seed, i, hp.ships-ships)
			}
			if d := hp.diff(); d != "" {
				t.Fatalf("seed %d after op %d: %s", seed, i, d)
			}
		}
	}
}

// TestFailoverReplayAfterReplyWindow: the reply cache is one FIFO window of
// dedupKeep replies per rank of the world. A client's request is recorded
// and shipped, then 63 later replies to the same client and the window's
// remaining worth to other clients follow it: its replay at the follower
// is answered with the very bytes of the original reply and grants
// nothing. One more reply evicts it on both ends.
func TestFailoverReplayAfterReplyWindow(t *testing.T) {
	const clients = 6
	inv := []Handle{{ID: 0, Rank: 100}, {ID: 1, Rank: 101}}
	hp := newHandPlane(t, clients, inv, inv, Options{})
	window := dedupKeep * (clients + 2)
	acq, id := hp.frame(0, opAcquire)
	encodeConstraint(acq.Int(1).U8(0), Constraint{})
	original := bytes.Clone(acq.Bytes())
	hp.send(0, original)
	key := minimpi.ReplyKey{Src: 0, ReqID: id}
	granted := hp.replies[key]
	if status, _, _, err := decodeReply(granted); err != nil || status != statusOK {
		t.Fatalf("acquire answered %x", granted)
	}
	renew := func(c int) { // an empty release: a reply that changes no lease
		w, _ := hp.frame(c, opRelease)
		hp.send(c, w.Ints(nil).Bytes())
	}
	for i := 0; i < dedupKeep-1; i++ {
		renew(0)
	}
	for i := 0; i < window-dedupKeep; i++ {
		renew(1 + i%(clients-1))
	}
	if d := hp.diff(); d != "" {
		t.Fatal(d)
	}
	f := hp.rp.srv
	grants := len(f.GrantLedger())
	f.handle(0, original)
	msgs := hp.tap.take()
	if len(msgs) != 1 || msgs[0].dst != 0 || !bytes.Equal(msgs[0].data, granted) {
		t.Fatalf("replay after %d later replies: follower sent %d messages, want the original reply %x", window-1, len(msgs), granted)
	}
	hp.tap.w.PutBuf(msgs[0].data)
	if len(f.GrantLedger()) != grants || !f.byID[0].holds(0) || f.byID[1].holds(0) {
		t.Error("the replay executed again at the follower")
	}
	renew(1)
	if hp.leader.replies.Lookup(key) != nil || f.replies.Lookup(key) != nil {
		t.Errorf("reply still cached after %d later replies, window %d", window, window)
	}
}

// TestFollowerOnRankZeroGetsReplies: a follower may live on world rank 0,
// and the leader ships it the replies it records like any other.
func TestFollowerOnRankZeroGetsReplies(t *testing.T) {
	w, err := minimpi.NewWorld(sim.New(), 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{w: w}
	w.SetTransport(tp)
	dir := NewDirectory(NewRing(1), []int{1}, []int{0})
	inv := []Handle{{ID: 0, Rank: 100}}
	leader, err := NewServerOpts(w.Comm(1), inv, Options{Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ReplicaFor(w.Comm(0), dir, 0, inv, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	acquire := wire.NewWriter(64).U8(opAcquire).U64(1).U64(dir.Epoch(0)).Int(1).U8(0)
	encodeConstraint(acquire, Constraint{})
	leader.handle(2, acquire.Bytes())
	for _, m := range tp.take() {
		if m.tag == TagReplicate {
			rp.apply(m.data)
		}
		w.PutBuf(m.data)
	}
	if got := rp.srv.replies.Lookup(minimpi.ReplyKey{Src: 2, ReqID: 1}); got == nil || !bytes.Equal(got, leader.replies.Lookup(minimpi.ReplyKey{Src: 2, ReqID: 1})) {
		t.Fatalf("follower on rank 0 caches %x for the grant", got)
	}
}
