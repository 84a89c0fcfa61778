package arm

// epoch_test.go pins the fixed request header (op | reqID | epoch), the
// reply header (status | epoch) and the peer-to-peer bodies that ride on
// them (DESIGN.md §11, §12) to byte-exact golden vectors, and checks the
// epoch algebra itself: strictly monotonic per-shard epochs across
// arbitrary promotion sequences, step-down on any higher observed claim,
// and clean standby shutdown via Replica.Stop. Like golden_test.go, a
// failure in a golden vector means a protocol break: peers and clients
// must agree on the exact layout.

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// epochServer hand-builds shard 0's server of a two-shard fleet (rank 1
// of a 3-rank world; rank 0 is the client, rank 2 the peer shard),
// without running the simulation, so handle() can be driven with
// crafted byte strings.
func epochServer(t *testing.T) *Server {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(2), []int{1, 2}, nil)
	var inv []Handle
	for id := 0; id < 8; id++ {
		if dir.OwnerOf(id) == 0 {
			inv = append(inv, Handle{ID: id, Rank: 100 + id})
		}
	}
	if len(inv) == 0 {
		t.Fatal("ring assigns no accelerator to shard 0")
	}
	srv, err := NewServerOpts(w.Comm(1), inv, Options{Shard: 0, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// cachedReply is the reply srv's dedup cache holds for (client, reqID).
func cachedReply(srv *Server, client int, reqID uint64) []byte {
	return srv.replies.Lookup(minimpi.ReplyKey{Src: client, ReqID: reqID})
}

func u64hex(v uint64) string {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b)
}

// loadFrame hand-builds one gossip message: the header's epoch is the
// sender's view of the receiver's shard epoch, the body names the sender's
// shard, the epoch it claims for itself, and one row per device class.
func loadFrame(targetEpoch uint64, shard int, senderEpoch uint64, rows ...classLoad) []byte {
	w := wire.NewWriter(64).U8(opLoad).U64(0).U64(targetEpoch).Int(shard).U64(senderEpoch).Int(len(rows))
	for _, l := range rows {
		w.Str(l.class).Int(l.free).Int(l.oper)
	}
	return w.Bytes()
}

// TestGoldenEpochedRequest pins the fixed request header — every request
// is the epoched request — as a client over a sharded directory really
// emits it, captured off the wire from a 2-shard client's seventh
// request, and proves the server decodes it: op, reqID, epoch claim, body.
func TestGoldenEpochedRequest(t *testing.T) {
	srv := epochServer(t)
	// opAcquire | reqID=7 | epoch=1 | n=1 | flags=0 | any class | any kernel
	want := "01" + u64hex(7) + u64hex(1) + u64hex(1) + "00" + "00000000" + "00000000"
	emptyGrant := wire.NewWriter(8).Int(0).Bytes()
	dir := NewDirectory(NewRing(2), []int{1, 1}, nil)
	msg := captureRequestVia(t, dir, statusOK, emptyGrant, func(p *sim.Proc, c *Client) {
		c.nextReq = 6
		// Blocking, yet flagBlocking stays off the wire: with two shards
		// the client paces the wait itself.
		if _, err := c.Acquire(p, 1, true); err != nil {
			t.Errorf("acquire: %v", err)
		}
	})
	if got := hex.EncodeToString(msg); got != want {
		t.Fatalf("epoched request encoding drifted:\n got  %s\n want %s", got, want)
	}
	if !srv.handle(0, msg) {
		t.Fatal("epoched acquire refused")
	}
	if srv.Abdicated() {
		t.Error("matching epoch claim must not depose the server")
	}
	if cachedReply(srv, 0, 7) == nil {
		t.Error("epoched acquire left no dedup-cached reply")
	}
	var granted bool
	for _, e := range srv.GrantLedger() {
		if e.Kind == LedgerGrant && e.Holder == 0 && e.Epoch == 1 {
			granted = true
		}
	}
	if !granted {
		t.Errorf("no epoch-1 grant in ledger: %v", srv.GrantLedger())
	}
}

// TestEpochedRequestStepDown: a request header claiming a higher epoch
// is proof of succession — the server must abdicate on the spot while
// keeping its own epoch (the claim is advertised via epochHint, not
// adopted).
func TestEpochedRequestStepDown(t *testing.T) {
	srv := epochServer(t)
	msg := wire.NewWriter(32).U8(opStats).U64(9).U64(7).Bytes()
	if !srv.handle(0, msg) {
		t.Fatal("epoched stats refused")
	}
	if !srv.Abdicated() {
		t.Fatal("server did not step down on higher epoch claim")
	}
	if srv.Epoch() != 1 {
		t.Errorf("step-down changed own epoch to %d, want 1", srv.Epoch())
	}
	if h := srv.epochHint(); h != 7 {
		t.Errorf("epochHint after step-down = %d, want 7", h)
	}
	// An abdicated server must refuse ownership ops: no grant, no
	// cached reply (the replay must re-execute at the successor).
	free := srv.freeCountFor(&pendingAcquire{})
	acq := wire.NewWriter(40).U8(opAcquire).U64(10).U64(7).Int(1).U8(0).Str("").Str("").Bytes()
	srv.handle(0, acq)
	if srv.freeCountFor(&pendingAcquire{}) != free {
		t.Error("abdicated server granted an accelerator")
	}
	if cachedReply(srv, 0, 10) != nil {
		t.Error("fenced refusal was dedup-cached; replays must re-execute at the successor")
	}
	if len(srv.GrantLedger()) != 0 {
		t.Errorf("abdicated server wrote to the grant ledger: %v", srv.GrantLedger())
	}
}

// TestGoldenGossipEncoding pins the opLoad gossip layout: no reply tag,
// the target shard's epoch in the header, then the sender's shard, the
// sender's own epoch (the deposed-leader rebuff channel) and the per-class
// load table — one row with the empty name on an untagged fleet.
func TestGoldenGossipEncoding(t *testing.T) {
	want := "10" + u64hex(0) + u64hex(3) + u64hex(1) + u64hex(2) + u64hex(1) +
		"00000000" + u64hex(4) + u64hex(5)
	got := hex.EncodeToString(loadFrame(3, 1, 2, classLoad{free: 4, oper: 5}))
	if got != want {
		t.Fatalf("gossip encoding drifted:\n got  %s\n want %s", got, want)
	}
	// What a server emits is that layout over its own pool.
	srv := epochServer(t)
	n := len(srv.accels)
	if got, want := srv.encodeLoad(3), loadFrame(3, 0, 1, classLoad{free: n, oper: n}); string(got) != string(want) {
		t.Fatalf("server gossip:\n got  %x\n want %x", got, want)
	}

	// Round trip: a peer's gossip lands in the load table.
	msg := loadFrame(1 /* our epoch */, 1, 1, classLoad{class: "fermi", free: 1, oper: 2}, classLoad{class: "fpga", free: 3, oper: 3})
	if !srv.handle(2, msg) {
		t.Fatal("gossip refused")
	}
	if srv.Abdicated() {
		t.Error("gossip with matching epoch deposed the server")
	}
	if peer := srv.peers[1]; peer.free != 4 || peer.oper != 5 || !peer.seen || peer.classFree["fpga"] != 3 || peer.classOper["fermi"] != 2 {
		t.Errorf("gossip not recorded: %+v", peer)
	}
}

// TestGossipStepDown: gossip whose header claims a higher epoch for
// this shard — the rebuff a successor sends a deposed leader — forces
// abdication.
func TestGossipStepDown(t *testing.T) {
	srv := epochServer(t)
	srv.handle(2, loadFrame(5, 1, 5, classLoad{free: 4, oper: 5}))
	if !srv.Abdicated() {
		t.Fatal("gossip rebuff did not depose the stale leader")
	}
	if h := srv.epochHint(); h != 5 {
		t.Errorf("epochHint after rebuff = %d, want 5", h)
	}
}

// TestGoldenForwardEncoding pins the peer forward — the client's reqID
// and the target's epoch in the header, then the original client rank,
// the relayed op and its body — and proves the server executes it on the
// client's behalf.
func TestGoldenForwardEncoding(t *testing.T) {
	srv := epochServer(t)
	// opForward | reqID=21 | epoch=1 | src=0 | opAcquire | n=1 | flags=0 | any class | any kernel
	want := "0f" + u64hex(21) + u64hex(1) + u64hex(0) + "01" + u64hex(1) + "00" + "00000000" + "00000000"
	msg := wire.NewWriter(64).
		U8(opForward).U64(21).U64(1).Int(0).
		U8(opAcquire).Int(1).U8(0).Str("").Str("").
		Bytes()
	if got := hex.EncodeToString(msg); got != want {
		t.Fatalf("forward encoding drifted:\n got  %s\n want %s", got, want)
	}
	if !srv.handle(2, msg) { // relayed by peer rank 2
		t.Fatal("forwarded acquire refused")
	}
	if cachedReply(srv, 0, 21) == nil {
		t.Error("forwarded acquire cached no reply for the original client")
	}
}

// TestGoldenRecallEncoding pins the recall query layout — the asking
// shard's reply tag and its epoch claim in the header, then the client
// and reqID being recalled — and checks both the benign (cache miss) and
// deposing (higher claim) paths.
func TestGoldenRecallEncoding(t *testing.T) {
	want := "11" + u64hex(77) + u64hex(1) + u64hex(0) + u64hex(21)
	msg := wire.NewWriter(64).
		U8(opRecall).U64(77).U64(1).Int(0).U64(21).
		Bytes()
	if got := hex.EncodeToString(msg); got != want {
		t.Fatalf("recall encoding drifted:\n got  %s\n want %s", got, want)
	}
	srv := epochServer(t)
	srv.handle(2, msg)
	if srv.Abdicated() {
		t.Error("recall with matching epoch deposed the server")
	}
	srv.handle(2, wire.NewWriter(64).U8(opRecall).U64(78).U64(6).Int(0).U64(21).Bytes())
	if !srv.Abdicated() {
		t.Error("recall claiming epoch 6 did not depose the server")
	}
}

// TestGoldenReplyEpochTrailer pins the reply: status byte, the server's
// epoch hint, then the body to the end of the message (the hint was a
// trailer behind a length-prefixed body once; the name stays). After
// observing a higher epoch the hint must advertise the successor's epoch,
// steering clients to refresh.
func TestGoldenReplyEpochTrailer(t *testing.T) {
	srv := epochServer(t)
	srv.reply(0, 42, statusOK, []byte{0xab})
	want := "00" + u64hex(1) + "ab"
	if got := hex.EncodeToString(cachedReply(srv, 0, 42)); got != want {
		t.Fatalf("reply encoding drifted:\n got  %s\n want %s", got, want)
	}
	srv.observeEpoch(6)
	srv.reply(0, 43, statusOK, nil)
	want = "00" + u64hex(6)
	if got := hex.EncodeToString(cachedReply(srv, 0, 43)); got != want {
		t.Fatalf("post-deposition reply drifted:\n got  %s\n want %s", got, want)
	}
	if status, epoch, body, err := decodeReply(cachedReply(srv, 0, 42)); err != nil || status != statusOK || epoch != 1 || len(body) != 1 {
		t.Errorf("decodeReply = %d, %d, % x, %v", status, epoch, body, err)
	}
}

// TestDirectoryEpochMonotonicQuick drives a directory through arbitrary
// promotion sequences over a random shard fleet: every successful
// promotion bumps exactly its shard's epoch by one, shards without a
// follower never change, and no read ever observes a decrease.
func TestDirectoryEpochMonotonicQuick(t *testing.T) {
	prop := func(ops []uint8, shardSeed uint8) bool {
		shards := int(shardSeed%5) + 1
		leaders := make([]int, shards)
		followers := make([]int, shards)
		for sh := 0; sh < shards; sh++ {
			leaders[sh] = sh
			followers[sh] = shards + sh
			if sh%2 == 1 {
				followers[sh] = -1 // odd shards are unreplicated
			}
		}
		dir := NewDirectory(NewRing(shards), leaders, followers)
		last := make([]uint64, shards)
		for sh := range last {
			if dir.Epoch(sh) != 1 {
				return false // epochs must start at 1
			}
			last[sh] = 1
		}
		for _, op := range ops {
			sh := int(op) % shards
			before := dir.Epoch(sh)
			ok := dir.Promote(sh)
			after := dir.Epoch(sh)
			if ok && after != before+1 {
				return false
			}
			if !ok && (after != before || followers[sh] >= 0) {
				return false
			}
			for s2 := 0; s2 < shards; s2++ {
				e := dir.Epoch(s2)
				if e < last[s2] {
					return false
				}
				if s2 != sh && e != last[s2] {
					return false
				}
				last[s2] = e
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReplicaStop: stopping a standby before its leader goes silent must
// prevent promotion entirely — no epoch bump, no directory flip — and
// let the simulation wind down cleanly (the satellite replacing
// kill-the-process-by-hand teardown).
func TestReplicaStop(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(1), []int{1}, []int{2})
	inv := []Handle{{ID: 0, Rank: 100}}
	opts := Options{Shard: 0, Directory: dir}
	rp, err := ReplicaFor(w.Comm(2), dir, 0, inv, opts, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("replica", rp.Run)
	s.Spawn("stopper", func(p *sim.Proc) {
		p.Wait(5 * sim.Millisecond) // before the 10 ms silence threshold
		rp.Stop()
		rp.Stop() // idempotent
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rp.Promoted() {
		t.Error("stopped standby promoted anyway")
	}
	if dir.Promoted(0) || dir.Epoch(0) != 1 {
		t.Errorf("stopped standby touched the directory: promoted=%v epoch=%d",
			dir.Promoted(0), dir.Epoch(0))
	}
	if !rp.Server().Closed() {
		t.Error("Stop did not close the embedded server")
	}
	if s.Now() != sim.Time(5*sim.Millisecond) {
		t.Errorf("run ended at %v, want the stop at 5ms: Stop left the stream's deadline behind", sim.Duration(s.Now()))
	}
}

// TestReplicaStopAfterPromotion: Stop must be a no-op once the replica
// serves — a promoted server is shut down through the normal path, not
// yanked at teardown.
func TestReplicaStopAfterPromotion(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(1), []int{1}, []int{2})
	inv := []Handle{{ID: 0, Rank: 100}}
	opts := Options{Shard: 0, Directory: dir}
	rp, err := ReplicaFor(w.Comm(2), dir, 0, inv, opts, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("replica", rp.Run)
	s.Spawn("ctl", func(p *sim.Proc) {
		for !rp.Promoted() {
			p.Wait(sim.Millisecond)
		}
		rp.Stop()
		if rp.Server().Closed() {
			t.Error("Stop killed a promoted, serving server")
		}
		if dir.Epoch(0) != 2 {
			t.Errorf("promotion epoch = %d, want 2", dir.Epoch(0))
		}
		rp.Server().Kill() // actual teardown
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !rp.Promoted() {
		t.Fatal("replica never promoted")
	}
}
