package nettrans

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// node is one test process: its own simulation, World and Transport,
// driven by RunRealtime on a background goroutine.
type node struct {
	t    *testing.T
	s    *sim.Simulation
	w    *minimpi.World
	tr   *Transport
	stop chan struct{}
	done chan error
}

// listeners binds n loopback listeners and returns them with the matching
// topology, assigning one rank per proc unless ranksOf is given.
func listeners(t *testing.T, n int, ranksOf func(i int) []int) ([]net.Listener, []ProcSpec) {
	t.Helper()
	lns := make([]net.Listener, n)
	procs := make([]ProcSpec, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		ranks := []int{i}
		if ranksOf != nil {
			ranks = ranksOf(i)
		}
		procs[i] = ProcSpec{Addr: ln.Addr().String(), Ranks: ranks}
	}
	return lns, procs
}

// startNode builds one process of the topology and starts its realtime
// loop. worldSize is the total rank count across all procs.
func startNode(t *testing.T, worldSize, procID int, procs []ProcSpec, ln net.Listener, mod func(*Config)) *node {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, worldSize, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	cfg := Config{
		World:       w,
		ProcID:      procID,
		Procs:       procs,
		Listener:    ln,
		Token:       "test-token",
		DialBackoff: 5 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("nettrans.New(proc %d): %v", procID, err)
	}
	w.SetTransport(tr)
	n := &node{t: t, s: s, w: w, tr: tr, stop: make(chan struct{}), done: make(chan error, 1)}
	go func() { n.done <- s.RunRealtime(n.stop) }()
	return n
}

// halt stops the realtime loop and closes the transport.
func (n *node) halt() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	if err := <-n.done; err != nil {
		n.t.Errorf("RunRealtime: %v", err)
	}
	n.tr.Close()
}

// run spawns fn as a process on the node and returns a channel that yields
// once fn finishes.
func (n *node) run(name string, fn func(p *sim.Proc)) chan struct{} {
	ch := make(chan struct{})
	n.s.Inject(func() {
		n.s.Spawn(name, func(p *sim.Proc) {
			defer close(ch)
			fn(p)
		})
	})
	return ch
}

// statsWhen polls the transport's counters until ok accepts them or a
// second has passed, and returns the last reading. Transport goroutines
// bump a counter just after the I/O it counts, and the peer's reaction to
// that I/O can reach the test first.
func statsWhen(tr *Transport, ok func(minimpi.TransportStats) bool) minimpi.TransportStats {
	st := tr.Stats()
	for deadline := time.Now().Add(time.Second); !ok(st) && time.Now().Before(deadline); st = tr.Stats() {
		time.Sleep(time.Millisecond)
	}
	return st
}

func wait(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestPingPongAcrossProcesses sends a tagged payload from rank 0 (proc 0)
// to rank 1 (proc 1) and back, across real loopback sockets.
func TestPingPongAcrossProcesses(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	bDone := b.run("pong", func(p *sim.Proc) {
		c := b.w.Comm(1)
		data, st := c.Recv(p, 0, 7)
		if string(data) != "ping" || st.Source != 0 || st.Tag != 7 || st.Size != 4 {
			t.Errorf("pong got %q status %+v", data, st)
		}
		c.Send(p, 0, 8, []byte("pong"))
	})
	aDone := a.run("ping", func(p *sim.Proc) {
		c := a.w.Comm(0)
		c.Send(p, 1, 7, []byte("ping"))
		data, st := c.Recv(p, 1, 8)
		if string(data) != "pong" || st.Source != 1 || st.Tag != 8 {
			t.Errorf("ping got %q status %+v", data, st)
		}
	})
	wait(t, aDone, "ping side")
	wait(t, bDone, "pong side")

	st := statsWhen(a.tr, func(st minimpi.TransportStats) bool { return st.FramesSent > 0 })
	if st.FramesSent == 0 || st.FramesReceived == 0 {
		t.Errorf("proc 0 stats show no traffic: %+v", st)
	}
	if st.HandshakeFailures != 0 {
		t.Errorf("unexpected handshake failures: %+v", st)
	}
}

// TestSizedAndLocalDelivery checks that metadata-only (sized) sends cross
// the wire as empty-payload frames, and that same-process ranks still use
// the in-sim path (no frames).
func TestSizedAndLocalDelivery(t *testing.T) {
	// One proc hosts ranks 0 and 1; the other hosts rank 2.
	lns, procs := listeners(t, 2, func(i int) []int {
		if i == 0 {
			return []int{0, 1}
		}
		return []int{2}
	})
	a := startNode(t, 3, 0, procs, lns[0], nil)
	b := startNode(t, 3, 1, procs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	bDone := b.run("recv-sized", func(p *sim.Proc) {
		c := b.w.Comm(2)
		data, st := c.Recv(p, 0, 3)
		if data != nil || st.Size != 1<<20 {
			t.Errorf("sized recv got %d bytes payload, status %+v", len(data), st)
		}
	})
	aDone := a.run("local-and-remote", func(p *sim.Proc) {
		c0 := a.w.Comm(0)
		// Local hop, rank 0 -> rank 1 inside proc 0: pure sim path.
		r := c0.Isend(1, 5, []byte("local"))
		c1 := a.w.Comm(1)
		data, _ := c1.Recv(p, 0, 5)
		if string(data) != "local" {
			t.Errorf("local recv got %q", data)
		}
		r.Wait(p)
		// Remote sized send, rank 0 -> rank 2.
		c0.SendSized(p, 2, 3, 1<<20)
	})
	wait(t, aDone, "sender")
	wait(t, bDone, "sized receiver")

	st := statsWhen(a.tr, func(st minimpi.TransportStats) bool { return st.FramesSent > 0 })
	if st.FramesSent != 1 {
		t.Errorf("want exactly 1 frame (local hop must not hit the wire), got %+v", st)
	}
	if st.BytesSent >= 1<<20 {
		t.Errorf("sized send shipped its padding: %+v", st)
	}
}

// TestCollectivesAcrossProcesses runs a barrier, broadcast and allreduce
// over four single-rank processes — negative collective tags must survive
// the frame codec.
func TestCollectivesAcrossProcesses(t *testing.T) {
	const n = 4
	lns, procs := listeners(t, n, nil)
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = startNode(t, n, i, procs, lns[i], nil)
		defer nodes[i].halt()
	}
	chans := make([]chan struct{}, n)
	for i := range nodes {
		i := i
		nd := nodes[i]
		chans[i] = nd.run("coll", func(p *sim.Proc) {
			c := nd.w.Comm(i)
			c.Barrier(p)
			var buf []byte
			if i == 2 {
				buf = []byte{10}
			}
			data := c.Bcast(p, 2, buf)
			if len(data) != 1 || data[0] != 10 {
				t.Errorf("rank %d Bcast got %v", i, data)
			}
			sum := 0
			for _, part := range c.Allgather(p, []byte{byte(i + 1)}) {
				sum += int(part[0])
			}
			if sum != 10 {
				t.Errorf("rank %d Allgather sums to %d, want 10", i, sum)
			}
		})
	}
	for _, ch := range chans {
		wait(t, ch, "collective rank")
	}
}

// TestReconnectAfterKill kills the accept-side process mid-conversation,
// restarts it on the same address with a fresh World, and checks what the
// outbox owes a dead connection: a small message sent during the outage
// and a large payload whose write the kill interrupts half-way must both
// be delivered, intact, after the dialer reconnects. The small send is
// eager and completes during the outage; the large one is rendezvous —
// written from the sender's buffer — and completes only once the restarted
// peer has been written it whole. For the interrupted write the test
// itself plays proc 1 for one connection — handshake, read a little of
// the frame, reset — so the kill provably lands mid-payload and the frame
// is resent whole from the outbox.
func TestReconnectAfterKill(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	defer a.halt()
	b := startNode(t, 2, 1, procs, lns[1], nil)

	// Round 1: prove the link works.
	bDone := b.run("recv1", func(p *sim.Proc) {
		b.w.Comm(1).Recv(p, 0, 1)
	})
	aDone := a.run("send1", func(p *sim.Proc) {
		a.w.Comm(0).Send(p, 1, 1, []byte("one"))
	})
	wait(t, aDone, "first send")
	wait(t, bDone, "first recv")

	// Kill proc 1: realtime loop stopped, transport (and listener) closed.
	b.halt()

	// Wait for the dialer to observe the broken connection. A frame
	// written into the kernel buffer of a conn that just died can be lost
	// — transport delivery is at-most-once, like the sim path under fault
	// injection; the core client's timeout/retry layer owns that case.
	// Once the outage is visible, sends must queue and survive it.
	pr := a.tr.peers[1]
	for deadline := time.Now().Add(5 * time.Second); ; {
		pr.mu.Lock()
		down := pr.conn == nil
		pr.mu.Unlock()
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dialer never noticed the outage")
		}
		time.Sleep(time.Millisecond)
	}

	// Send into the outage: the frames must queue, not vanish. The large
	// one exceeds what loopback socket buffers absorb (a few MiB), so its
	// write cannot complete against a peer that stops reading.
	big := make([]byte, 16<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	aDone = a.run("send2", func(p *sim.Proc) {
		a.w.Comm(0).Send(p, 1, 2, []byte("two"))
	})
	wait(t, aDone, "eager send during outage (local completion)")
	bigDone := a.run("send3", func(p *sim.Proc) {
		a.w.Comm(0).Send(p, 1, 3, big)
	})

	// A dying proc 1: accept the redial, shake hands, take "two" and the
	// first 64 KiB of the large frame, then reset the connection.
	ln, err := net.Listen("tcp", procs[1].Addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", procs[1].Addr, err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept redial: %v", err)
	}
	if _, err := readFrame(conn, maxHandshakeFrame); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	w := wire.NewWriter(32)
	appendWelcome(w, welcome{ok: true, version: ProtocolVersion})
	if _, err := conn.Write(w.Bytes()); err != nil {
		t.Fatalf("write welcome: %v", err)
	}
	if _, err := io.ReadFull(conn, make([]byte, frameHeaderSize+3+64<<10)); err != nil {
		t.Fatalf("read the head of the stream: %v", err)
	}
	conn.Close() // unread bytes pending: the kernel answers with a reset
	select {
	case <-bigDone:
		t.Fatal("the rendezvous send completed though no connection took its frame whole")
	case <-time.After(20 * time.Millisecond):
	}

	// Restart proc 1 for real on the same listener with a fresh World.
	// "two" was written in full to the connection that died — the
	// at-most-once case above — so only the interrupted frame is owed.
	b2 := startNode(t, 2, 1, procs, ln, nil)
	defer b2.halt()

	b2Done := b2.run("recv2", func(p *sim.Proc) {
		data, st := b2.w.Comm(1).Recv(p, 0, 3)
		if !bytes.Equal(data, big) || st.Tag != 3 {
			t.Errorf("post-restart recv got %d bytes %+v, differing from what was sent", len(data), st)
		}
	})
	wait(t, b2Done, "delivery after reconnect")
	wait(t, bigDone, "rendezvous send completion once written")

	st := a.tr.Stats()
	if st.FramesResent < 1 {
		t.Errorf("want the interrupted frame resent, got %+v", st)
	}
	if st.Reconnects < 2 {
		t.Errorf("want two reconnects (the dying proc, the restarted one), got %+v", st)
	}
	if st.Dials < 3 {
		t.Errorf("want redials, got %+v", st)
	}
}

// TestHandshakeVersionMismatch checks that mismatched protocol versions
// — a binary of the previous revision dialling a current one, whose
// daemon frames it would misparse — produce the typed refusal on the dialer and
// count on both sides.
func TestHandshakeVersionMismatch(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], func(c *Config) { c.Version = ProtocolVersion - 1 })
	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	err := a.tr.WaitReady(5 * time.Second)
	if err == nil {
		t.Fatal("WaitReady succeeded across a version mismatch")
	}
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("error does not wrap ErrHandshake: %v", err)
	}
	var vm *VersionMismatchError
	if !errors.As(err, &vm) {
		t.Fatalf("error is not a VersionMismatchError: %v", err)
	}
	if vm.Mine != ProtocolVersion-1 || vm.Theirs != ProtocolVersion {
		t.Errorf("mismatch detail = %+v, want mine=%d theirs=%d", vm, ProtocolVersion-1, ProtocolVersion)
	}
	if a.tr.Stats().HandshakeFailures == 0 {
		t.Error("dialer did not count the handshake failure")
	}
	if statsWhen(b.tr, func(st minimpi.TransportStats) bool { return st.HandshakeFailures > 0 }).HandshakeFailures == 0 {
		t.Error("acceptor did not count the handshake failure")
	}
}

// TestHandshakeBadToken checks token enforcement.
func TestHandshakeBadToken(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], func(c *Config) { c.Token = "alpha" })
	b := startNode(t, 2, 1, procs, lns[1], func(c *Config) { c.Token = "beta" })
	defer a.halt()
	defer b.halt()

	err := a.tr.WaitReady(5 * time.Second)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("want ErrHandshake, got %v", err)
	}
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("error is not a HandshakeError: %v", err)
	}
}

// TestHandshakeRankClaimMismatch checks that a topology disagreement (the
// dialer claims ranks the acceptor's topology does not assign to it) is
// refused.
func TestHandshakeRankClaimMismatch(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	// Proc 0's own topology claims rank 1 as well — proc 1 will refuse.
	badProcs := []ProcSpec{{Addr: procs[0].Addr, Ranks: []int{0, 1}}, {Addr: procs[1].Addr, Ranks: []int{2}}}
	a := startNode(t, 3, 0, badProcs, lns[0], nil)
	goodProcs := []ProcSpec{{Addr: procs[0].Addr, Ranks: []int{0}}, {Addr: procs[1].Addr, Ranks: []int{1, 2}}}
	b := startNode(t, 3, 1, goodProcs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	err := a.tr.WaitReady(5 * time.Second)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("want ErrHandshake for rank-claim mismatch, got %v", err)
	}
}

// TestConfigValidation exercises topology validation in New.
func TestConfigValidation(t *testing.T) {
	s := sim.New()
	w, _ := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	cases := []struct {
		name  string
		procs []ProcSpec
	}{
		{"unassigned rank", []ProcSpec{{Addr: "x", Ranks: []int{0}}, {Addr: "y", Ranks: []int{}}}},
		{"duplicate rank", []ProcSpec{{Addr: "x", Ranks: []int{0, 1}}, {Addr: "y", Ranks: []int{1}}}},
		{"out of range", []ProcSpec{{Addr: "x", Ranks: []int{0}}, {Addr: "y", Ranks: []int{5}}}},
	}
	for _, tc := range cases {
		if _, err := New(Config{World: w, ProcID: 0, Procs: tc.procs}); err == nil {
			t.Errorf("%s: New accepted a bad topology", tc.name)
		}
	}
}

// TestOwnedBufferReturnsToPool checks the pool round trip on both ends of
// a socket hop. Sender: an IsendOwned buffer is taken over by the outbox
// and comes back to the payload pool once written. Receiver: the
// payload lands in a buffer from the payload pool, its status says
// so, and World.PutPayload puts exactly that buffer back.
func TestOwnedBufferReturnsToPool(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	const n = 4096
	bDone := b.run("recv-owned", func(p *sim.Proc) {
		c := b.w.Comm(1)
		for i := 0; i < 2; i++ {
			data, st := c.Recv(p, 0, 9)
			if want := bytes.Repeat([]byte{byte('A' + i)}, n); !bytes.Equal(data, want) || !st.Pooled {
				t.Errorf("owned payload %d corrupted or not pooled: got %d bytes starting %q, %+v", i, len(data), data[:1], st)
			}
			b.w.PutPayload(data, st)
			if again := b.w.GetBuf(n); &again[0] != &data[0] {
				t.Errorf("payload %d: PutPayload did not return the reader's buffer to the pool", i)
			} else {
				b.w.PutBuf(again)
			}
		}
	})
	buf := a.w.GetBuf(n)
	aDone := a.run("send-owned", func(p *sim.Proc) {
		c := a.w.Comm(0)
		for i := 0; i < 2; i++ {
			for j := range buf {
				buf[j] = byte('A' + i)
			}
			c.IsendOwned(1, 9, buf).Wait(p)
			// The writer goroutine returns buf once it is on the wire; the
			// second round reuses it from the pool.
			if !pooledAgain(a.w, buf, 5*time.Second) {
				t.Errorf("owned send buffer %d did not return to the pool after the write", i)
				return
			}
		}
	})
	wait(t, aDone, "owned sender")
	wait(t, bDone, "owned receiver")
}

// TestCloseRightAfterNew is the regression test for a Close that never
// returned: a dial whose handshake completed after Close had swept the
// peers installed its connection anyway, nobody closed it, and Close
// waited forever on the reader parked on it. Closing a dialer the moment
// New returns, against an acceptor that stays up, lands in that window.
func TestCloseRightAfterNew(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer b.halt()
	lns[0].Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			w, err := minimpi.NewWorld(sim.New(), 2, netmodel.QDRInfiniBand())
			if err != nil {
				t.Error(err)
				return
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Error(err)
				return
			}
			tr, err := New(Config{World: w, ProcID: 0, Procs: procs, Listener: ln, Token: "test-token"})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				runtime.Gosched() // vary where in the dial Close lands
			}
			tr.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("New->Close loop hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
}
