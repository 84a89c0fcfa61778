package nettrans

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// pooledAgain polls the payload pool until a GetBuf of buf's size hands buf
// itself back, i.e. until whoever held it returned it. Misses allocate a
// throwaway buffer; the pool's bucket for this size must otherwise be idle.
func pooledAgain(w *minimpi.World, buf []byte, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got := w.GetBuf(len(buf)); &got[0] == &buf[0] {
			return true
		}
	}
	return false
}

// TestFrameCopyOutlivesEncoderReset pins who owns a payload between Deliver
// and the wire. A borrowed payload (Isend) below the eager threshold is the
// caller's again the moment the send completes locally, so the outbox must
// hold its own copy: the caller scribbles over it right away and the
// original bytes still arrive.
// An owned payload (IsendOwned) is taken over without a copy and returns
// to the payload pool exactly once, and only after the writer has put it on
// the wire. A borrowed payload of length zero has nothing to copy, and
// whatever capacity its slice has stays the caller's: it must arrive as an
// empty payload (not a sized send) and never show up in the pool. The
// peer's listener is bound but not served at first, so the frames provably
// sit in the outbox while the first half is checked.
func TestFrameCopyOutlivesEncoderReset(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	defer a.halt()

	const borrowedLen, ownedLen = 3000, 4096
	owned := a.w.GetBuf(ownedLen)
	for i := range owned {
		owned[i] = 'O'
	}
	empty := make([]byte, 2*ownedLen) // a pool class of its own
	done := a.run("enqueue", func(p *sim.Proc) {
		c := a.w.Comm(0)
		scratch := bytes.Repeat([]byte{'B'}, borrowedLen)
		// Remote sends complete locally at Deliver time, so Wait returns
		// with no peer — and the caller is then free to clobber scratch.
		c.Isend(1, 1, scratch).Wait(p)
		for i := range scratch {
			scratch[i] = 'X'
		}
		c.IsendOwned(1, 2, owned).Wait(p)
		c.Isend(1, 3, empty[:0]).Wait(p)
	})
	wait(t, done, "enqueue with the peer down")

	if n := a.tr.peers[1].queued(); n != 3 {
		t.Fatalf("outbox holds %d frames, want 3", n)
	}
	if pooledAgain(a.w, owned, 20*time.Millisecond) {
		t.Fatal("owned payload returned to the pool while its frame was still queued")
	}

	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer b.halt()
	bDone := b.run("recv", func(p *sim.Proc) {
		c := b.w.Comm(1)
		if data, _ := c.Recv(p, 0, 1); !bytes.Equal(data, bytes.Repeat([]byte{'B'}, borrowedLen)) {
			t.Errorf("borrowed payload (%d bytes) arrived modified", len(data))
		}
		data, st := c.Recv(p, 0, 2)
		if !bytes.Equal(data, bytes.Repeat([]byte{'O'}, ownedLen)) {
			t.Errorf("owned payload (%d bytes) arrived modified", len(data))
		}
		// The reader's buffer goes back to the pool too: where both nodes
		// draw on one pool, the reader may have taken the sender's buffer
		// the moment the writer returned it.
		b.w.PutPayload(data, st)
		if data, st := c.Recv(p, 0, 3); data == nil || len(data) != 0 || st.Size != 0 {
			t.Errorf("empty payload arrived as %v (nil: %v), status %+v", data, data == nil, st)
		}
	})
	wait(t, bDone, "delivery once the peer is up")

	if !pooledAgain(a.w, owned, 5*time.Second) {
		t.Fatal("owned payload never returned to the pool after the write")
	}
	if pooledAgain(a.w, owned, 20*time.Millisecond) {
		t.Fatal("owned payload was returned to the pool twice")
	}
	if pooledAgain(a.w, empty, 20*time.Millisecond) {
		t.Fatal("the caller's buffer behind an empty borrowed payload ended up in the pool")
	}
}

// TestEncodeEnqueueSteadyStateAllocs bounds the allocation cost of the
// socket send path at steady state: header into the inline array, one copy
// of a borrowed payload into a world-pool buffer, buffer back to the pool
// after the write. Nothing there may allocate once the pool is warm.
func TestEncodeEnqueueSteadyStateAllocs(t *testing.T) {
	w, err := minimpi.NewWorld(sim.New(), 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	env := minimpi.Envelope{Src: 0, Dst: 1, Ctx: 2, Tag: 42, Size: 4096}
	payload := make([]byte, 4096)
	frame := func() {
		var f outFrame
		putMsgHeader(&f.hdr, env, payload)
		f.payload = w.GetBuf(len(payload))
		copy(f.payload, payload)
		w.PutBuf(f.payload)
	}
	frame() // warm the pool
	if allocs := testing.AllocsPerRun(100, frame); allocs > 0 {
		t.Errorf("encode+enqueue allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestWarmRoundTripAllocatesNoPayloadBuffer pins the steady state of the
// whole socket hop: once the pools are warm, a 1 MiB payload going out
// borrowed (one copy into a pool buffer), coming in through the reader
// (pool buffer), being forwarded back owned (no copy) and returned to the
// pool by the final receiver allocates no payload-sized buffer on either
// side.
func TestWarmRoundTripAllocatesNoPayloadBuffer(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer a.halt()
	defer b.halt()

	const size, warm, rounds = 1 << 20, 3, 20
	bDone := b.run("echo", func(p *sim.Proc) {
		c := b.w.Comm(1)
		for i := 0; i < warm+rounds; i++ {
			data, _ := c.Recv(p, 0, 1)
			c.IsendOwned(0, 2, data).Wait(p) // hand the reader's buffer on
		}
	})
	var grew uint64
	aDone := a.run("ping", func(p *sim.Proc) {
		c := a.w.Comm(0)
		src := bytes.Repeat([]byte{0x5A}, size)
		var before, after runtime.MemStats
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			c.Isend(1, 1, src).Wait(p)
			data, st := c.Recv(p, 1, 2)
			if !bytes.Equal(data, src) {
				t.Errorf("round %d: echo differs from what was sent", i)
			}
			a.w.PutPayload(data, st)
		}
		runtime.ReadMemStats(&after)
		grew = after.TotalAlloc - before.TotalAlloc
	})
	wait(t, aDone, "ping side")
	wait(t, bDone, "echo side")
	// Each side's pool settles at one or two buffers (the writer may still
	// hold the last payload sent when the next one arrives), so a side may
	// allocate its second buffer late; anything per round trip would show
	// as rounds MiB or more.
	if grew >= 3*size {
		t.Errorf("%d warmed 1 MiB round trips allocated %d bytes: payload-sized buffers are being allocated", rounds, grew)
	}
}

// TestCancelQueuedRendezvousFrame: a rendezvous send still in the outbox —
// the peer is not up yet — is taken back by Cancel. The send completes as
// canceled, its frame leaves the outbox and never reaches the peer, and a
// send queued behind it still arrives.
func TestCancelQueuedRendezvousFrame(t *testing.T) {
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	defer a.halt()

	big := bytes.Repeat([]byte{'R'}, 64<<10)
	done := a.run("cancel", func(p *sim.Proc) {
		c := a.w.Comm(0)
		r := c.Isend(1, 1, big)
		if r.Completed() {
			t.Error("a rendezvous send completed before any connection took it")
		}
		r.Cancel()
		if _, st := r.Wait(p); !st.Canceled {
			t.Error("the canceled send did not complete as canceled")
		}
		c.Isend(1, 2, []byte("after")).Free()
	})
	wait(t, done, "cancel with the peer down")
	if n := a.tr.peers[1].queued(); n != 1 {
		t.Fatalf("outbox holds %d frames after the cancel, want 1", n)
	}

	b := startNode(t, 2, 1, procs, lns[1], nil)
	defer b.halt()
	bDone := b.run("recv", func(p *sim.Proc) {
		c := b.w.Comm(1)
		if data, _ := c.Recv(p, 0, 2); string(data) != "after" {
			t.Errorf("the send behind the canceled one arrived as %q", data)
		}
		// Per-pair FIFO: had it been written, the canceled frame would be here.
		if _, ok := c.Iprobe(0, 1); ok {
			t.Error("the canceled frame reached the peer")
		}
	})
	wait(t, bDone, "the send queued behind the canceled one")
	// The writer counts a frame after the write returned: give it the moment.
	for deadline := time.Now().Add(time.Second); a.tr.Stats().FramesSent < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if st := a.tr.Stats(); st.FramesSent != 1 {
		t.Errorf("%d frames written, want 1 (the canceled one must not be)", st.FramesSent)
	}
}

// TestRendezvousCompletionAllocs pins the steady state of a rendezvous
// send: queued by reference, written from the sender's buffer, completed
// through the peer's one bound inject. Against a peer that only reads, the
// sending process allocates nothing per frame once warm.
func TestRendezvousCompletionAllocs(t *testing.T) {
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	lns, procs := listeners(t, 2, nil)
	a := startNode(t, 2, 0, procs, lns[0], nil)
	defer a.halt()
	go func() { // proc 1: shake hands, then discard the stream
		conn, err := lns[1].Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn, maxHandshakeFrame); err != nil {
			return
		}
		w := wire.NewWriter(32)
		appendWelcome(w, welcome{ok: true, version: ProtocolVersion})
		if _, err := conn.Write(w.Bytes()); err == nil {
			io.Copy(io.Discard, conn)
		}
	}()

	const warm, frames = 50, 400
	payload := make([]byte, 64<<10)
	var perFrame float64
	done := a.run("send", func(p *sim.Proc) {
		c := a.w.Comm(0)
		for i := 0; i < warm; i++ {
			c.Send(p, 1, 1, payload)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			c.Send(p, 1, 1, payload)
		}
		runtime.ReadMemStats(&after)
		perFrame = float64(after.Mallocs-before.Mallocs) / frames
	})
	wait(t, done, "rendezvous sends")
	if perFrame > 0.05 {
		t.Errorf("%.2f allocations per warm rendezvous frame, want 0", perFrame)
	}
	t.Logf("allocations per warm rendezvous frame: %.3f", perFrame)
}
