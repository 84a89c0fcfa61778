package minimpi

import (
	"testing"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// TestGoldenSendSchedule pins the modelled flight of a message — send
// overhead, fault verdict, envelope latency, rendezvous clearance, the
// FIFO wait for both NICs, serialization, message gap — against virtual
// timestamps recorded before the flight became a chain of scheduled
// callbacks. One canned script on three ranks covers eager and rendezvous
// sizes, messages queueing on one sender's tx, senders contending for one
// receiver's rx, a receive posted late (the sender waits for clearance), a
// delayed message, two dropped ones and a cancelled rendezvous. Any
// reordering of the send path's events moves at least one literal below.
func TestGoldenSendSchedule(t *testing.T) {
	const (
		tagDelayed = 7
		tagDropped = 8
	)
	type flight struct {
		sendDone sim.Time // -1: the request never completed
		recvDone sim.Time // -1: no receive completed (dropped, cancelled)
	}
	want := map[string]flight{
		"A 0>1 eager 1K":           {2214, 2364},
		"B 0>1 rndv 256K":          {98533, 98683},
		"C 0>2 rndv 64K late recv": {128035, 128185},
		"D 1>2 rndv 128K":          {51891, 52041},
		"E 0>2 eager 512B delayed": {101715, 101865},
		"F 0>1 eager 2K dropped":   {1850, -1},
		"G 0>2 rndv 1M cancelled":  {60000, -1},
		"H 1>0 eager 4K":           {56348, 56498},
		"I 2>0 rndv 32K dropped":   {1850, -1},
		"J 2>1 rndv 64K":           {130768, 130918},
		"K 2>1 eager 8K":           {104448, 104598},
	}
	wantTraffic := []TrafficStats{
		{MsgsSent: 5, MsgsReceived: 1, BytesSent: 329216, BytesReceived: 4096, TxBusy: 129149, RxBusy: 4457},
		{MsgsSent: 2, MsgsReceived: 4, BytesSent: 135168, BytesReceived: 336896, TxBusy: 54098, RxBusy: 131882},
		{MsgsSent: 3, MsgsReceived: 3, BytesSent: 73728, BytesReceived: 197120, TxBusy: 32235, RxBusy: 79143},
	}
	const wantEnd sim.Time = 133768 // J's message gap runs out

	s := sim.New()
	w, err := NewWorld(s, 3, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	w.SetLinkFilter(func(src, dst int, tag Tag, size int) LinkVerdict {
		switch tag {
		case tagDelayed:
			return LinkVerdict{Delay: 5 * sim.Microsecond}
		case tagDropped:
			return LinkVerdict{Drop: true}
		}
		return LinkVerdict{}
	})
	got := map[string]*flight{}
	for name := range want {
		got[name] = &flight{-1, -1}
	}
	// sent and received stamp a request's completion instant. The stamping
	// callbacks are the test's own events: they run after the completion
	// and schedule nothing, so they move no send-path event.
	sent := func(name string, r *Request) *Request {
		r.Done().OnTrigger(func() { got[name].sendDone = s.Now() })
		return r
	}
	received := func(name string, r *Request) *Request {
		r.Done().OnTrigger(func() { got[name].recvDone = s.Now() })
		return r
	}
	const k = netmodel.KiB
	s.Spawn("rank0", func(p *sim.Proc) {
		c := w.Comm(0)
		recvH := received("H 1>0 eager 4K", c.Irecv(1, 5))
		reqs := []*Request{
			sent("A 0>1 eager 1K", c.IsendSized(1, 1, 1*k)),
			sent("B 0>1 rndv 256K", c.IsendSized(1, 2, 256*k)),
			sent("C 0>2 rndv 64K late recv", c.IsendSized(2, 3, 64*k)),
			sent("E 0>2 eager 512B delayed", c.IsendSized(2, tagDelayed, 512)),
			sent("F 0>1 eager 2K dropped", c.IsendSized(1, tagDropped, 2*k)),
		}
		abandoned := sent("G 0>2 rndv 1M cancelled", c.IsendSized(2, 9, 1024*k))
		p.Wait(60 * sim.Microsecond)
		abandoned.Cancel()
		waitAll(p, append(reqs, abandoned, recvH)...)
	})
	s.Spawn("rank1", func(p *sim.Proc) {
		c := w.Comm(1)
		reqs := []*Request{
			sent("D 1>2 rndv 128K", c.IsendSized(2, 4, 128*k)),
			received("A 0>1 eager 1K", c.Irecv(0, 1)),
			received("B 0>1 rndv 256K", c.Irecv(0, 2)),
			received("J 2>1 rndv 64K", c.Irecv(2, 6)),
			received("K 2>1 eager 8K", c.Irecv(2, 10)),
		}
		// H leaves once D is out, so it queues behind D on rank 1's tx.
		reqs[0].Wait(p)
		reqs = append(reqs[1:], sent("H 1>0 eager 4K", c.IsendSized(0, 5, 4*k)))
		waitAll(p, reqs...)
	})
	s.Spawn("rank2", func(p *sim.Proc) {
		c := w.Comm(2)
		reqs := []*Request{
			received("D 1>2 rndv 128K", c.Irecv(1, 4)),
			sent("I 2>0 rndv 32K dropped", c.IsendSized(0, tagDropped, 32*k)),
		}
		// C's envelope is long here by now: its sender waits for clearance.
		p.Wait(50 * sim.Microsecond)
		reqs = append(reqs,
			received("C 0>2 rndv 64K late recv", c.Irecv(0, 3)),
			received("E 0>2 eager 512B delayed", c.Irecv(0, tagDelayed)),
			// J and K contend with B for rank 1's rx and with each other
			// for rank 2's tx.
			sent("J 2>1 rndv 64K", c.IsendSized(1, 6, 64*k)),
			sent("K 2>1 eager 8K", c.IsendSized(1, 10, 8*k)),
		)
		waitAll(p, reqs...)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if s.Now() != wantEnd {
		t.Errorf("simulation ended at %d, want %d", s.Now(), wantEnd)
	}
	for name, f := range want {
		if *got[name] != f {
			t.Errorf("%s: sender/receiver completion at %d/%d, want %d/%d",
				name, got[name].sendDone, got[name].recvDone, f.sendDone, f.recvDone)
		}
	}
	for r, ts := range wantTraffic {
		if w.Traffic(r) != ts {
			t.Errorf("rank %d traffic %#v, want %#v", r, w.Traffic(r), ts)
		}
	}
}
