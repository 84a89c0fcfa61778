package minimpi

import (
	"strings"
	"testing"

	"dynacc/internal/sim"
)

func TestTrafficCounters(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	s.Spawn("sender", func(p *sim.Proc) {
		w.Comm(0).SendSized(p, 1, 0, n)
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		w.Comm(1).Recv(p, 0, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tx := w.Traffic(0)
	rx := w.Traffic(1)
	if tx.MsgsSent != 1 || tx.BytesSent != n {
		t.Errorf("sender stats = %+v", tx)
	}
	if rx.MsgsReceived != 1 || rx.BytesReceived != n {
		t.Errorf("receiver stats = %+v", rx)
	}
	if tx.TxBusy <= 0 || rx.RxBusy <= 0 {
		t.Errorf("busy times: tx %v rx %v", tx.TxBusy, rx.RxBusy)
	}
	// Utilization over the elapsed run must be in (0, 1].
	utx, _ := tx.Utilization(sim.Duration(s.Now()))
	if utx <= 0 || utx > 1 {
		t.Errorf("tx utilization = %v", utx)
	}
	if _, rxu := rx.Utilization(0); rxu != 0 {
		t.Errorf("zero-elapsed utilization = %v", rxu)
	}
}

func TestTrafficPanicsOnBadRank(t *testing.T) {
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.Traffic(5)
}

func TestCancelAbandonsRendezvousSend(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		// Rendezvous-sized send with no receiver: would block forever.
		req := c.IsendSized(1, 0, 1<<20)
		p.Wait(10 * sim.Microsecond)
		if req.Completed() {
			t.Error("send completed with no receiver")
		}
		req.Cancel()
		if _, st := req.Wait(p); !st.Canceled { // must return now
			t.Error("Status.Canceled = false after Cancel")
		}
		// Cancel after completion is a no-op.
		done := c.IsendSized(1, 1, 16)
		p.Wait(50 * sim.Microsecond)
		done.Cancel()
		if _, st := done.Result(); st.Canceled {
			t.Error("completed eager send marked canceled")
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		// Consume only the small eager message.
		w.Comm(1).Recv(p, 0, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStrandedRendezvousSendIsReported keeps the check the per-message
// process used to give for free: a rendezvous send nobody receives and
// nobody Cancels must fail the run by name, so a forgotten Cancel on an
// abandoned send cannot pass silently.
func TestStrandedRendezvousSendIsReported(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("sender", func(p *sim.Proc) {
		w.Comm(0).IsendSized(1, 0, 8<<20)
	})
	err = s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "[mpi-send ") {
		t.Fatalf("Run = %v, want a deadlock error listing mpi-send", err)
	}
}

// TestResetEndpointMidTransfer restarts a rank while a transfer to it holds
// its NIC: the transfer must give back the units it took, not units of the
// fresh resources ResetEndpoint installed, and the endpoint must carry
// later traffic at the modelled time.
func TestResetEndpointMidTransfer(t *testing.T) {
	s := sim.New()
	params := fastNet()
	w, err := NewWorld(s, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	const big, small = 8 << 20, 1024
	var sentAt, arrivedAt sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		req := c.IsendSized(1, 0, big)
		p.Wait(500 * sim.Microsecond) // mid-payload: 8 MiB takes 8.4 ms
		w.ResetEndpoint(1)
		if _, st := req.Wait(p); st.Canceled {
			t.Error("in-flight send reported canceled")
		}
		p.Wait(sim.Millisecond)
		sentAt = p.Now()
		c.SendSized(p, 1, 1, small)
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Recv(p, 0, 0)
		c.Recv(p, 0, 1)
		arrivedAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := sentAt.Add(params.OneWayTime(small)); arrivedAt != want {
		t.Errorf("message through the reset endpoint arrived at %d, want %d", arrivedAt, want)
	}
	if tr := w.Traffic(1); tr.MsgsReceived != 2 || tr.BytesReceived != big+small {
		t.Errorf("rank 1 traffic = %+v, want both messages counted", tr)
	}
}

func TestCancelOnRecvIsNoop(t *testing.T) {
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	s.Spawn("r", func(p *sim.Proc) {
		c := w.Comm(0)
		req := c.Irecv(1, 0)
		req.Cancel() // receives cannot be canceled; must not panic
		if _, st := req.Wait(p); st.Canceled {
			t.Error("recv marked canceled")
		}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		w.Comm(1).Send(p, 0, 0, []byte("x"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostedReceivesMatchInPostOrder(t *testing.T) {
	// Two receives posted for the same (src, tag): the first posted gets
	// the first message.
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(0)
		r1 := c.Irecv(1, 0)
		r2 := c.Irecv(1, 0)
		d1, _ := r1.Wait(p)
		d2, _ := r2.Wait(p)
		if string(d1) != "first" || string(d2) != "second" {
			t.Errorf("posted-order matching broken: %q, %q", d1, d2)
		}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Send(p, 0, 0, []byte("first"))
		c.Send(p, 0, 0, []byte("second"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWildcardPostedBeforeSpecific(t *testing.T) {
	// A wildcard receive posted first captures the message even when a
	// specific receive is posted later (MPI posted-order semantics).
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(0)
		wild := c.Irecv(AnySource, AnyTag)
		spec := c.Irecv(1, 7)
		d1, st := wild.Wait(p)
		if string(d1) != "a" || st.Tag != 7 {
			t.Errorf("wildcard got %q tag %d", d1, st.Tag)
		}
		d2, _ := spec.Wait(p)
		if string(d2) != "b" {
			t.Errorf("specific got %q", d2)
		}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Send(p, 0, 7, []byte("a"))
		c.Send(p, 0, 7, []byte("b"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWireStatsCountsPostedMessages: every send variant increments the
// per-Comm wire counters at post time, with IsendPadded counting its
// inflated wire size rather than the payload length.
func TestWireStatsCountsPostedMessages(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		if ws := c.WireStats(); ws.Msgs != 0 || ws.Bytes != 0 {
			t.Errorf("fresh comm has wire stats %+v", ws)
		}
		r1 := c.Isend(1, 0, make([]byte, 100))
		r2 := c.IsendPadded(1, 0, make([]byte, 10), 64)
		r3 := c.IsendSized(1, 0, 256)
		waitAll(p, r1, r2, r3)
		ws := c.WireStats()
		if ws.Msgs != 3 {
			t.Errorf("Msgs = %d, want 3", ws.Msgs)
		}
		if ws.Bytes != 100+64+256 {
			t.Errorf("Bytes = %d, want %d (padded send must count its wire size)", ws.Bytes, 100+64+256)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < 3; i++ {
			c.Recv(p, 0, 0)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWireStatsCountsCollectiveSends: collectives go through the same
// chokepoint, so their internal sends are attributed to the calling Comm.
// A dissemination Barrier over four ranks sends once in each of its two
// rounds.
func TestWireStatsCountsCollectiveSends(t *testing.T) {
	runWorld(t, 4, fastNet(), func(p *sim.Proc, c *Comm) {
		c.Barrier(p)
		if got := c.WireStats().Msgs; got != 2 {
			t.Errorf("rank %d posted %d wire messages in Barrier, want 2", c.Rank(), got)
		}
	})
}

// TestWireStatsCountsDroppedMessages: a message the fault filter drops
// still counts — the counter answers "what did this endpoint emit", not
// "what arrived".
func TestWireStatsCountsDroppedMessages(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	w.SetLinkFilter(func(src, dst int, tag Tag, size int) LinkVerdict {
		return LinkVerdict{Drop: true}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Isend(1, 0, make([]byte, 42))
		if ws := c.WireStats(); ws.Msgs != 1 || ws.Bytes != 42 {
			t.Errorf("dropped send not counted: %+v", ws)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIsendPaddedRejectsShortSize: padding below the payload length is a
// programming error.
func TestIsendPaddedRejectsShortSize(t *testing.T) {
	s := sim.New()
	w, _ := NewWorld(s, 2, fastNet())
	defer func() {
		if recover() == nil {
			t.Error("IsendPadded with size < len(data) did not panic")
		}
	}()
	w.Comm(0).IsendPadded(1, 0, make([]byte, 10), 5)
}

// TestResetEndpointReturnsRecords restarts a rank holding a posted receive
// and an unmatched eager message: both records come home, as a rebooted
// daemon's must, instead of staying out for the rest of the world's life.
func TestResetEndpointReturnsRecords(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("main", func(p *sim.Proc) {
		reqs0, msgs0 := w.RecordsOut()
		w.Comm(1).Irecv(0, 8)
		w.Comm(0).SendCopy(1, 7, []byte("lost on reboot"))
		p.Wait(sim.Millisecond) // the message has landed, unmatched
		if reqs, msgs := w.RecordsOut(); reqs != reqs0+1 || msgs != msgs0+1 {
			t.Fatalf("before the reset RecordsOut = (%d, %d), want (%d, %d)", reqs, msgs, reqs0+1, msgs0+1)
		}
		w.ResetEndpoint(1)
		if reqs, msgs := w.RecordsOut(); reqs != reqs0 || msgs != msgs0 {
			t.Errorf("after the reset RecordsOut = (%d, %d), want (%d, %d)", reqs, msgs, reqs0, msgs0)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestKilledReceiverGivesUpItsRequestAtKill kills a process blocked in
// Recv: its request is given up at the Kill, not when the victim unwinds,
// so the records are back at their baseline right after it. A reset of the
// rank and a restarted receiver on it then recycle nothing twice: the
// counts never dip below the baseline, and the new receive gets its
// message.
func TestKilledReceiverGivesUpItsRequestAtKill(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	reqs0, msgs0 := w.RecordsOut()
	check := func(when string) {
		t.Helper()
		if reqs, msgs := w.RecordsOut(); reqs != reqs0 || msgs != msgs0 {
			t.Errorf("%s: RecordsOut = (%d, %d), want (%d, %d)", when, reqs, msgs, reqs0, msgs0)
		}
	}
	victim := s.Spawn("victim", func(p *sim.Proc) {
		w.Comm(1).Recv(p, 0, 7)
		t.Error("the victim's Recv returned")
	})
	var got string
	s.Spawn("main", func(p *sim.Proc) {
		p.Wait(sim.Millisecond) // the victim is blocked in Recv
		victim.Kill()
		check("right after the Kill")
		w.ResetEndpoint(1)
		check("after the reset")
		restarted := p.Spawn("restarted", func(p *sim.Proc) {
			data, st := w.Comm(1).Recv(p, 0, 7)
			got = string(data)
			w.PutPayload(data, st)
		})
		w.Comm(0).SendCopy(1, 7, []byte("after the restart"))
		restarted.Done().Await(p)
		check("after the restarted receive")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "after the restart" {
		t.Errorf("the restarted receiver got %q", got)
	}
	check("at the end")
}

// TestCanceledRendezvousSendReturnsItsMessage restarts a rank holding the
// envelope of an unmatched rendezvous send, then cancels the send: the
// reset ends the receiver's half of the flight and the cancel the sender's,
// so the Message comes home along with the Request.
func TestCanceledRendezvousSendReturnsItsMessage(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("main", func(p *sim.Proc) {
		reqs0, msgs0 := w.RecordsOut()
		r := w.Comm(0).IsendSized(1, 7, 64<<20)
		p.Wait(sim.Millisecond) // the envelope has landed, unmatched
		w.ResetEndpoint(1)
		r.Cancel()
		if _, st := r.Wait(p); !st.Canceled {
			t.Error("the parked send did not complete as canceled")
		}
		if reqs, msgs := w.RecordsOut(); reqs != reqs0 || msgs != msgs0 {
			t.Errorf("after the reset and the cancel RecordsOut = (%d, %d), want (%d, %d)", reqs, msgs, reqs0, msgs0)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
