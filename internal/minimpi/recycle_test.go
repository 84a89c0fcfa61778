package minimpi

import (
	"testing"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// These tests pin the ownership rule of the recycled records (pool.go): who
// gives a Request or a Message back to its World, and at which leg of the
// flight. They read a record's reset state: a recycled Request or Message
// no longer names its World.

// setPoison runs the test with the chaos guard forced on or off, whatever
// DYNACC_POISON says: under the guard nothing ever reaches a free list.
func setPoison(t *testing.T, on bool) {
	t.Helper()
	old := poisonFreed
	poisonFreed = on
	t.Cleanup(func() { poisonFreed = old })
}

// spyTransport remembers the message of every send on its way to the sim
// backend.
type spyTransport struct {
	Transport
	msgs []*Message
}

func (sp *spyTransport) Deliver(m *Message) {
	sp.msgs = append(sp.msgs, m)
	sp.Transport.Deliver(m)
}

func recycleWorld(t *testing.T) (*sim.Simulation, *World, *spyTransport) {
	t.Helper()
	s := sim.New()
	w, err := NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	sp := &spyTransport{Transport: w.SimTransport()}
	w.SetTransport(sp)
	return s, w, sp
}

// onFreeList reports whether r has been given back to its World and not
// handed out since.
func onFreeList(r *Request) bool { return r != nil && r.world == nil }

// stepUntil steps the simulation to its end and returns the virtual time of
// the first step after which cond held, or -1.
func stepUntil(t *testing.T, s *sim.Simulation, cond func() bool) sim.Time {
	t.Helper()
	at := sim.Time(-1)
	for {
		ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return at
		}
		if at < 0 && cond() {
			at = s.Now()
		}
	}
}

// TestFreedRequestIsHandedOutNext: the Wait that sees a request complete
// recycles the record at once, so it is the next one handed out; Free on a
// receive nothing has matched withdraws it and recycles it at once too, and
// the message it would have matched lands unexpected.
func TestFreedRequestIsHandedOutNext(t *testing.T) {
	setPoison(t, false)
	s, w, _ := recycleWorld(t)
	s.Spawn("rank0", func(p *sim.Proc) {
		c := w.Comm(0)
		r := c.Isend(1, 0, []byte("x"))
		r.Wait(p)
		posted := c.Irecv(1, 9)
		if posted != r {
			t.Error("the handed-back request is not the next one handed out")
		}
		posted.Free()
		again := c.Irecv(1, 9)
		if again != posted || len(w.eps[0].posted) != 1 {
			t.Error("Free did not withdraw and recycle a receive nothing matched")
		}
		again.Free()
		p.Wait(50 * sim.Microsecond)
		if len(w.eps[0].unexpected) != 1 {
			t.Errorf("%d unexpected envelopes after the withdrawn receive's message landed, want 1", len(w.eps[0].unexpected))
		}
		if data, st := c.Recv(p, 1, 9); string(data) != "late" || st.Tag != 9 {
			t.Errorf("receive posted after the withdrawal completed with %q, %+v", data, st)
		}
	})
	s.Spawn("rank1", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Recv(p, 0, 0)
		p.Wait(10 * sim.Microsecond)
		c.Send(p, 0, 9, []byte("late"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reqs, msgs := w.RecordsOut(); reqs != 0 || msgs != 0 {
		t.Errorf("RecordsOut = %d, %d at the end, want 0, 0", reqs, msgs)
	}
}

// TestReceiveFreedInFlightIsRecycledWhenItLands: Free on a receive already
// matched, its payload still on the wire, leaves it to land; the leg that
// completes it recycles the record and returns the pool payload.
func TestReceiveFreedInFlightIsRecycledWhenItLands(t *testing.T) {
	setPoison(t, false)
	const size = 256 << 10 // rendezvous: the payload trails the match
	s, w, _ := recycleWorld(t)
	completed := sim.Time(-1)
	var r *Request
	buf := w.GetBuf(size)
	s.Spawn("rank0", func(p *sim.Proc) {
		w.Comm(0).IsendOwned(1, 0, buf).Free()
	})
	s.Spawn("rank1", func(p *sim.Proc) {
		r = w.Comm(1).Irecv(0, 0)
		r.Done().OnTrigger(func() { completed = s.Now() })
		p.Wait(10 * sim.Microsecond) // matched, the payload in flight
		if len(w.eps[1].posted) != 0 || r.Completed() {
			t.Fatal("the receive is not matched and in flight at 10µs")
		}
		r.Free()
		if onFreeList(r) {
			t.Error("Free recycled a receive still in flight")
		}
	})
	recycled := stepUntil(t, s, func() bool { return onFreeList(r) })
	if completed <= 0 || recycled != completed {
		t.Errorf("receive completed at %d, its freed request was recycled at %d", completed, recycled)
	}
	if again := w.GetBuf(size); &again[0] != &buf[0] {
		t.Error("the freed receive landed, but its payload is not the pool's next buffer of its size")
	}
	if reqs, msgs := w.RecordsOut(); reqs != 0 || msgs != 0 {
		t.Errorf("RecordsOut = %d, %d at the end, want 0, 0", reqs, msgs)
	}
}

// TestSendFreedInFlightIsRecycledAtCompletion: Isend(...).Free() marks the
// request, and the leg that completes the send — not Free, and nothing
// before that leg — puts it on the free list, for an eager send and for a
// rendezvous one whose clearance comes late.
func TestSendFreedInFlightIsRecycledAtCompletion(t *testing.T) {
	setPoison(t, false)
	for _, size := range []int{1 << 10, 256 << 10} {
		s, w, _ := recycleWorld(t)
		completed := sim.Time(-1)
		var r *Request
		s.Spawn("rank0", func(p *sim.Proc) {
			r = w.Comm(0).IsendSized(1, 0, size)
			r.Done().OnTrigger(func() { completed = s.Now() })
			r.Free()
			if onFreeList(r) {
				t.Errorf("%d B: Free recycled a send still in flight", size)
			}
		})
		s.Spawn("rank1", func(p *sim.Proc) {
			p.Wait(20 * sim.Microsecond)
			w.Comm(1).Recv(p, 0, 0)
		})
		recycled := stepUntil(t, s, func() bool { return onFreeList(r) })
		if completed <= 0 || recycled != completed {
			t.Errorf("%d B: send completed at %d, its freed request was recycled at %d", size, completed, recycled)
		}
	}
}

// TestMessageRecycledWhenBothHalvesAreOver follows the Message record: one
// received late from the unexpected queue goes back only when the receive
// completes (its sender's half ended long before), one the link filter
// drops goes back at the drop, and a rendezvous send canceled while parked
// never does — the peer may still match its envelope.
func TestMessageRecycledWhenBothHalvesAreOver(t *testing.T) {
	setPoison(t, false)
	const tagDropped = 8
	recycledAt := func(s *sim.Simulation, w *World, sp *spyTransport) sim.Time {
		return stepUntil(t, s, func() bool { return len(sp.msgs) > 0 && sp.msgs[0].w == nil })
	}

	s, w, sp := recycleWorld(t)
	var received sim.Time
	s.Spawn("rank0", func(p *sim.Proc) { w.Comm(0).Isend(1, 0, make([]byte, 1<<10)).Free() })
	s.Spawn("rank1", func(p *sim.Proc) {
		p.Wait(sim.Millisecond)
		w.Comm(1).Recv(p, 0, 0)
		received = p.Now()
	})
	if at := recycledAt(s, w, sp); received <= sim.Time(sim.Millisecond) || at != received {
		t.Errorf("late receive completed at %d, its message was recycled at %d", received, at)
	}

	s, w, sp = recycleWorld(t)
	w.SetLinkFilter(func(src, dst int, tag Tag, size int) LinkVerdict { return LinkVerdict{Drop: tag == tagDropped} })
	dropped := sim.Time(-1)
	s.Spawn("rank0", func(p *sim.Proc) {
		w.Comm(0).Isend(1, tagDropped, make([]byte, 1<<10)).Done().OnTrigger(func() { dropped = s.Now() })
	})
	if at := recycledAt(s, w, sp); dropped <= 0 || at != dropped {
		t.Errorf("message dropped at %d was recycled at %d", dropped, at)
	}

	s, w, sp = recycleWorld(t)
	s.Spawn("rank0", func(p *sim.Proc) {
		r := w.Comm(0).IsendSized(1, 0, 256<<10)
		p.Wait(50 * sim.Microsecond) // the envelope has landed; nobody clears it
		r.Cancel()
		if _, st := r.Wait(p); !st.Canceled {
			t.Error("parked send did not complete as canceled")
		}
		if !onFreeList(r) {
			t.Error("the canceled send's request was not recycled by its Wait")
		}
	})
	if at := recycledAt(s, w, sp); at >= 0 {
		t.Errorf("message of a send canceled while parked was recycled at %d", at)
	}
	if sp.msgs[0].sreq != nil {
		t.Error("canceled message still points at its sender's request")
	}
}

// TestFreedRequestPanicsUnderPoison: with the chaos guard on, a request
// used after the Wait that handed it back is retired, not reused, and every
// exported method says so; so is one freed in flight.
func TestFreedRequestPanicsUnderPoison(t *testing.T) {
	setPoison(t, true)
	s, w, _ := recycleWorld(t)
	s.Spawn("rank0", func(p *sim.Proc) {
		c := w.Comm(0)
		r := c.Isend(1, 0, []byte("x"))
		r.Wait(p)
		if c.Irecv(1, 1) == r || c.Isend(1, 1, nil) == r {
			t.Error("a handed-back request was kept for reuse under poison")
		}
		for name, call := range map[string]func(){
			"Done":      func() { r.Done() },
			"Cancel":    func() { r.Cancel() },
			"Completed": func() { r.Completed() },
			"Wait":      func() { r.Wait(p) },
			"Result":    func() { r.Result() },
			"Free":      func() { r.Free() },
		} {
			func() {
				defer func() {
					if got := recover(); got != "minimpi: use of a freed Request" {
						t.Errorf("%s on a freed request: recovered %v", name, got)
					}
				}()
				call()
			}()
		}
		inFlight := c.Isend(1, 2, []byte("y"))
		inFlight.Free() // marked, not yet complete: already off limits
		defer func() {
			if recover() == nil {
				t.Error("Completed on a send freed in flight did not panic")
			}
		}()
		inFlight.Completed()
	})
	s.Spawn("rank1", func(p *sim.Proc) { w.Comm(1).Recv(p, 0, 0) })
	if err := s.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
}
