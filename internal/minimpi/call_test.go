package minimpi

import (
	"errors"
	"fmt"
	"testing"

	"dynacc/internal/sim"
)

// scriptedCall is a Call from rank 0 to rank 1, where a server answers the
// n-th request it receives (counting from 1) with the kind answers[n] after
// delay[n], or drops it when answers has no entry for it.
type scriptedCall struct {
	Call
	comm    *Comm
	decline bool // decline resends at silent deadlines, as a slow peer's caller does
	sends   []sim.Time
	err     error
	ended   sim.Time
	ends    int
}

func (sc *scriptedCall) Send(silent bool) {
	if silent && sc.decline {
		return
	}
	sc.sends = append(sc.sends, sc.comm.World().Sim().Now())
	sc.comm.SendCopy(1, 1, []byte{byte(len(sc.sends))})
}

func (sc *scriptedCall) Reply(data []byte) (ReplyKind, error) { return ReplyKind(data[0]), nil }

func (sc *scriptedCall) Finish(err error) {
	sc.err, sc.ended = err, sc.comm.World().Sim().Now()
	sc.ends++
}

type answer struct {
	kind  ReplyKind
	delay sim.Duration
}

// runScripted runs one synchronous call against a server that takes
// requests requests, answering as scripted, and returns the call once the
// simulation has drained.
func runScripted(t *testing.T, timeout sim.Duration, resends, requests int, decline bool, answers map[int]answer) *scriptedCall {
	t.Helper()
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptedCall{comm: w.Comm(0), decline: decline}
	sc.Timeout, sc.Resends = timeout, resends
	sc.Silence = TimeoutError{Plane: "test", Peer: "server", Op: 7, Rank: 1}
	s.Spawn("client", func(p *sim.Proc) {
		sc.Start(sc.comm, sc, 1, 2)
		sc.Wait(p)
	})
	s.Spawn("server", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 1; i <= requests; i++ {
			data, _ := c.Recv(p, 0, 1)
			if a, ok := answers[int(data[0])]; ok {
				p.Wait(a.delay)
				c.SendCopy(0, 2, []byte{byte(a.kind)})
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sc.ends != 1 {
		t.Fatalf("call ended %d times, want once", sc.ends)
	}
	return sc
}

// TestCallResendsThenTimesOut: a silent peer gets the request once plus
// Resends times, one deadline apart, and the call ends at the last deadline
// with the typed error, every deadline counted.
func TestCallResendsThenTimesOut(t *testing.T) {
	ms := sim.Millisecond
	sc := runScripted(t, ms, 2, 3, false, nil)
	var te *TimeoutError
	if !errors.As(sc.err, &te) || !errors.Is(sc.err, ErrTimeout) || te.Attempts != 3 {
		t.Fatalf("error %v, want a *TimeoutError after 3 attempts", sc.err)
	}
	if want := "test: op 7 to server rank 1 timed out after 3 attempt(s)"; sc.err.Error() != want {
		t.Errorf("error text %q, want %q", sc.err, want)
	}
	if fmt.Sprint(sc.sends) != fmt.Sprint([]sim.Time{0, sim.Time(ms), sim.Time(2 * ms)}) || sc.ended != sim.Time(3*ms) {
		t.Errorf("sent at %v, ended at %v: want 0, 1 ms, 2 ms and 3 ms", sc.sends, sc.ended)
	}
}

// TestCallDeclinedResendKeepsWaiting: a caller that declines the resend (the
// ARM client while the shard's serving rank has not changed) keeps waiting a
// full deadline at a time, within its budget, for a slow peer.
func TestCallDeclinedResendKeepsWaiting(t *testing.T) {
	ms := sim.Millisecond
	sc := runScripted(t, ms, 4, 1, true, map[int]answer{1: {ReplyOver, 5 * ms / 2}})
	if sc.err != nil || len(sc.sends) != 1 || sc.ended < sim.Time(5*ms/2) || sc.ended >= sim.Time(3*ms) {
		t.Errorf("err %v, %d sends, ended at %v: want a success on the first send after 2.5 ms", sc.err, len(sc.sends), sc.ended)
	}
}

// TestCallStaleReplyKeepsTheDeadline: a stale reply re-posts the receive,
// which waits out what the send has left, not a fresh deadline.
func TestCallStaleReplyKeepsTheDeadline(t *testing.T) {
	ms := sim.Millisecond
	sc := runScripted(t, ms, 0, 1, false, map[int]answer{1: {ReplyStale, ms / 2}})
	if !errors.Is(sc.err, ErrTimeout) || sc.ended != sim.Time(ms) {
		t.Errorf("err %v, ended at %v: want a timeout at the first deadline, 1 ms", sc.err, sc.ended)
	}
}

// TestCallAgainRestoresTheBudget: ReplyAgain sends at once under a full
// deadline and a full resend budget. With one resend allowed, the call below
// survives a silence before and another after the replay.
func TestCallAgainRestoresTheBudget(t *testing.T) {
	ms := sim.Millisecond
	sc := runScripted(t, ms, 1, 4, false, map[int]answer{2: {ReplyAgain, 0}, 4: {ReplyOver, 0}})
	if sc.err != nil || len(sc.sends) != 4 {
		t.Errorf("err %v after %d sends, want a success on the fourth", sc.err, len(sc.sends))
	}
}

// TestKilledCallerCancelsItsDeadline: a synchronous caller killed inside
// its call takes the deadline with it, so the run ends at the kill, not an
// hour later.
func TestKilledCallerCancelsItsDeadline(t *testing.T) {
	s := sim.New()
	w, err := NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptedCall{comm: w.Comm(0)}
	sc.Timeout = 3600 * sim.Second
	caller := s.Spawn("client", func(p *sim.Proc) {
		sc.Start(sc.comm, sc, 1, 2)
		sc.Wait(p)
		t.Error("a killed caller went on")
	})
	s.Spawn("killer", func(p *sim.Proc) {
		w.Comm(1).Recv(p, 0, 1)
		p.Wait(sim.Millisecond)
		caller.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if now := s.Now(); now > sim.Time(2*sim.Millisecond) || sc.ends != 0 {
		t.Errorf("run ended at %v with %d call ends, want about 1 ms and none", now, sc.ends)
	}
}
