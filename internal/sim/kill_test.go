package sim

import (
	"strings"
	"testing"
)

// TestKillWhileWaiting kills a process mid-Wait: it must unwind (running
// defers), trigger Done, and not fail the simulation. The stale Wait timer
// must not wake the corpse.
func TestKillWhileWaiting(t *testing.T) {
	s := New()
	var cleaned, after bool
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(100)
		after = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Wait(10)
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleaned {
		t.Error("victim's defer did not run")
	}
	if after {
		t.Error("victim ran past its Wait despite being killed")
	}
	if !victim.Done().Triggered() {
		t.Error("victim Done not triggered")
	}
	if s.Now() != 100 {
		// The stale Wait dispatch at t=100 still pops (and is skipped).
		t.Errorf("clock at %d, want 100", s.Now())
	}
}

// TestKillResourceWaiter kills a process queued on a Resource: the grant
// path must skip it so the capacity goes to the next live waiter.
func TestKillResourceWaiter(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var got []string
	hold := s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Wait(50)
		r.Release(1)
	})
	_ = hold
	doomed := s.Spawn("doomed", func(p *Proc) {
		p.Wait(1)
		r.Acquire(p, 1)
		got = append(got, "doomed")
		r.Release(1)
	})
	s.Spawn("live", func(p *Proc) {
		p.Wait(2)
		r.Acquire(p, 1)
		got = append(got, "live")
		r.Release(1)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Wait(10)
		doomed.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 || got[0] != "live" {
		t.Errorf("acquisitions = %v, want [live]", got)
	}
	if r.InUse() != 0 {
		t.Errorf("resource has %d units stranded", r.InUse())
	}
}

// TestKillMailboxWaiter kills a blocked receiver: a later Send must hand
// the value to the next live receiver, not the corpse.
func TestKillMailboxWaiter(t *testing.T) {
	s := New()
	m := NewMailbox(s, "m")
	var got any
	doomed := s.Spawn("doomed", func(p *Proc) {
		got = m.Recv(p)
	})
	s.Spawn("live", func(p *Proc) {
		p.Wait(1)
		v := m.Recv(p)
		got = v
	})
	s.Spawn("driver", func(p *Proc) {
		p.Wait(5)
		doomed.Kill()
		p.Wait(5)
		m.Send("hello")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "hello" {
		t.Errorf("got %v, want hello delivered to the live receiver", got)
	}
}

// TestKillBeforeFirstDispatch kills a freshly spawned process before it
// ever runs: the body must not execute.
func TestKillBeforeFirstDispatch(t *testing.T) {
	s := New()
	var ran bool
	p := s.Spawn("never", func(p *Proc) { ran = true })
	p.Kill()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("killed process body ran")
	}
	if !p.Done().Triggered() {
		t.Error("Done not triggered for killed process")
	}
}

// TestKillHolderStrandsUnits documents the crash semantics: units held by
// a killed process are lost, and a later acquirer deadlocks (reported by
// Run, not hung).
func TestKillHolderStrandsUnits(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	holder := s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Wait(1000)
		r.Release(1)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Wait(10)
		holder.Kill()
	})
	s.Spawn("acquirer", func(p *Proc) {
		p.Wait(20)
		r.Acquire(p, 1)
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want deadlock error", err)
	}
	if r.InUse() != 1 {
		t.Errorf("stranded units = %d, want 1", r.InUse())
	}
}

// TestKillIsNotAFailure checks a kill never surfaces as a panic error.
func TestKillIsNotAFailure(t *testing.T) {
	s := New()
	v := s.Spawn("v", func(p *Proc) { p.Wait(100) })
	s.Spawn("k", func(p *Proc) {
		p.Wait(1)
		v.Kill()
		v.Kill() // double-kill is a no-op
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Killed() {
		t.Error("Killed() = false after Kill")
	}
}

// countFreer counts the Free calls it gets.
type countFreer struct{ n int }

func (f *countFreer) Free() { f.n++ }

// TestKillFreesWhatTheVictimHolds: Kill gives up what a process blocked
// under Hold holds, once and at the Kill; a hold the process let go of is
// not freed by a later Kill.
func TestKillFreesWhatTheVictimHolds(t *testing.T) {
	s := New()
	var held, released countFreer
	victim := s.Spawn("victim", func(p *Proc) {
		p.Hold(&released)
		p.Wait(1)
		p.Hold(nil)
		p.Hold(&held)
		p.Wait(100)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Wait(10)
		victim.Kill()
		if held.n != 1 {
			t.Errorf("right after the Kill the hold was freed %d times, want 1", held.n)
		}
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if held.n != 1 || released.n != 0 {
		t.Errorf("freed %d times and the released hold %d times, want 1 and 0", held.n, released.n)
	}
}
