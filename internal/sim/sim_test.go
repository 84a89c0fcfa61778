package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new simulation clock = %v, want 0", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("waiter", func(p *Proc) {
		p.Wait(5 * Microsecond)
		p.Wait(3 * Millisecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(5*Microsecond + 3*Millisecond); end != want {
		t.Fatalf("end time = %v, want %v", end, want)
	}
}

func TestZeroAndNegativeWait(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("p", func(p *Proc) {
		p.Wait(0)
		p.Wait(-5)
		if p.Now() != 0 {
			t.Errorf("clock moved on zero wait: %v", p.Now())
		}
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not run")
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() string {
		s := New()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < 3; step++ {
					p.Wait(Duration(10 * Microsecond))
					log = append(log, fmt.Sprintf("p%d@%d", i, step))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Same-time ties must resolve in spawn order.
	if !strings.HasPrefix(first, "p0@0,p1@0,p2@0,p3@0") {
		t.Fatalf("tie-break not FIFO: %s", first)
	}
}

func TestSpawnChildSeesParentTime(t *testing.T) {
	s := New()
	var childStart Time
	s.Spawn("parent", func(p *Proc) {
		p.Wait(7 * Microsecond)
		p.Spawn("child", func(c *Proc) {
			childStart = c.Now()
		})
		p.Wait(Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart != Time(7*Microsecond) {
		t.Fatalf("child start = %v, want 7us", childStart)
	}
}

func TestEventTriggerWakesAllWaiters(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) {
			ev.Await(p)
			woken++
		})
	}
	s.Spawn("trigger", func(p *Proc) {
		p.Wait(Millisecond)
		ev.Trigger()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestAwaitFiredEventReturnsImmediately(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	ev.Trigger()
	var when Time
	s.Spawn("p", func(p *Proc) {
		ev.Await(p)
		when = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 0 {
		t.Fatalf("await of fired event took time: %v", when)
	}
	if !ev.Triggered() {
		t.Fatal("Triggered() = false after Trigger")
	}
}

func TestDoubleTriggerIsNoop(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	count := 0
	s.Spawn("w", func(p *Proc) {
		ev.Await(p)
		count++
	})
	s.Spawn("t", func(p *Proc) {
		ev.Trigger()
		ev.Trigger()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("waiter woke %d times, want 1", count)
	}
}

// TestCancelledTimerNeverRuns pins Timer.Cancel: a cancelled call never
// runs, whether queued for later or for this instant, and Run ends at the
// last event that ran, not at the cancelled one. Cancelling twice, or a
// zero Timer, is harmless, and cancelling a timer that already ran leaves
// alone the event its recycled record serves now.
func TestCancelledTimerNeverRuns(t *testing.T) {
	s := New()
	var ran []string
	note := func(v any) { ran = append(ran, v.(string)) }
	s.AfterCall(3*Microsecond, note, "live")
	s.AfterCallTimer(Second, note, "later").Cancel()
	now := s.AfterCallTimer(0, note, "now")
	now.Cancel()
	now.Cancel()
	Timer{}.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "live" {
		t.Fatalf("ran %v, want [live]", ran)
	}
	if s.Now() != Time(3*Microsecond) {
		t.Errorf("Run ended at %v, want 3us: a cancelled timer moved the clock", Duration(s.Now()))
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("%d events pending after Run, want 0", n)
	}

	spent := s.AfterCallTimer(0, note, "spent")
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	s.AfterCall(Microsecond, note, "reused") // takes the spent timer's record
	spent.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"live", "spent", "reused"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %v, want %v", ran, want)
	}
}

func TestProcDoneEvent(t *testing.T) {
	s := New()
	var joined Time
	worker := s.Spawn("worker", func(p *Proc) { p.Wait(9 * Microsecond) })
	s.Spawn("joiner", func(p *Proc) {
		worker.Done().Await(p)
		joined = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != Time(9*Microsecond) {
		t.Fatalf("joined at %v, want 9us", joined)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	s := New()
	r := NewResource(s, "link", 1)
	var order []string
	worker := func(name string, startDelay, hold Duration) {
		s.Spawn(name, func(p *Proc) {
			p.Wait(startDelay)
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Wait(hold)
			order = append(order, name+"-")
			r.Release(1)
		})
	}
	worker("a", 0, 10*Microsecond)
	worker("b", 1*Microsecond, 10*Microsecond)
	worker("c", 2*Microsecond, 10*Microsecond)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a+,a-,b+,b-,c+,c-"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	s := New()
	r := NewResource(s, "pool", 2)
	var order []string
	// holder takes both units; big (needs 2) queues first; small (needs 1)
	// must not overtake big even though a single unit frees up first.
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Wait(10 * Microsecond)
		r.Release(1)
		p.Wait(10 * Microsecond)
		r.Release(1)
	})
	s.Spawn("big", func(p *Proc) {
		p.Wait(Microsecond)
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	s.Spawn("small", func(p *Proc) {
		p.Wait(2 * Microsecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "big,small" {
		t.Fatalf("order = %s, want big,small", got)
	}
}

// TestAcquireCallQueuesFIFOWithProcesses interleaves blocking acquirers and
// a scheduler-context one behind a holder: grants follow arrival order, and
// the continuation runs holding its unit.
func TestAcquireCallQueuesFIFOWithProcesses(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var order []string
	acquirer := func(name string, arrive Duration) {
		s.Spawn(name, func(p *Proc) {
			p.Wait(arrive)
			r.Acquire(p, 1)
			order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
			p.Wait(10)
			r.Release(1)
		})
	}
	acquirer("holder", 0)
	acquirer("a", 1)
	s.After(2, func() {
		queued := !r.AcquireCall(1, func(any) {
			order = append(order, fmt.Sprintf("call@%d inUse=%d", s.Now(), r.InUse()))
			s.After(10, func() { r.Release(1) })
		}, nil)
		if !queued {
			t.Error("AcquireCall on a held resource reported the units taken")
		}
	})
	acquirer("c", 3)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[holder@0 a@10 call@20 inUse=1 c@30]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("grant order %s, want %s", got, want)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2)
	s.Spawn("p", func(p *Proc) {
		if !r.TryAcquire(2) {
			t.Error("TryAcquire(2) on empty resource failed")
		}
		if r.TryAcquire(1) {
			t.Error("TryAcquire(1) on full resource succeeded")
		}
		r.Release(2)
		if r.InUse() != 0 {
			t.Errorf("InUse = %d after release", r.InUse())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceUse(t *testing.T) {
	s := New()
	r := NewResource(s, "dma", 1)
	var done Time
	s.Spawn("a", func(p *Proc) { r.Use(p, 1, 5*Microsecond) })
	s.Spawn("b", func(p *Proc) {
		r.Use(p, 1, 5*Microsecond)
		done = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Time(10*Microsecond) {
		t.Fatalf("serialized Use finished at %v, want 10us", done)
	}
}

func TestResourcePanicsOnMisuse(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"acquire zero", func() { r.Acquire(nil, 0) }},
		{"acquire above capacity", func() { r.Acquire(nil, 2) }},
		{"release more than held", func() { r.Release(1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewResourceRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewResource(New(), "bad", 0)
}

func TestMailboxFIFO(t *testing.T) {
	s := New()
	m := NewMailbox(s, "box")
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p).(int))
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(Microsecond)
			m.Send(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxBufferedBeforeRecv(t *testing.T) {
	s := New()
	m := NewMailbox(s, "box")
	m.Send("x")
	m.Send("y")
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	var a, b string
	s.Spawn("r", func(p *Proc) {
		a = m.Recv(p).(string)
		b = m.Recv(p).(string)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a != "x" || b != "y" {
		t.Fatalf("got %q,%q", a, b)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	s := New()
	m := NewMailbox(s, "box")
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox succeeded")
	}
	m.Send(7)
	v, ok := m.TryRecv()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryRecv = %v,%v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	s.Spawn("stuck", func(p *Proc) { ev.Await(p) })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error should name the process: %v", err)
	}
}

// TestParkedActivityIsADeadlock: a callback chain that parked and was never
// resumed fails the run by name, like a blocked process; one that unparked
// does not.
func TestParkedActivityIsADeadlock(t *testing.T) {
	s := New()
	s.Park("flight")
	s.Park("flight")
	s.After(5, func() { s.Unpark("flight") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "flight ×1") {
		t.Fatalf("Run = %v, want a deadlock listing flight ×1", err)
	}
	s.Unpark("flight")
	if err := s.Run(); err != nil {
		t.Fatalf("Run after the last Unpark: %v", err)
	}
}

// TestResumeTakesTheCallersQueuePosition is the ordering rule behind
// Suspend/Resume: a process that waits for an event itself (Await) and one
// that leaves the wait to a callback and is resumed by it run their next
// step at the same place among the other events of that instant, because
// the callback stands where the wake-up stood and Resume queues nothing.
func TestResumeTakesTheCallersQueuePosition(t *testing.T) {
	script := func(suspend bool) (order []string) {
		s := New()
		ev := NewEvent(s)
		mark := func(what string) func() { return func() { order = append(order, what) } }
		p := s.Spawn("worker", func(p *Proc) {
			if suspend {
				ev.OnTriggerCall(func(a any) { a.(*Proc).Resume() }, p)
				p.Suspend("handed over")
			} else {
				ev.Await(p)
			}
			order = append(order, "worker")
			s.After(0, mark("worker's follow-up"))
		})
		s.After(10, func() {
			s.After(0, mark("queued before the trigger"))
			ev.Trigger()
			s.After(0, mark("queued after the trigger"))
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !p.Terminated() {
			t.Fatal("worker did not finish")
		}
		return order
	}
	awaited, resumed := script(false), script(true)
	want := []string{"queued before the trigger", "worker", "queued after the trigger", "worker's follow-up"}
	if !reflect.DeepEqual(awaited, want) || !reflect.DeepEqual(resumed, want) {
		t.Errorf("order with Await %v, with Suspend/Resume %v, want both %v", awaited, resumed, want)
	}
}

// TestSuspendedProcessIsADeadlockByName: nobody calling Resume is a
// deadlock like any other, reported under the process's name and the
// state it suspended with.
func TestSuspendedProcessIsADeadlockByName(t *testing.T) {
	s := New()
	s.Spawn("worker", func(p *Proc) { p.Suspend("in a chain") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "worker (in a chain)") {
		t.Fatalf("Run = %v, want a deadlock naming worker (in a chain)", err)
	}
}

// TestKillSuspendedProcess: a killed process unwinds out of Suspend like
// out of any other wait, and a chain that resumes it afterwards — or
// before the kill's own wake-up has run — finds nothing to run.
func TestKillSuspendedProcess(t *testing.T) {
	for _, resumeFirst := range []bool{false, true} {
		s := New()
		cleaned, continued := false, false
		p := s.Spawn("worker", func(p *Proc) {
			defer func() { cleaned = true }()
			p.Suspend("in a chain")
			continued = true
		})
		s.After(5, func() {
			p.Kill()
			if resumeFirst {
				p.Resume() // ahead of the wake-up Kill queued
			}
		})
		s.After(6, func() {
			if !resumeFirst {
				p.Resume()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !cleaned || continued || !p.Terminated() {
			t.Errorf("resumeFirst=%v: cleaned=%v continued=%v terminated=%v, want an unwound process", resumeFirst, cleaned, continued, p.Terminated())
		}
	}
}

func TestResumeOfRunningProcessPanics(t *testing.T) {
	s := New()
	p := s.Spawn("worker", func(p *Proc) { p.Wait(10) })
	s.After(5, func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not suspended") {
				t.Errorf("Resume of a process blocked in Wait: recovered %v, want a panic", r)
			}
		}()
		p.Resume()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("bomb", func(p *Proc) {
		p.Wait(Microsecond)
		panic("boom")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

// TestGoexitInProcessEndsRun pins what t.Fatal inside a process body
// does: the exit surfaces in the goroutine that called Run — which ends,
// running its defers — instead of wedging the scheduler on a worker whose
// goroutine is gone.
func TestGoexitInProcessEndsRun(t *testing.T) {
	s := New()
	s.Spawn("quitter", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	s.Spawn("spawner", func(p *Proc) {
		p.Wait(5)
		p.Spawn("child", func(p *Proc) {}) // reuses the quitter's worker, if pooled
		p.Wait(5)
	})
	ended := make(chan struct{})
	var returned bool
	go func() {
		defer close(ended)
		_ = s.Run()
		returned = true
	}()
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Fatal("Run still going 2 s after a process called Goexit")
	}
	if returned {
		t.Error("Run returned normally; the Goexit was swallowed")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(Millisecond)
			ticks++
		}
	})
	if err := s.RunUntil(Time(5*Millisecond + Microsecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if s.Now() != Time(5*Millisecond+Microsecond) {
		t.Fatalf("clock = %v", s.Now())
	}
	// Continue to completion.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.Spawn("p", func(p *Proc) { n++ })
	ran, err := s.Step()
	if err != nil || !ran {
		t.Fatalf("Step = %v,%v", ran, err)
	}
	for {
		ran, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
}

func TestLiveProcsAndPending(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) { p.Wait(Microsecond) })
	if s.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1", s.LiveProcs())
	}
	if s.Pending() == 0 {
		t.Fatal("Pending = 0, want > 0")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.LiveProcs() != 0 || s.Pending() != 0 {
		t.Fatalf("after Run: live=%d pending=%d", s.LiveProcs(), s.Pending())
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		5:               "5ns",
		3 * Microsecond: "3us",
		2 * Millisecond: "2ms",
		7 * Second:      "7s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tt := Time(100).Add(50)
	if tt != 150 {
		t.Fatalf("Add: %v", tt)
	}
	if d := Time(150).Sub(Time(100)); d != 50 {
		t.Fatalf("Sub: %v", d)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds: %v", s)
	}
	if s := Time(3 * Second).Seconds(); s != 3.0 {
		t.Fatalf("Time.Seconds: %v", s)
	}
}

// Property: for any set of delays, every process observes the clock value
// equal to the sum of its own waits (waits of other processes never leak).
func TestPropertyWaitSumsAreLocal(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		rng := rand.New(rand.NewSource(seed))
		s := New()
		okAll := true
		for pi := 0; pi < 4; pi++ {
			n := 1 + rng.Intn(len(raw))
			delays := make([]Duration, n)
			for i := range delays {
				delays[i] = Duration(raw[rng.Intn(len(raw))])
			}
			s.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
				var sum Duration
				for _, d := range delays {
					p.Wait(d)
					sum += d
				}
				if p.Now() != Time(sum) {
					okAll = false
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never exceeds its capacity, regardless of the
// acquire/release pattern.
func TestPropertyResourceNeverOverCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		capn := 1 + rng.Intn(4)
		r := NewResource(s, "r", capn)
		violated := false
		for i := 0; i < 8; i++ {
			n := 1 + rng.Intn(capn)
			hold := Duration(rng.Intn(100))
			start := Duration(rng.Intn(100))
			s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Wait(start)
				r.Acquire(p, n)
				if r.InUse() > r.Capacity() {
					violated = true
				}
				p.Wait(hold)
				r.Release(n)
			})
		}
		return s.Run() == nil && !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEventOnTrigger(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	var firedAt Time
	ev.OnTrigger(func() { firedAt = s.Now() })
	s.Spawn("t", func(p *Proc) {
		p.Wait(5 * Microsecond)
		ev.Trigger()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != Time(5*Microsecond) {
		t.Errorf("callback at %v, want 5us", firedAt)
	}
	// Registering on an already-fired event schedules immediately.
	ran := false
	ev.OnTrigger(func() { ran = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("post-fire callback did not run")
	}
}

func TestAfterSchedulesCallback(t *testing.T) {
	s := New()
	var order []int
	s.After(2*Microsecond, func() { order = append(order, 2) })
	s.After(Microsecond, func() { order = append(order, 1) })
	s.After(-5, func() { order = append(order, 0) }) // clamped to now
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("order = %v", order)
	}
}

func TestCallbackChainsKeepClockMonotonic(t *testing.T) {
	s := New()
	var times []Time
	var chain func(depth int)
	chain = func(depth int) {
		times = append(times, s.Now())
		if depth < 3 {
			s.After(Microsecond, func() { chain(depth + 1) })
		}
	}
	s.After(0, func() { chain(0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("clock went backwards: %v", times)
		}
	}
}

// TestEventHeapAgainstSort drives the event queue's hand-written heap with
// 10 000 seeded random pushes interleaved with pops — bursts of both, of
// random length — and checks every pop against a sorted reference: (at, seq)
// is a strict total order, so the heap has exactly one right answer each
// time. Times are drawn from a small range so that most pushes tie on at and
// the order falls to seq.
func TestEventHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var ref []heapEntry
	popSorted := func(n int) {
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(ref[j]) })
		for ; n > 0; n-- {
			want := ref[0]
			ref = ref[1:]
			if got := h.popEvent(); got != want.e {
				t.Fatalf("pop with %d queued: got event at %d, want (%d, %d)", len(ref)+1, got.at, want.at, want.seq)
			}
		}
	}
	for seq := uint64(0); seq < 10000; {
		for n := 1 + rng.Intn(64); n > 0; n-- {
			seq++
			x := heapEntry{at: Time(rng.Intn(64)), seq: seq}
			x.e = &event{at: x.at}
			h.pushEvent(x)
			ref = append(ref, x)
		}
		popSorted(rng.Intn(min(len(ref), 64) + 1))
	}
	popSorted(len(ref))
	if len(h) != 0 {
		t.Fatalf("%d entries left in the heap", len(h))
	}
}
