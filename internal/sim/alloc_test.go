package sim

import (
	"runtime"
	"testing"
)

// Allocation regression tests for the scheduler hot paths. The free
// lists (events, waiters, mailbox rings) mean the steady state after a
// short warmup is zero heap allocations per operation; these tests pin
// that so a stray closure or slice growth on a hot path fails CI rather
// than silently regressing fleet-scale runs.

func triggerEventArg(a any) { a.(*Event).Trigger() }

// mallocAttempts is how often mallocsAround runs its function.
const mallocAttempts = 3

// mallocsAround reports the smallest Mallocs delta across mallocAttempts
// runs of fn. MemStats.Mallocs is process-wide: called from inside a
// running simulation only sim goroutines execute between the reads, but
// the runtime's own background work (GC workers, the test harness's
// timers) can still allocate in that window. Such strays do not repeat
// run after run, while an allocation on the measured path shows in every
// attempt — so the minimum is the path's own count.
func mallocsAround(fn func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < mallocAttempts; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < best {
			best = d
		}
	}
	return best
}

// TestSchedulerStepAllocFree pins the closure-free schedule/dispatch
// cycle: AfterCall with a top-level function and a pre-boxed argument,
// executed via Step, must not allocate once the event free list is warm.
func TestSchedulerStepAllocFree(t *testing.T) {
	s := New()
	n := 0
	arg := any(&n)
	bump := func(a any) { *a.(*int)++ }
	step := func() {
		s.AfterCall(0, bump, arg)
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the event free list
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("schedule+dispatch allocates %.2f per op, want 0", avg)
	}
}

// TestEventTriggerAwaitAllocFree pins the embedded-event cycle used by
// the pipeline scratch buffers: Init, a scheduled Trigger, and an Await
// must be allocation-free in steady state.
func TestEventTriggerAwaitAllocFree(t *testing.T) {
	s := New()
	var delta uint64
	s.Spawn("waiter", func(p *Proc) {
		var ev Event
		arg := any(&ev)
		cycle := func(rounds int) {
			for i := 0; i < rounds; i++ {
				ev.Init(s)
				s.AfterCall(1, triggerEventArg, arg)
				ev.Await(p)
			}
		}
		cycle(100) // warm waiter and event pools
		delta = mallocsAround(func() { cycle(1000) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("event Init/Trigger/Await cycle allocated %d times over 1000 rounds, want 0", delta)
	}
}

// TestTimedWaitAllocFree pins the process suspend/resume path.
func TestTimedWaitAllocFree(t *testing.T) {
	s := New()
	var delta uint64
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(Microsecond)
		}
		delta = mallocsAround(func() {
			for i := 0; i < 1000; i++ {
				p.Wait(Microsecond)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("timed Wait allocated %d times over 1000 rounds, want 0", delta)
	}
}

// TestMailboxSendRecvAllocFree pins mailbox round trips between two
// processes. Values stay in the runtime's small-int interface cache so
// the ring itself is the only possible allocator.
func TestMailboxSendRecvAllocFree(t *testing.T) {
	const warmup, rounds = 100, 1000
	s := New()
	m := NewMailbox(s, "m")
	var delta uint64
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < warmup+mallocAttempts*rounds; i++ {
			m.Send(7)
			p.Wait(1)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < warmup; i++ {
			m.Recv(p)
		}
		delta = mallocsAround(func() {
			for i := 0; i < rounds; i++ {
				m.Recv(p)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("mailbox send/recv allocated %d times over %d rounds, want 0", delta, rounds)
	}
}

// TestAcquireCallQueuedAllocFree pins the scheduler-context acquire: a
// continuation that queues behind a holder, is granted by the holder's
// Release and runs must not allocate once the waiter and event free lists
// are warm. This is the per-message NIC handoff of the minimpi send chain.
func TestAcquireCallQueuedAllocFree(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	granted := 0
	arg := any(&granted)
	bump := func(a any) { *a.(*int)++ }
	cycle := func() {
		if !r.AcquireCall(1, bump, arg) {
			t.Fatal("free resource was not taken inline")
		}
		if r.AcquireCall(1, bump, arg) {
			t.Fatal("held resource was taken inline")
		}
		r.Release(1) // grants the queued request: schedules bump
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		r.Release(1)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	const rounds = 1000
	delta := mallocsAround(func() {
		for i := 0; i < rounds; i++ {
			cycle()
		}
	})
	if delta != 0 {
		t.Errorf("queued AcquireCall/Release cycle allocated %d times over %d rounds, want 0", delta, rounds)
	}
	if want := 100 + mallocAttempts*rounds; granted != want {
		t.Errorf("continuation ran %d times, want %d", granted, want)
	}
}

// TestSpawnAllocatesOnlyTheProc pins worker reuse: in steady state a
// short-lived process costs exactly one allocation, its Proc — the
// coroutine it runs on comes back from the free list.
func TestSpawnAllocatesOnlyTheProc(t *testing.T) {
	const rounds = 1000
	s := New()
	var delta uint64
	child := func(p *Proc) { p.Wait(1) }
	s.Spawn("parent", func(p *Proc) {
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				p.Spawn("child", child)
				p.Wait(2)
			}
		}
		cycle(100) // warm the worker, event and process-table storage
		delta = mallocsAround(func() { cycle(rounds) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != rounds {
		t.Errorf("%d spawns of a short-lived process allocated %d times, want %d (one Proc each)", rounds, delta, rounds)
	}
}

// TestFreshSimulationResumesAnIdleWorker pins where a finished process's
// worker goes: to the OS process's idle list, whether its simulation ran
// under Run or RunRealtime, and the next Spawn of a fresh Simulation, on
// another goroutine too, takes it with its coroutine instead of starting
// one.
func TestFreshSimulationResumesAnIdleWorker(t *testing.T) {
	// fresh runs one short process in a new simulation and reports whether
	// it was given a worker that already had a coroutine.
	fresh := func(realtime bool) (warm bool) {
		s := New()
		done := make(chan struct{})
		p := s.Spawn("short", func(p *Proc) {
			defer close(done)
			p.Wait(Microsecond)
		})
		warm = p.w.next != nil
		var err error
		if realtime {
			stop := make(chan struct{})
			go func() { <-done; close(stop) }()
			err = s.RunRealtime(stop)
		} else {
			err = s.Run()
		}
		if err != nil {
			t.Error(err) // fresh runs on a second goroutine too
		}
		return warm
	}
	for len(idleWorkers) > 0 { // start cold
		(<-idleWorkers).stop()
	}
	if fresh(false) {
		t.Fatal("the first simulation found an idle worker in an emptied list")
	}
	if !fresh(false) {
		t.Error("a fresh simulation after Run started a coroutine of its own")
	}
	if !fresh(true) {
		t.Error("a real-time simulation started a coroutine of its own")
	}
	other := make(chan bool)
	go func() { other <- fresh(false) }()
	if !<-other {
		t.Error("the worker RunRealtime's process ran on was not idle for a simulation on another goroutine")
	}
}

// TestInjectBurstAllocFree pins the injection queue's two buffers: a drain
// hands the next burst the array the burst before it grew, so bursts of a
// size seen before cost no allocation, and the drained closures are
// dropped rather than pinned by the idle array.
func TestInjectBurstAllocFree(t *testing.T) {
	s := New()
	ran := 0
	fn := func() { ran++ }
	burst := func() {
		for i := 0; i < 64; i++ {
			s.Inject(fn)
		}
		if !s.drainInjected(0) {
			t.Fatal("drain found nothing")
		}
	}
	burst() // grow both buffers to burst size
	burst()
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("a 64-injection burst allocates %.2f, want 0", avg)
	}
	if ran != 64*103 {
		t.Errorf("%d injections ran, want %d", ran, 64*103)
	}
	for _, f := range s.inj.spare[:cap(s.inj.spare)] {
		if f != nil {
			t.Fatal("a drained buffer still references an injected function")
		}
	}
	if s.drainInjected(0) {
		t.Error("an empty queue reported work")
	}
}
