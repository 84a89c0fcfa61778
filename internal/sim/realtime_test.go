package sim

import (
	"sync"
	"testing"
	"time"
)

// TestRealtimeTimedWait checks that a virtual-time Wait takes roughly that
// much wall time under RunRealtime.
func TestRealtimeTimedWait(t *testing.T) {
	s := New()
	var elapsed time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		start := time.Now()
		p.Wait(30 * Millisecond)
		elapsed = time.Since(start)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()
	select {
	case err := <-done:
		t.Fatalf("RunRealtime returned before stop: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
	if elapsed == 0 {
		t.Fatal("sleeper never completed its wait")
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("30ms virtual wait finished in %v wall time", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("30ms virtual wait took %v wall time", elapsed)
	}
}

// TestRealtimeInject checks that injections from a foreign goroutine wake a
// parked loop and run in scheduler context, unblocking an awaiting process.
func TestRealtimeInject(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	got := make(chan struct{})
	s.Spawn("waiter", func(p *Proc) {
		ev.Await(p)
		close(got)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()

	time.Sleep(10 * time.Millisecond) // let the loop park with nothing scheduled
	s.Inject(func() { ev.Trigger() })

	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("injected trigger did not wake the waiter")
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
}

// TestRealtimeInjectOrder checks injections run in order and the clock never
// rewinds across them.
func TestRealtimeInjectOrder(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()

	var mu sync.Mutex
	var order []int
	var times []Time
	var wg sync.WaitGroup
	wg.Add(1)
	for i := 0; i < 3; i++ {
		i := i
		s.Inject(func() {
			mu.Lock()
			order = append(order, i)
			times = append(times, s.now)
			mu.Unlock()
			if i == 2 {
				wg.Done()
			}
		})
	}
	wg.Wait()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("injection order = %v", order)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("clock rewound across injections: %v", times)
		}
	}
}

// TestRealtimeTimeoutFires checks a deadline (AfterCallTimer) maps to a
// real one: guarding an event nobody fires, it runs after roughly the
// virtual duration, not never.
func TestRealtimeTimeoutFires(t *testing.T) {
	s := New()
	ev := NewEvent(s) // never triggered
	res := make(chan bool, 1)
	s.AfterCallTimer(20*Millisecond, func(any) { res <- ev.Triggered() }, nil)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()
	select {
	case fired := <-res:
		if fired {
			t.Fatal("deadline found an untriggered event fired")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never ran under RunRealtime")
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
}

// TestRealtimeCancelledDeadline checks a cancelled deadline under the wall
// clock: a wait won at once cancels its 1 h deadline, a tombstone the loop
// neither runs nor sleeps toward, so a 1 ms timer queued behind it fires
// about 1 ms later and the clock stays far short of the hour.
func TestRealtimeCancelledDeadline(t *testing.T) {
	s := New()
	took := make(chan time.Duration, 1)
	deadline := s.AfterCallTimer(3600*Second, func(any) { t.Error("cancelled deadline ran") }, nil)
	s.AfterCall(0, func(any) {
		deadline.Cancel() // the wait it guarded is won
		start := time.Now()
		s.AfterCall(Millisecond, func(any) { took <- time.Since(start) }, nil)
	}, nil)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()
	select {
	case d := <-took:
		if d > time.Second {
			t.Errorf("1ms timer behind a cancelled 1h deadline fired after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("1ms timer behind a cancelled 1h deadline never fired")
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
	if s.Now() >= Time(Second) {
		t.Errorf("clock reached %v, want well under a second", Duration(s.Now()))
	}
}

// TestRealtimeResume checks a stopped realtime loop can be resumed and that
// injections queued while stopped are drained on resume.
func TestRealtimeResume(t *testing.T) {
	s := New()
	stop1 := make(chan struct{})
	close(stop1)
	if err := s.RunRealtime(stop1); err != nil { // runs zero events, returns
		t.Fatalf("first RunRealtime: %v", err)
	}
	ran := make(chan struct{})
	s.Inject(func() { close(ran) })
	stop2 := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop2) }()
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("injection queued while stopped did not run on resume")
	}
	close(stop2)
	if err := <-done; err != nil {
		t.Fatalf("second RunRealtime: %v", err)
	}
}

// TestSleepForStopsAtTheWindow: the realtime loop sleeps until the event
// enters the coarseness window, not until it is due, so an event just past
// the window waits out only its distance from it.
func TestSleepForStopsAtTheWindow(t *testing.T) {
	const wall, coarse = Time(5 * Second), Millisecond
	for _, c := range []struct {
		at   Time
		want Duration
	}{
		{wall.Add(-Millisecond), 0}, // overdue
		{wall, 0},
		{wall.Add(coarse / 2), 0},
		{wall.Add(coarse), 0}, // the window's edge runs at once
		{wall.Add(coarse + Microsecond), Microsecond},
		{wall.Add(coarse + 29*Microsecond), 29 * Microsecond},
		{wall.Add(30 * Millisecond), 29 * Millisecond},
	} {
		if got := sleepFor(c.at, wall, coarse); got != c.want {
			t.Errorf("event at %v, wall %v: sleep %v, want %v", c.at, wall, got, c.want)
		}
	}
}
