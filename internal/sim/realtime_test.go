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

// TestRealtimeTimeoutFires checks AwaitTimeout maps to a real deadline: it
// must report failure after roughly the virtual duration, not hang.
func TestRealtimeTimeoutFires(t *testing.T) {
	s := New()
	ev := NewEvent(s) // never triggered
	res := make(chan bool, 1)
	s.Spawn("to", func(p *Proc) {
		res <- ev.AwaitTimeout(p, 20*Millisecond)
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()
	select {
	case fired := <-res:
		if fired {
			t.Fatal("timeout wait reported fired on an untriggered event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitEventTimeout never returned under RunRealtime")
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("RunRealtime: %v", err)
	}
}

// TestRealtimeCancelledDeadline checks a cancelled deadline under the wall
// clock: a wait won at once leaves its 1 h deadline a tombstone, which the
// loop neither runs nor sleeps toward, so a 1 ms timer queued behind it
// fires about 1 ms later and the clock stays far short of the hour.
func TestRealtimeCancelledDeadline(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	took := make(chan time.Duration, 1)
	s.Spawn("waiter", func(p *Proc) {
		s.AfterCall(0, triggerEventArg, ev)
		if !ev.AwaitTimeout(p, 3600*Second) {
			t.Error("AwaitTimeout timed out on an event fired at once")
		}
		start := time.Now()
		s.AfterCall(Millisecond, func(any) { took <- time.Since(start) }, nil)
	})
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
