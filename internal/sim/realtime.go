package sim

import (
	"sync"
	"time"
)

// This file adds a real-time driver to the simulation kernel. RunRealtime
// slaves the virtual clock to the wall clock so that a Simulation can serve
// as the event loop of one OS process in a distributed deployment: timed
// waits become real sleeps, timeouts become real deadlines, and external
// goroutines (socket readers) feed work into the loop with Inject.
//
// The discipline is unchanged: all simulation state is still touched only
// by the scheduler goroutine. Inject is the single cross-goroutine entry
// point, and injected functions run in scheduler context exactly like event
// callbacks.

// injector is the cross-goroutine injection queue. Inject appends under the
// mutex and nudges the signal channel; the realtime loop drains the queue in
// scheduler context before choosing the next event.
type injector struct {
	mu  sync.Mutex
	fns []func()
	// spare is the previous drain's batch, emptied: drainInjected swaps it
	// in for fns, so a burst refills an array that already grew to burst
	// size instead of growing a fresh one after every drain. Only the
	// scheduler goroutine touches it.
	spare []func()
	sig   chan struct{} // capacity 1; a pending signal means "queue non-empty"
}

// Inject queues fn to run in scheduler context. It is safe to call from any
// goroutine, at any time, including while RunRealtime is sleeping: the loop
// wakes promptly. fn must follow event-callback rules (no blocking); it may
// trigger events, spawn processes and schedule work.
//
// Injected functions run in injection order. Under Run/RunUntil (virtual
// mode) injections are drained only at Step/Run entry, so Inject is really
// only useful together with RunRealtime.
func (s *Simulation) Inject(fn func()) {
	s.inj.mu.Lock()
	s.inj.fns = append(s.inj.fns, fn)
	s.inj.mu.Unlock()
	select {
	case s.inj.sig <- struct{}{}:
	default:
	}
}

// drainInjected runs all queued injections in scheduler context. wall is the
// current wall-derived virtual time; the clock advances to it (never
// backwards) before the injected work runs, so work stamped "now" by an
// injection carries the real arrival time.
func (s *Simulation) drainInjected(wall Time) bool {
	s.inj.mu.Lock()
	fns := s.inj.fns
	s.inj.fns, s.inj.spare = s.inj.spare, nil
	s.inj.mu.Unlock()
	if len(fns) > 0 && wall > s.now {
		s.now = wall
	}
	for _, fn := range fns {
		fn()
	}
	clear(fns) // drop the closures, keep the array
	s.inj.spare = fns[:0]
	return len(fns) > 0
}

// DefaultCoarseness is the scheduling granularity of RunRealtime: events due
// within this much of the wall-derived current time run immediately instead
// of sleeping. It trades timer precision for throughput — simulated
// micro-delays (kernel launch overheads, per-message gaps) would otherwise
// each cost an OS timer round-trip.
const DefaultCoarseness = Duration(time.Millisecond)

// RunRealtime executes events against the wall clock until stop is closed
// or a process panics. Virtual time is anchored at the current clock value
// on entry and advances with real time from there.
//
// Differences from Run:
//   - An event scheduled for T runs when the wall clock reaches T (within
//     DefaultCoarseness); until then the loop sleeps.
//   - An empty queue with blocked processes is not a deadlock: the loop
//     parks and waits for an injection (e.g. a frame arriving from the
//     network) or stop.
//   - The clock never rewinds: events that were due before an injection
//     advanced the clock run at the advanced time.
//
// On return the simulation is quiescent and may be resumed with another
// RunRealtime (or inspected with Now/Pending). Run must not be mixed in
// while other goroutines may still call Inject.
func (s *Simulation) RunRealtime(stop <-chan struct{}) error {
	return s.runRealtime(stop, DefaultCoarseness)
}

// sleepFor is the realtime loop's sleep before an event due at at, the clock
// reading wall: none within the coarseness window, else until the window
// reaches the event, which then runs at once instead of a window late.
func sleepFor(at, wall Time, coarse Duration) Duration { return max(0, at.Sub(wall)-coarse) }

func (s *Simulation) runRealtime(stop <-chan struct{}, coarse Duration) error {
	start := time.Now()
	base := s.now
	wallNow := func() Time { return base.Add(Duration(time.Since(start))) }
	// Go 1.23 timers: Stop and Reset leave no stale tick in timer.C.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		// One clock reading a turn serves the drain and the sleep decision.
		wall := wallNow()
		s.drainInjected(wall)
		if s.failure != nil {
			return s.failure
		}
		select {
		case <-stop:
			return nil
		default:
		}
		e, fromReady := s.next()
		if e == nil {
			// Nothing scheduled. Blocked processes are waiting on external
			// input, not deadlocked: park until an injection or stop.
			select {
			case <-s.inj.sig:
				continue
			case <-stop:
				return nil
			}
		}
		if wait := sleepFor(e.at, wall, coarse); wait > 0 {
			timer.Reset(time.Duration(wait))
			select {
			case <-s.inj.sig:
			case <-stop:
				timer.Stop()
				return nil
			case <-timer.C:
			}
			continue // re-drain injections, re-select the event
		}
		s.pop(fromReady)
		// Injections may have advanced now past e.at: the event then runs
		// "late" at the advanced time rather than rewinding the clock.
		e.at = max(e.at, s.now)
		s.exec(e)
		if s.failure != nil {
			return s.failure
		}
	}
}
