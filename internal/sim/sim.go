// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Simulation owns a virtual clock and a set of cooperative processes.
// Each process runs on a pooled runtime coroutine (iter.Pull), and exactly
// one process runs at any moment: it runs until it blocks on a simulation
// primitive (Wait, Event, Resource, Mailbox), at which point control
// switches straight back to the scheduler — goroutine to goroutine, past
// the Go scheduler's run queue — which advances the virtual clock to the
// next pending event. Ties in virtual time are broken by event creation
// order, so a simulation is bit-for-bit reproducible across runs and safe
// under the race detector.
//
// The package provides the primitives the rest of this repository is built
// on: timed waits, one-shot events (completions), counted resources
// (semaphores modelling links, DMA engines, CPUs) and mailboxes (FIFO
// message queues with blocking receive). Work that only waits out delays
// and queues for resources need not be a process: AfterCall, OnTriggerCall
// and Resource.AcquireCall chain scheduler-context callbacks through the
// same event queue. Deadlock detection cannot see such a chain, so one
// that waits on another party brackets the wait with Park and Unpark and
// is then reported like a blocked process. A process can hand a stretch of
// its own script to a chain and stay visible meanwhile: it blocks in
// Suspend, and the chain's last leg switches back into it with Resume. A
// deadline guarding such a wait is an AfterCallTimer, which the leg that
// beats it cancels: nothing outlives the wait it guarded.
//
// A process function that panics fails the simulation: Run returns the
// panic as an error. One that leaves through runtime.Goexit — testing's
// t.Fatal and t.FailNow — ends the goroutine that called Run, running its
// deferred calls, which on a test's own goroutine is what FailNow needs;
// Run does not return and the Simulation is finished.
//
// The scheduler is allocation-free in steady state: event records, process
// waiter records and worker coroutines are recycled through free lists
// owned by the Simulation. Recycling never changes execution order — see
// the comment on push for the ordering argument.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(d)/float64(Second))
	}
}

// Seconds reports the time as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback or process resumption. Events are executed
// by the scheduler goroutine in (at, seq) order; events for the current
// instant bypass the heap (see push). Exactly one of fn, afn and p is set:
// fn and afn run in scheduler context, p is dispatched — unless the event
// is a cancelled Timer's tombstone, which holds none and which next
// discards unrun. Executed and discarded events return to the simulation's
// free list.
type event struct {
	at Time
	fn func()
	p  *Proc
	// afn/arg is the closure-free callback form: afn is typically a
	// top-level function and arg its state, so hot paths schedule work
	// without capturing.
	afn func(any)
	arg any
	gen uint32 // bumped on recycling: a Timer names one use of the record
}

// Timer is a handle on one event scheduled by AfterCallTimer. The zero
// Timer is valid and cancels nothing.
type Timer struct {
	e   *event
	gen uint32
}

// Cancel stops the timer if it has not run yet. The event stays queued as
// a tombstone that the scheduler discards without running it or advancing
// the clock to it, and lets go of its callback's argument at once.
// Cancelling a timer that already ran or was cancelled is a no-op: its
// record may be serving another event by now, which the generation check
// leaves alone. Scheduler context only.
func (t Timer) Cancel() {
	if e := t.e; e != nil && e.gen == t.gen {
		e.fn, e.p, e.afn, e.arg = nil, nil, nil, nil
	}
}

// eventHeap is the future-event queue: a binary min-heap on (at, seq) with
// the key held inline, so sifting compares slice entries without following
// the event pointer or calling through an interface. (at, seq) is a strict
// total order — seq is unique — so pop order does not depend on the heap's
// shape.
type eventHeap []heapEntry

type heapEntry struct {
	at  Time
	seq uint64
	e   *event
}

func (a heapEntry) before(b heapEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h *eventHeap) pushEvent(x heapEntry) {
	q := append(*h, heapEntry{})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
	*h = q
}

// popEvent removes and returns the earliest event; the heap must not be
// empty.
func (h *eventHeap) popEvent() *event {
	q := *h
	top := q[0].e
	n := len(q) - 1
	x := q[n]
	q[n] = heapEntry{}
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = x
	}
	return top
}

// Simulation is a discrete-event simulation instance. The zero value is not
// usable; create one with New.
type Simulation struct {
	now    Time
	seq    uint64
	events eventHeap

	// ready is the same-instant fast path: events scheduled for the current
	// instant are appended here in schedule order and run FIFO, skipping
	// the heap entirely. readyHead indexes the next entry to run; the slice
	// resets (keeping capacity) whenever it drains.
	ready     []*event
	readyHead int

	procs   map[*Proc]struct{} // live (spawned, not yet terminated) processes
	parked  map[string]int     // scheduler-context activities waiting on another party; see Park
	nprocs  int                // total processes ever spawned, for naming
	failure error              // first process panic, if any

	// Free lists. Items are recycled only once no live reference remains
	// (see the ownership comments at each put site); generation counters on
	// waiter and event records invalidate any registration or Timer that
	// outlives its use.
	freeEvents     []*event
	freeWorkers    []*worker
	freeWaiters    []*eventWaiter
	freeBoxWaiters []*boxWaiter
	freeResWaiters []*resWaiter

	// inj is the cross-goroutine injection queue used by RunRealtime; see
	// realtime.go. It is the only part of a Simulation other goroutines may
	// touch, and only via Inject.
	inj injector
}

// New creates an empty simulation with the clock at zero.
func New() *Simulation {
	s := &Simulation{
		procs:  make(map[*Proc]struct{}),
		parked: make(map[string]int),
	}
	s.inj.sig = make(chan struct{}, 1)
	return s
}

// Now returns the current virtual time. It may be called from process
// context or between Run calls.
func (s *Simulation) Now() Time { return s.now }

// After schedules fn to run in scheduler context d from now. Like event
// callbacks, fn must not block.
func (s *Simulation) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.Add(d), fn)
}

// schedule enqueues fn to run at time at (>= now).
func (s *Simulation) schedule(at Time, fn func()) {
	e := s.getEvent()
	e.fn = fn
	s.push(e, at)
}

// scheduleProc enqueues a resumption of p at time at without allocating a
// dispatch closure.
func (s *Simulation) scheduleProc(at Time, p *Proc) {
	e := s.getEvent()
	e.p = p
	s.push(e, at)
}

// AfterCall schedules fn(arg) to run in scheduler context d from now.
// Equivalent to After with a closure over arg, but allocation-free when fn
// is a top-level function and arg a pointer.
func (s *Simulation) AfterCall(d Duration, fn func(any), arg any) {
	s.AfterCallTimer(d, fn, arg)
}

// AfterCallTimer is AfterCall returning a Timer that can cancel the call: a
// deadline that is cancelled by the wait it guards, once that wait is over,
// neither runs nor holds arg nor moves the clock.
func (s *Simulation) AfterCallTimer(d Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	e := s.getEvent()
	e.afn, e.arg = fn, arg
	s.push(e, s.now.Add(d))
	return Timer{e, e.gen}
}

// push routes an event to the ready queue (same instant) or the heap
// (future). This preserves the execution order of the plain-heap scheduler
// exactly: under a global sequence number, events already in the heap for
// the current instant were scheduled before "now" was reached, so they
// precede — in seq order — anything scheduled during the current instant,
// and events scheduled during the current instant run in schedule order,
// which is ready-queue FIFO order. The run loop drains heap entries for
// the current instant before the ready queue, and the ready queue before
// advancing time.
func (s *Simulation) push(e *event, at Time) {
	if at <= s.now {
		e.at = s.now
		s.ready = append(s.ready, e)
		return
	}
	e.at = at
	s.seq++
	s.events.pushEvent(heapEntry{at, s.seq, e})
}

func (s *Simulation) getEvent() *event {
	if n := len(s.freeEvents); n > 0 {
		e := s.freeEvents[n-1]
		s.freeEvents = s.freeEvents[:n-1]
		return e
	}
	return &event{}
}

// putEvent recycles an executed or discarded event. Safe because events
// are owned exclusively by the queue that pops them; bumping gen retires
// every Timer naming the use that ended.
func (s *Simulation) putEvent(e *event) {
	e.fn = nil
	e.p = nil
	e.afn = nil
	e.arg = nil
	e.gen++
	s.freeEvents = append(s.freeEvents, e)
}

// Proc is the handle a process function uses to interact with the
// simulation: waiting, spawning children, and querying the clock. A Proc is
// only valid inside the coroutine of the process it belongs to, except for
// Kill, Killed, Terminated and Done, which other processes use to manage it.
type Proc struct {
	sim        *Simulation
	name       string
	w          *worker
	state      string // human-readable description of what the process waits on
	done       *Event // created lazily by Done; triggered at termination
	killed     bool   // Kill was called; unwind at the next scheduling point
	suspended  bool   // blocked in Suspend, waiting for Resume
	terminated bool   // the process function has returned or unwound
}

// worker is a reusable process shell: a runtime coroutine (iter.Pull) that
// runs one process per assignment. next switches from the scheduler into
// the coroutine and returns when it yields: the process blocked, or it
// terminated and the worker is back on the simulation's free list, so
// steady-state Spawn creates no coroutine. The coroutine is made at first
// dispatch, not at Spawn: a simulation never run leaves nothing behind.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // valid inside the coroutine only
	p     *Proc
	fn    func(*Proc)
}

// killSignal is the panic value that unwinds a killed process. It is
// recovered by the process shell and treated as clean termination, not a
// simulation failure.
type killSignal struct{}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Simulation { return p.sim }

// Done returns an event triggered when the process terminates. Other
// processes can Await it to join. The event is created on first call; for
// an already-terminated process it is returned pre-fired.
func (p *Proc) Done() *Event {
	if p.done == nil {
		p.done = NewEvent(p.sim)
		if p.terminated {
			p.done.fired = true
		}
	}
	return p.done
}

// Terminated reports whether the process function has returned or unwound.
// Cheaper than Done().Triggered() when no join is needed.
func (p *Proc) Terminated() bool { return p.terminated }

// Kill terminates the process at its next scheduling point: the victim
// unwinds (running its defers) the next time it would resume, without
// marking the simulation as failed. Any resource units the victim holds are
// lost — exactly like hardware seized by a crashed host — so killing models
// a process crash, not a graceful stop. Killing a terminated or
// already-killed process is a no-op.
func (p *Proc) Kill() {
	if p.killed || p.terminated {
		return
	}
	p.killed = true
	p.wake()
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// gone reports whether the process is dead or doomed. Queueing primitives
// use it to skip granting to waiters that will never run again.
func (p *Proc) gone() bool { return p.killed || p.terminated }

// block hands control back to the scheduler and sleeps until resumed. A
// killed process unwinds here instead of resuming.
func (p *Proc) block(state string) {
	p.state = state
	if !p.w.yield(struct{}{}) || p.killed {
		panic(killSignal{})
	}
	p.state = ""
}

// wake schedules p to resume at the current virtual time.
func (p *Proc) wake() {
	p.sim.scheduleProc(p.sim.now, p)
}

// dispatch resumes process p and waits until it blocks again or terminates.
// Called only from the scheduler goroutine. A process that died with a wake
// still pending (e.g. killed while also holding a timer) is skipped.
func (s *Simulation) dispatch(p *Proc) {
	if p.terminated {
		return
	}
	w := p.w
	if w.next == nil {
		w.next, w.stop = iter.Pull(w.run)
	}
	w.next()
}

const stateWaiting = "waiting"

// Wait advances the process by d of virtual time. Negative durations are
// treated as zero (yield to other processes scheduled at the same instant).
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.scheduleProc(s.now.Add(d), p)
	p.block(stateWaiting)
}

// Suspend blocks the process until scheduler-context code calls Resume. It
// is how a process hands a stretch of its script to a chain of callbacks
// (see the package comment) and takes over again when the chain is done:
// the process stays live and blocked under the given state, so a chain that
// never finishes is a deadlock reported under the process's name.
func (p *Proc) Suspend(state string) {
	p.suspended = true
	p.block(state)
}

// Resume switches into a process blocked in Suspend, at once, and returns
// when it blocks again or terminates. Only scheduler-context code may call
// it. Nothing is queued: the callback that calls Resume stands where the
// dispatch of a woken process would, so a chain whose every leg takes the
// queue position of one of the process's own resumptions hands control back
// at exactly the position the process's last resumption had. Resuming a
// process that was killed meanwhile lets it unwind.
func (p *Proc) Resume() {
	if !p.suspended {
		panic(fmt.Sprintf("sim: Resume of process %q, which is not suspended", p.name))
	}
	p.suspended = false
	p.sim.dispatch(p)
}

// Spawn starts a new process at the current virtual time. The child runs
// concurrently (in virtual time) with the caller; the caller keeps running
// until it blocks. Spawn may also be called on the Simulation before Run.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.sim.Spawn(name, fn)
}

// Spawn registers a new process to start at the current virtual time and
// returns its handle. The process function runs in its own coroutine under
// the cooperative scheduling discipline described in the package comment.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	s.nprocs++
	if name == "" {
		name = fmt.Sprintf("proc-%d", s.nprocs)
	}
	w := s.getWorker()
	p := &Proc{sim: s, name: name, w: w}
	w.p, w.fn = p, fn
	s.procs[p] = struct{}{}
	s.scheduleProc(s.now, p)
	return p
}

func (s *Simulation) getWorker() *worker {
	if n := len(s.freeWorkers); n > 0 {
		w := s.freeWorkers[n-1]
		s.freeWorkers = s.freeWorkers[:n-1]
		return w
	}
	return &worker{}
}

// run is the coroutine body: run the assigned process, yield to the
// scheduler, and find the next assignment in place when resumed. A false
// yield is the stop from drainWorkers.
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.runProc()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc executes one process function inside the recover shell, then
// returns the worker to the free list. The scheduler is suspended in
// dispatch while this runs, so the free list and process table are never
// touched concurrently.
func (w *worker) runProc() {
	p, fn := w.p, w.fn
	w.p, w.fn = nil, nil
	s := p.sim
	defer func() {
		if r := recover(); r != nil {
			if _, wasKilled := r.(killSignal); !wasKilled && s.failure == nil {
				s.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.terminated = true
		delete(s.procs, p)
		if p.done != nil {
			p.done.Trigger()
		}
		p.state = "terminated"
		p.w = nil
		s.freeWorkers = append(s.freeWorkers, w)
	}()
	if !p.killed { // killed before ever running: skip the body
		fn(p)
	}
}

// drainWorkers ends the coroutines of all idle pooled workers. Called when
// the simulation quiesces with no live processes, so a finished Simulation
// leaves no parked goroutines behind.
func (s *Simulation) drainWorkers() {
	for _, w := range s.freeWorkers {
		w.stop()
	}
	s.freeWorkers = s.freeWorkers[:0]
}

// Run executes events until none remain or until a process panics. It
// returns an error if a process panicked, or if live processes remain
// blocked with no pending events (deadlock). The clock stops at the last
// executed event.
func (s *Simulation) Run() error { return s.run(Time(1<<62-1), false) }

// RunUntil executes events with timestamps <= limit and advances the
// clock to exactly limit on return (even if the queue drained earlier).
func (s *Simulation) RunUntil(limit Time) error { return s.run(limit, true) }

// next selects the next event to execute, honouring the order argument in
// the push comment: heap entries for the current instant first, then the
// ready queue, then the earliest future heap entry. The returned event is
// still queued; the caller pops it after the limit check. Tombstones of
// cancelled timers are discarded on the way, without touching the clock:
// a run ends at the last event that did something.
func (s *Simulation) next() (e *event, fromReady bool) {
	for {
		switch {
		case len(s.events) > 0 && s.events[0].at <= s.now:
			e, fromReady = s.events[0].e, false
		case s.readyHead < len(s.ready):
			e, fromReady = s.ready[s.readyHead], true
		case len(s.events) > 0:
			e, fromReady = s.events[0].e, false
		default:
			return nil, false
		}
		if e.p != nil || e.afn != nil || e.fn != nil {
			return e, fromReady
		}
		s.pop(fromReady)
		s.putEvent(e)
	}
}

func (s *Simulation) pop(fromReady bool) {
	if fromReady {
		s.ready[s.readyHead] = nil
		s.readyHead++
		if s.readyHead == len(s.ready) {
			s.ready = s.ready[:0]
			s.readyHead = 0
		}
		return
	}
	s.events.popEvent()
}

// exec runs one popped event and recycles it.
func (s *Simulation) exec(e *event) {
	s.now = e.at
	switch {
	case e.p != nil:
		s.dispatch(e.p)
	case e.afn != nil:
		e.afn(e.arg)
	default:
		e.fn()
	}
	s.putEvent(e)
}

func (s *Simulation) run(limit Time, advance bool) error {
	for {
		e, fromReady := s.next()
		if e == nil {
			break
		}
		if e.at > limit {
			s.now = limit
			return nil
		}
		s.pop(fromReady)
		s.exec(e)
		if s.failure != nil {
			return s.failure
		}
	}
	if len(s.procs) > 0 || len(s.parked) > 0 {
		return s.deadlockError()
	}
	s.drainWorkers()
	if advance && s.now < limit {
		s.now = limit
	}
	return nil
}

// Step executes a single pending event. It reports whether an event was
// executed and any process failure.
func (s *Simulation) Step() (bool, error) {
	e, fromReady := s.next()
	if e == nil {
		return false, nil
	}
	s.pop(fromReady)
	s.exec(e)
	return true, s.failure
}

// Park records that a scheduler-context activity — a chain of callbacks,
// which unlike a process the scheduler cannot see — now waits on another
// party, and Unpark that it went on. An activity still parked when the
// event queue drains is a deadlock exactly as a blocked process is, and is
// reported under the name it parked with.
func (s *Simulation) Park(what string) { s.parked[what]++ }

// Unpark undoes one Park(what).
func (s *Simulation) Unpark(what string) {
	if n := s.parked[what]; n > 1 {
		s.parked[what] = n - 1
	} else {
		delete(s.parked, what)
	}
}

func (s *Simulation) deadlockError() error {
	var names []string
	blocked := len(s.procs)
	for p := range s.procs {
		names = append(names, fmt.Sprintf("%s (%s)", p.name, p.state))
	}
	for what, n := range s.parked {
		names = append(names, fmt.Sprintf("%s ×%d", what, n))
		blocked += n
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v: %d blocked forever: %v",
		Duration(s.now), blocked, names)
}

// Pending reports the number of scheduled events, counting a cancelled
// timer until the scheduler has discarded it.
func (s *Simulation) Pending() int {
	return len(s.events) + len(s.ready) - s.readyHead
}

// LiveProcs reports the number of spawned, unterminated processes.
func (s *Simulation) LiveProcs() int { return len(s.procs) }
