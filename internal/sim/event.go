package sim

// Event is a one-shot completion: it starts untriggered, any number of
// processes may Await it, and a single Trigger wakes them all. Awaiting an
// already-triggered event returns immediately. Events are the building
// block for request completion (minimpi), job completion (ARM) and joins.
type Event struct {
	sim       *Simulation
	fired     bool
	waiters   []waiterRef
	callbacks []eventCallback
	// Inline backing arrays: nearly all events carry at most two waiters
	// and one callback, so registration allocates nothing.
	winline  [2]waiterRef
	cbinline [1]eventCallback
}

// eventCallback is one OnTrigger registration; exactly one of fn and afn
// is set (afn carries arg, the closure-free form).
type eventCallback struct {
	fn  func()
	afn func(any)
	arg any
}

// eventWaiter links a blocked process to one or more events (AwaitAny).
// Waiters are pooled: gen identifies the wait they were registered for, so
// a registration left behind on a never-fired event (AwaitAny) cannot wake
// the waiter's next user.
type eventWaiter struct {
	p     *Proc
	woken bool // set by the first event that fires; later ones are no-ops
	gen   uint32
}

// waiterRef is a registration of a waiter on one event, pinned to the
// waiter's generation at registration time.
type waiterRef struct {
	w   *eventWaiter
	gen uint32
}

func (s *Simulation) getWaiter(p *Proc) *eventWaiter {
	if n := len(s.freeWaiters); n > 0 {
		w := s.freeWaiters[n-1]
		s.freeWaiters = s.freeWaiters[:n-1]
		w.p = p
		return w
	}
	return &eventWaiter{p: p}
}

// putWaiter recycles a waiter once its wait has returned. Bumping gen
// invalidates every registration still pointing at it. Waits that unwind
// via kill never reach their put call, so a waiter referenced by a dead
// process's registrations is simply dropped.
func (s *Simulation) putWaiter(w *eventWaiter) {
	w.gen++
	w.p = nil
	w.woken = false
	s.freeWaiters = append(s.freeWaiters, w)
}

// NewEvent creates an untriggered event.
func NewEvent(s *Simulation) *Event {
	e := &Event{}
	e.Init(s)
	return e
}

// Init prepares a zero Event in place. It lets larger records (requests,
// messages) embed their completion events by value instead of allocating
// them separately. An Event must not be moved or copied after Init.
func (e *Event) Init(s *Simulation) {
	e.sim = s
	e.fired = false
	e.waiters = e.winline[:0]
	e.callbacks = e.cbinline[:0]
}

// Triggered reports whether the event has fired.
func (e *Event) Triggered() bool { return e.fired }

func (e *Event) addWaiter(w *eventWaiter) {
	e.waiters = append(e.waiters, waiterRef{w: w, gen: w.gen})
}

// Trigger fires the event, waking all current waiters at the present
// virtual time. Triggering an already-fired event is a no-op.
func (e *Event) Trigger() {
	if e.fired {
		return
	}
	e.fired = true
	for i, ref := range e.waiters {
		e.waiters[i] = waiterRef{}
		w := ref.w
		if w.gen != ref.gen || w.woken {
			continue // registration outlived its wait, or already woken
		}
		w.woken = true
		w.p.wake()
	}
	e.waiters = nil
	for i, cb := range e.callbacks {
		e.callbacks[i] = eventCallback{}
		if cb.afn != nil {
			e.sim.AfterCall(0, cb.afn, cb.arg)
		} else {
			e.sim.schedule(e.sim.now, cb.fn)
		}
	}
	e.callbacks = nil
}

// OnTrigger registers fn to run (in scheduler context, at the trigger
// instant) when the event fires. If the event has already fired, fn is
// scheduled at the current virtual time. Callbacks must not block; they
// may schedule work, trigger other events, or spawn processes.
func (e *Event) OnTrigger(fn func()) {
	if e.fired {
		e.sim.schedule(e.sim.now, fn)
		return
	}
	e.callbacks = append(e.callbacks, eventCallback{fn: fn})
}

// OnTriggerCall is OnTrigger without the closure: fn(arg) runs at the
// trigger instant. Allocation-free when fn is a top-level function and arg
// a pointer.
func (e *Event) OnTriggerCall(fn func(any), arg any) {
	if e.fired {
		e.sim.AfterCall(0, fn, arg)
		return
	}
	e.callbacks = append(e.callbacks, eventCallback{afn: fn, arg: arg})
}

const (
	stateAwaitingEvent = "awaiting event"
	stateAwaitingAny   = "awaiting any event"
)

// Await blocks the calling process until the event fires. Returns
// immediately if it already has.
func (e *Event) Await(p *Proc) {
	if e.fired {
		return
	}
	s := e.sim
	w := s.getWaiter(p)
	e.addWaiter(w)
	p.block(stateAwaitingEvent)
	s.putWaiter(w)
}

// AwaitAny blocks until any of the given events fires and returns the index
// of one fired event. If several are already triggered, the lowest index
// wins.
func AwaitAny(p *Proc, events ...*Event) int {
	for i, e := range events {
		if e.fired {
			return i
		}
	}
	s := p.sim
	w := s.getWaiter(p)
	for _, e := range events {
		e.addWaiter(w)
	}
	p.block(stateAwaitingAny)
	// Registrations left on the other events die with the waiter's
	// generation once it is recycled below.
	for i, e := range events {
		if e.fired {
			s.putWaiter(w)
			return i
		}
	}
	// Unreachable: we were woken, so some event fired.
	panic("sim: AwaitAny woken with no fired event")
}
