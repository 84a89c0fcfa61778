package sim

// Event is a one-shot completion: it starts untriggered, any number of
// processes may Await it, and a single Trigger wakes them all. Awaiting an
// already-triggered event returns immediately. Events are the building
// block for request completion (minimpi), job completion (ARM) and joins.
type Event struct {
	sim       *Simulation
	fired     bool
	waiters   []*Proc
	callbacks []eventCallback
	// Inline backing arrays: nearly all events carry at most two waiters
	// and one callback, so registration allocates nothing.
	winline  [2]*Proc
	cbinline [1]eventCallback
}

// eventCallback is one OnTrigger registration; exactly one of fn and afn
// is set (afn carries arg, the closure-free form).
type eventCallback struct {
	fn  func()
	afn func(any)
	arg any
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

// Trigger fires the event, waking all current waiters at the present
// virtual time. Triggering an already-fired event is a no-op.
func (e *Event) Trigger() {
	if e.fired {
		return
	}
	e.fired = true
	// A waiter killed meanwhile is woken too; dispatch skips it.
	for i, p := range e.waiters {
		e.waiters[i] = nil
		p.wake()
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

const stateAwaitingEvent = "awaiting event"

// Await blocks the calling process until the event fires. Returns
// immediately if it already has.
func (e *Event) Await(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.block(stateAwaitingEvent)
}
