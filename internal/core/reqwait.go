package core

import (
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// reqWait is Request.WaitTimeout (Wait, without a deadline) for
// scheduler-context code, which cannot block: the one wait on a request
// that a leg of a callback chain makes, embedded in the chain's record: the
// daemon's pipeline blocks, and the front-end's call for a copy's blocks
// and every response.
type reqWait struct {
	req *minimpi.Request
	// waiting is set while the wait lasts, and deadline guards it under a
	// positive deadline. A record is reused for later waits, and a wake-up
	// by a request waited on before finds req, the one waited on now,
	// incomplete.
	waiting  bool
	deadline sim.Timer
	sim      *sim.Simulation
	fn       func(any)
	arg      any
}

// await reports true when req is already complete: the caller continues
// inline, where a process would not have yielded. Otherwise fn(arg) runs
// once, when req completes or — with a positive deadline — has run out of
// time, whichever comes first, at the instant and queue position at which a
// process blocked in WaitTimeout would have resumed; like that process, fn
// tells the two apart by looking at the request when it runs. The deadline
// is the one behind Event.AwaitTimeout: the request's win cancels it, and
// it resumes the chain through one more event when it runs.
func (w *reqWait) await(s *sim.Simulation, deadline sim.Duration, fn func(any), arg any) bool {
	if w.req.Completed() {
		return true
	}
	w.waiting, w.sim, w.fn, w.arg = true, s, fn, arg
	w.req.Done().OnTriggerCall(reqWaitWoken, w)
	if deadline > 0 {
		w.deadline = s.AfterCallTimer(deadline, reqWaitExpired, w)
	}
	return false
}

func reqWaitWoken(v any) {
	w := v.(*reqWait)
	if !w.waiting || !w.req.Completed() {
		// The deadline resumed the chain first, or a request waited on
		// before woke a record that is waiting on another now.
		return
	}
	w.waiting = false
	w.deadline.Cancel()
	w.fn(w.arg)
}

func reqWaitExpired(v any) {
	w := v.(*reqWait)
	if w.req.Completed() {
		// The request completed this very instant: reqWaitWoken is
		// already queued.
		return
	}
	w.waiting = false
	w.sim.AfterCall(0, w.fn, w.arg)
}
