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
	// waiting is set while the wait lasts, and expires is when it runs out
	// under a deadline. Deadline timers are never cancelled, and a record
	// is reused for later waits: a timer armed for an earlier one fires
	// before expires, a wake-up by an earlier request finds req incomplete.
	waiting bool
	expires sim.Time
	sim     *sim.Simulation
	fn      func(any)
	arg     any
}

// await reports true when req is already complete: the caller continues
// inline, where a process would not have yielded. Otherwise fn(arg) runs
// once, when req completes or — with a positive deadline — has run out of
// time, whichever comes first, at the instant and queue position at which a
// process blocked in WaitTimeout would have resumed; like that process, fn
// tells the two apart by looking at the request when it runs. The timer is
// the one behind Event.AwaitTimeout: it stays queued when the request wins,
// and resumes the chain through one more event when it does not.
func (w *reqWait) await(s *sim.Simulation, deadline sim.Duration, fn func(any), arg any) bool {
	if w.req.Completed() {
		return true
	}
	w.waiting, w.sim, w.fn, w.arg = true, s, fn, arg
	w.req.Done().OnTriggerCall(reqWaitWoken, w)
	if deadline > 0 {
		w.expires = s.Now().Add(deadline)
		s.AfterCall(deadline, reqWaitExpired, w)
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
	w.fn(w.arg)
}

func reqWaitExpired(v any) {
	w := v.(*reqWait)
	if !w.waiting || w.sim.Now() < w.expires || w.req.Completed() {
		// Stale, or the request completed this very instant and
		// reqWaitWoken is already queued.
		return
	}
	w.waiting = false
	w.sim.AfterCall(0, w.fn, w.arg)
}
