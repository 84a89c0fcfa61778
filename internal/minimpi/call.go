package minimpi

// call.go is the client half of a request/reply protocol, written once for
// both control planes: the front-end's calls to a daemon (core) and the ARM
// client's calls to a shard (arm). A Call posts its reply receive, ships the
// request and waits under one deadline rule, one resend budget and one typed
// error for a peer that stays silent; the plane says how to send, what a
// reply means and what to do with the outcome (Caller). No process blocks in
// a Call: it is driven by legs, scheduler callbacks over its Waiter, each
// standing where a process blocked in the same wait would have resumed.

import (
	"errors"
	"fmt"

	"dynacc/internal/sim"
)

// ErrTimeout reports that a peer stopped answering within a call's timeout
// budget. Concrete timeout errors are *TimeoutError values; errors.Is(err,
// ErrTimeout) matches them.
var ErrTimeout = errors.New("minimpi: request timed out; peer unreachable")

// TimeoutError is the typed error for a call whose peer let every deadline
// of its budget pass.
type TimeoutError struct {
	// Plane prefixes the message ("core", "arm"); Peer names what the silent
	// rank runs ("accelerator", "ARM").
	Plane, Peer string
	// Op is the request op code, or zero for a payload-stream transfer.
	Op uint8
	// Rank is the rank that stopped answering.
	Rank int
	// Attempts is how many deadlines ran out: for a call that resends at
	// each, how many times the request was sent.
	Attempts int
}

func (e *TimeoutError) Error() string {
	what := "payload transfer"
	if e.Op != 0 {
		what = fmt.Sprintf("op %d", e.Op)
	}
	return fmt.Sprintf("%s: %s to %s rank %d timed out after %d attempt(s)", e.Plane, what, e.Peer, e.Rank, e.Attempts)
}

// Is makes errors.Is(err, ErrTimeout) succeed for TimeoutError values.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Waiter is the one wait on a request under a deadline: a leg of a callback
// chain makes it, scheduler-context code that cannot block, embedded in the
// chain's record (a Call, a daemon's pipeline block, a follower's stream).
type Waiter struct {
	// Req is the request waited on. A record is reused for later waits, and
	// a wake-up by a request waited on before finds Req, the one waited on
	// now, incomplete.
	Req *Request
	// waiting is set while the wait lasts, and deadline guards it under a
	// positive deadline: first the time limit, then the leg it resumes.
	waiting  bool
	deadline sim.Timer
	fn       func(any)
	arg      any
}

// Await reports true when Req is already complete: the caller continues
// inline, where a process would not have yielded. Otherwise fn(arg) runs
// once, when Req completes or — with a positive deadline — has run out of
// time, whichever comes first, at the instant and queue position at which a
// process blocked on both would have resumed; like that process, fn tells
// the two apart by looking at the request when it runs. The request's win
// cancels the deadline.
func (w *Waiter) Await(deadline sim.Duration, fn func(any), arg any) bool {
	if w.Req.Completed() {
		return true
	}
	w.waiting, w.fn, w.arg = true, fn, arg
	w.Req.Done().OnTriggerCall(waiterWoken, w)
	if deadline > 0 {
		w.deadline = w.Req.world.sim.AfterCallTimer(deadline, waiterExpired, w)
	}
	return false
}

// Cancel gives the wait up, on or over, for a chain whose owner died or
// moved on: fn will not run again, the deadline is cancelled, and Req is
// freed (Request.Free). Nothing is left to resend or to move the clock.
func (w *Waiter) Cancel() { w.giveUp(true) }

// Abandon is Cancel for a chain whose owner was killed: like a dead
// process's NIC, the network keeps Req (a posted receive still matches, a
// send still flies) and recycles it when it ends, or at ResetEndpoint.
func (w *Waiter) Abandon() { w.giveUp(false) }

func (w *Waiter) giveUp(withdraw bool) {
	w.waiting = false
	w.deadline.Cancel()
	if r := w.Req; r != nil {
		w.Req = nil
		r.check()
		r.letGo(withdraw)
	}
}

func waiterWoken(v any) {
	w := v.(*Waiter)
	if !w.waiting || !w.Req.Completed() {
		// The deadline resumed the chain first, or a request waited on
		// before woke a record that is waiting on another now.
		return
	}
	w.waiting = false
	w.deadline.Cancel()
	w.fn(w.arg)
}

func waiterExpired(v any) {
	// A request that completed this very instant has waiterWoken queued.
	if w := v.(*Waiter); !w.Req.Completed() {
		w.deadline = w.Req.world.sim.AfterCallTimer(0, waiterLate, w)
	}
}

// waiterLate resumes the chain of a wait that ran out of time.
func waiterLate(v any) {
	w := v.(*Waiter)
	w.waiting = false
	w.fn(w.arg)
}

// ReplyKind is what a Caller makes of a reply.
type ReplyKind uint8

const (
	// ReplyOver: the answer. The call is over.
	ReplyOver ReplyKind = iota
	// ReplyStale: not this call's answer (a tag-window collision, an error
	// reply to garbage). The receive is posted again and waits out the time
	// the last send has left, so stale replies cannot postpone a timeout.
	ReplyStale
	// ReplyAgain: the request must be asked again (the server that answered
	// was deposed). Posted and sent again, under a full deadline and a full
	// resend budget.
	ReplyAgain
)

// Caller is a plane's half of a Call.
type Caller interface {
	// Send ships the request. A Call asks for it at Start, after
	// ReplyAgain, and at each silent deadline within its Resends budget —
	// then with silent set, and the caller may decline: a slow peer is not
	// a gone one.
	Send(silent bool)
	// Reply judges the payload of a reply, which the Call returns to the
	// pool afterwards (keep a copy of what is needed), and with ReplyOver
	// gives the outcome.
	Reply(data []byte) (ReplyKind, error)
	// Finish ends the call with its outcome, once.
	Finish(err error)
}

// Call is one request/reply exchange, driven by legs over its Waiter:
//
//   - Start posts the reply receive and ships the request; nothing waits
//     yet.
//   - Arm starts the wait for the reply: right after Start for a request of
//     one message, after the payload for a streamed copy. A wait armed at
//     Start would time a transfer longer than Timeout out with its payload
//     still streaming.
//   - respond runs when the reply is in or the deadline has run out: judge
//     the reply (Caller.Reply), resend within budget or fail with Silence,
//     and End, once.
//
// The deadline belongs to the send: a stale reply does not restart it. A
// synchronous caller (Wait) suspends until End resumes it inside the ending
// leg, so it goes on at the queue position a process woken by the reply
// itself would have.
type Call struct {
	Waiter // on Req: the reply receive once armed (before, a copy's blocks)
	// Timeout bounds the wait for a reply to each send; zero waits forever.
	Timeout sim.Duration
	// Resends is how many silent deadlines the call survives; the one after
	// ends it with Silence.
	Resends int
	// Silence is the error the call ends with when its peer stays silent,
	// Attempts filled in.
	Silence TimeoutError

	caller Caller
	comm   *Comm
	src    int // the reply's source: a rank, or AnySource
	tag    Tag
	resp   *Request // the posted reply receive, until armed
	silent int      // deadlines run out since the last send that was not a resend
	due    sim.Time // when the last send runs out of time, under a Timeout
	p      *sim.Proc
	over   bool
}

// StateCall is what a synchronous caller is blocked on.
const StateCall = "awaiting reply"

// Start posts the reply receive on comm, from src (a rank, or AnySource)
// under tag, and has caller ship the request.
func (c *Call) Start(comm *Comm, caller Caller, src int, tag Tag) {
	c.caller, c.comm, c.src, c.tag = caller, comm, src, tag
	c.resp = comm.Irecv(src, tag)
	caller.Send(false)
}

// Arm starts the wait for the reply.
func (c *Call) Arm() {
	c.Req, c.resp, c.due = c.resp, nil, c.comm.world.sim.Now().Add(c.Timeout)
	if c.Await(c.Timeout, callOver, c) {
		c.respond()
	}
}

// Wait is the synchronous call: it arms the reply wait and suspends p until
// the call is over. A caller killed meanwhile takes its call with it, and
// the deadline with the call.
func (c *Call) Wait(p *sim.Proc) {
	c.Arm()
	if !c.over {
		c.p = p
		defer func() { c.deadline.Cancel() }() // the one armed last
		p.Suspend(StateCall)
	}
}

// callOver is the leg after a reply wait.
func callOver(v any) {
	if c := v.(*Call); c.p == nil || !c.p.Killed() {
		c.respond()
	}
}

// respond deals with the reply wait that just ended — reply in or out of
// time — until the call is over or waits again.
func (c *Call) respond() {
	s, t := c.comm.world.sim, c.Timeout
	for {
		switch {
		case c.Req.Completed():
			data, st := c.Req.Result()
			c.Req = nil
			kind, err := c.caller.Reply(data)
			c.comm.world.PutPayload(data, st)
			if kind == ReplyOver {
				c.End(err)
				return
			}
			c.Req = c.comm.Irecv(c.src, c.tag)
			if kind == ReplyAgain {
				c.silent = 0
				c.caller.Send(false)
				c.due = s.Now().Add(t)
			}
		case c.silent < c.Resends:
			c.silent++
			c.caller.Send(true)
			c.due = s.Now().Add(t)
		default:
			te := c.Silence
			te.Attempts = c.silent + 1
			c.End(&te)
			return
		}
		left := t
		if t > 0 {
			if left = c.due.Sub(s.Now()); left <= 0 {
				continue // a stale reply at the very deadline
			}
		}
		if !c.Await(left, callOver, c) {
			return
		}
	}
}

// End ends the call, once: it frees what it still holds after a silence (the
// reply receive, a copy's block), the caller takes the outcome, then a
// synchronous caller goes on, inside this leg.
func (c *Call) End(err error) {
	c.over = true
	c.Cancel()
	if c.resp != nil { // a copy's blocks ran out of time
		c.resp.Free()
	}
	c.caller.Finish(err)
	if c.p != nil {
		c.p.Resume()
	}
}
