package core

import (
	"cmp"
	"fmt"
	"slices"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// This file is the daemon's session layer. A session is a namespace, not
// a scheduler: its own view of the device allocator (ownership set +
// memory quota) and its own streams. Every (session, stream) pair gets
// the same long-lived mailbox worker, so commands on one stream execute
// strictly in order with one in flight, and tenants interleave because
// the device's engines serve the workers' commands FIFO — a deep backlog
// in one session delays its own stream, never a neighbour's turn.
// Session-less requests (session id 0, the default) run in the daemon's
// root session, which has no view: nothing is checked and nothing is
// charged, exactly the exclusive-mode path.

// maxSessions bounds the daemon's session table; beyond it, opens fail
// instead of letting a hostile client grow daemon state without bound.
const maxSessions = 1024

// maxSessionStreams bounds the live streams of one tenant session. A
// stream id comes off the wire and starts a parked worker process, so a
// tenant may not open all 256; the middleware itself uses streams 0-2.
// The root session belongs to the exclusive holder and keeps the full
// uint8 range.
const maxSessionStreams = 16

// sessKey identifies a session: the owning client's rank plus the
// client-chosen session id (unique per client, so tenants cannot collide
// or forge each other's keys — the rank comes from the transport). The
// root session has the zero key.
type sessKey struct {
	src int
	id  uint64
}

// session is one namespace on the daemon: a tenant's, or the root. A
// tenant's record goes back to the daemon once the session is retired, and
// the next open reuses it, view, tables and helper.
type session struct {
	key sessKey
	// view is the tenant's ownership set and quota; nil for the root
	// session, whose holder owns the whole device.
	view *gpu.AllocView
	// streams maps a stream id to the mailbox of its worker, started on
	// first use.
	streams map[uint8]*sim.Mailbox
	// closing is set once a close or reap has begun, which rejects new work;
	// drain fires when every command accepted before that has completed and
	// the stream workers have exited; then retired, bound to the record once,
	// frees the session and answers closers.
	closing bool
	drain   syncGroup
	closers []closer
	retired func(*sim.Proc)
	// reset: a session reset's helper may still hold the record, so it is
	// not reused.
	reset bool
}

// closer is a request a retiring session answers once freed: a close, or a
// reap counting its victims down (left) and answering at zero.
type closer struct {
	src   int
	reqID uint64
	left  *int
}

// eachStream calls fn on the session's stream mailboxes in stream order,
// which keeps event creation order — and the simulation — deterministic.
func (sess *session) eachStream(fn func(*sim.Mailbox)) {
	for id, n := 0, len(sess.streams); n > 0; id++ {
		if mbox := sess.streams[uint8(id)]; mbox != nil {
			n--
			fn(mbox)
		}
	}
}

// checkOwned rejects a command that names a device pointer outside the
// session's namespace. This is the isolation fix sharing makes
// reachable: the daemon no longer trusts any valid device pointer, only
// the requesting session's own allocations. A foreign pointer fails with
// ErrNotOwner and the allocation behind it is never touched. The root
// session has no view: its holder owns the whole device.
func (sess *session) checkOwned(q *request) error {
	if sess.key.src < 0 {
		panic("core: use of a retired session record")
	}
	if sess.view == nil {
		return nil
	}
	owns := func(p gpu.Ptr) error {
		if p == 0 {
			return nil // null pointers fail device-side validation instead
		}
		if !sess.view.Owns(p) {
			return fmt.Errorf("%w: ptr %#x", ErrNotOwner, uint64(p))
		}
		return nil
	}
	switch q.op {
	case OpMemFree, OpMemset, OpMemcpyH2D, OpMemcpyD2H, OpWriteInline, OpD2DSend, OpD2DRecv:
		return owns(q.ptr)
	case OpMemcpyD2D:
		return cmp.Or(owns(q.ptr), owns(q.ptr2))
	case OpKernelRun:
		for _, a := range q.launch.Args {
			if a.Kind == gpu.KindPtr {
				if err := owns(a.Ptr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sessGone(id uint64) error {
	return fmt.Errorf("%w: session %d", ErrNoSession, id)
}

// openSession registers a new session.
func (d *Daemon) openSession(q *request) {
	src, key := q.src, sessKey{src: q.src, id: q.session}
	if d.sessions[key] != nil {
		d.respond(src, q.reqID, fmt.Errorf("core: session %d already open", q.session), 0)
		return
	}
	if len(d.sessions) >= maxSessions {
		d.respond(src, q.reqID, fmt.Errorf("core: session table full (%d sessions)", maxSessions), 0)
		return
	}
	sess := d.freeSessions.Get()
	if sess.view == nil {
		sess.view, sess.streams = gpu.NewAllocView(0), make(map[uint8]*sim.Mailbox)
	}
	if sess.retired == nil { // a new record, or one an ended run handed back
		sess.retired = func(p *sim.Proc) { d.retired(p, sess) }
	}
	sess.key, sess.closing, sess.closers = key, false, sess.closers[:0]
	sess.view.Reset(q.quota)
	d.sessions[key] = sess
	d.stats.SessionsOpened++
	d.respond(src, q.reqID, nil, 0)
}

// closeSession drains the session's in-flight work, frees every
// allocation it still owns (sanitize-on-release, scoped to one tenant —
// never a device-wide reset), and forgets it. Closing an unknown session
// succeeds: closes are idempotent so retransmits and teardown races are
// harmless.
func (d *Daemon) closeSession(q *request) {
	src, reqID := q.src, q.reqID
	sess := d.sessions[sessKey{src: src, id: q.session}]
	if sess == nil {
		d.respond(src, reqID, nil, 0)
		return
	}
	d.retire(sess, closer{src: src, reqID: reqID})
}

// resetSession is the session-scoped acDeviceReset: it waits for the
// session's in-flight work, then frees its allocations. The session
// stays open.
func (d *Daemon) resetSession(sess *session, q *request) {
	src, reqID := q.src, q.reqID
	bar := d.barrier(new(syncGroup), false, sess)
	sess.reset = true
	d.spawn(d.mainP, fmt.Sprintf("%s-sess%d-reset", d.dev.Name(), sess.key.id), func(p *sim.Proc) {
		bar.Await(p)
		d.respond(src, reqID, d.freeSession(p, sess), 0)
	})
}

// reapSessions closes every session the target client rank holds: the
// ARM's reclaim path after a tenant dies. Only the dead tenant's state
// is sanitized; every other session keeps running throughout. The
// response arrives once all victim sessions are drained and freed.
func (d *Daemon) reapSessions(q *request) {
	left := 0
	for _, sess := range d.sortedSessions() {
		if sess.key.src == q.peer {
			left++
			d.retire(sess, closer{src: q.src, reqID: q.reqID, left: &left})
		}
	}
	if left == 0 {
		d.respond(q.src, q.reqID, nil, 0)
	}
}

// retire tears a session down on behalf of a close or a reap: it stops
// admitting work and starts the helper that waits until every command
// accepted so far has completed and the stream workers have exited, frees
// what the session still owns, drops it from the table and answers to. A
// session being retired twice (a reap racing the tenant's own close) drains
// once, and one helper answers both.
func (d *Daemon) retire(sess *session, to closer) {
	sess.closers = append(sess.closers, to)
	if !sess.closing {
		d.barrier(&sess.drain, true, sess)
		sess.closing = true
		d.spawn(d.mainP, "sess-close", sess.retired)
	}
}

// retired is a retiring session's helper. It hands the record and its
// mailboxes back to the daemon, unless a reset's helper may still hold the
// record; under DYNACC_POISON=1 it retires the record (a later use panics).
func (d *Daemon) retired(p *sim.Proc, sess *session) {
	sess.drain.done.Await(p)
	err := d.freeSession(p, sess)
	if d.sessions[sess.key] == sess {
		delete(d.sessions, sess.key)
	}
	for _, to := range sess.closers {
		if to.left == nil {
			d.respond(to.src, to.reqID, err, 0)
		} else if *to.left--; *to.left == 0 {
			d.respond(to.src, to.reqID, nil, 0)
		}
	}
	if poisonFreed || sess.reset {
		sess.key.src = -1
	} else {
		sess.eachStream(func(mbox *sim.Mailbox) { d.mboxes = append(d.mboxes, mbox) })
		d.freeSessions.Put(sess)
	}
	clear(sess.streams)
}

// freeSession releases every allocation the session still owns.
func (d *Daemon) freeSession(p *sim.Proc, sess *session) error {
	var first error
	for _, ptr := range sess.view.Ptrs() {
		err := d.dev.MemFree(p, ptr)
		sess.view.NoteFree(ptr)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sortedSessions returns the open tenant sessions ordered by client rank,
// then session id (in open order), so teardown scans are deterministic.
func (d *Daemon) sortedSessions() []*session {
	out := make([]*session, 0, len(d.sessions))
	for _, sess := range d.sessions {
		out = append(out, sess)
	}
	slices.SortFunc(out, func(a, b *session) int {
		return cmp.Or(cmp.Compare(a.key.src, b.key.src), cmp.Compare(a.key.id, b.key.id))
	})
	return out
}
