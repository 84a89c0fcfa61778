package minimpi

import (
	"fmt"
	"slices"

	"dynacc/internal/sim"
)

// Message is an in-flight transfer. The envelope (matching metadata)
// travels ahead of the payload; bodyArrived fires when the payload has
// fully landed at the receiver. The record also carries the whole state of
// the flight (endpoints, requests, world, verdict, NIC units held, both
// rendezvous events), so the send chain and the completion callbacks run
// closure-free, on a record its World recycles (pool.go): no allocation.
//
// Messages are exported only so Transport implementations outside this
// package can carry them (see transport.go); all fields stay private and
// are reached through the small accessor set a transport needs.
type Message struct {
	ctx         int
	srcWorld    int // world rank of sender
	srcComm     int // communicator rank of sender
	tag         Tag
	size        int
	data        []byte
	owned       bool // data came from the payload pool; the receiver returns it
	w           *World
	srcEp       *endpoint
	dstEp       *endpoint
	sreq        *Request // sender's request
	rreq        *Request // receiver's request, once matched
	bodyArrived *sim.Event
	bodyEv      sim.Event  // backing storage for bodyArrived
	cts         *sim.Event // rendezvous clear-to-send; nil for eager sends
	ctsEv       sim.Event  // backing storage for cts
	// Send-chain state (sim backend only; see sendStart).
	dropped bool          // the link filter's verdict: vanish at envelope arrival
	parked  bool          // waiting for cts or the sender's Cancel
	tx, rx  *sim.Resource // the NIC units this message holds, as acquired
	halves  int8          // ends of the flight still to come: sendRelease, recvComplete
}

func (m *Message) status() Status { return Status{Source: m.srcComm, Tag: m.tag, Size: m.size} }

// halfOver ends one half of the flight; the second one recycles the record.
func (m *Message) halfOver() {
	if m.halves--; m.halves == 0 {
		m.w.putMessage(m)
	}
}

// completeSend fires the sender's request, at the one leg of a flight that
// does, and lets go of it: a request freed in flight is recycled here.
func (m *Message) completeSend() {
	r := m.sreq
	m.sreq = nil
	r.done.Trigger()
	if r.freed {
		m.w.putRequest(r)
	}
}

// Request is a handle for a nonblocking operation, under MPI's rule: the
// Wait (or Result) that sees it complete hands the record back to its World
// (pool.go), and the payload and Status become the caller's. Free abandons
// a request nobody will wait for. Done exposes the completion event.
type Request struct {
	doneEv   sim.Event // backing storage for done
	done     *sim.Event
	cancel   *sim.Event // armed only for rendezvous sends on the sim backend
	cancelEv sim.Event  // backing storage for cancel
	isSend   bool
	status   Status
	data     []byte
	world    *World // owner of this record
	freed    bool   // handed back, or abandoned in flight by Free
	// Posted-receive matching state, filled by irecvAnyTag: folding the
	// queue entry into the request saves an allocation per receive.
	prComm *Comm
	prCtx  int
	prSrc  int
	prTag  Tag
}

// check panics on use of a handed-back request under the chaos guard.
func (r *Request) check() {
	if r.freed && poisonFreed {
		panic("minimpi: use of a freed Request")
	}
}

// Done returns the completion event.
func (r *Request) Done() *sim.Event { r.check(); return r.done }

// Cancel aborts a send that has not completed (MPI_Cancel): a rendezvous
// payload still waiting for the receiver's clearance is abandoned and the
// request completes with Status.Canceled set. Cancelling a completed
// request or a receive is a no-op. Like MPI, a canceled-but-already-matched
// transfer leaves the peer's receive pending forever — cancellation is for
// unreachable peers.
func (r *Request) Cancel() {
	r.check()
	if r.isSend && !r.done.Triggered() {
		r.status.Canceled = true
		if r.cancel != nil {
			r.cancel.Trigger()
		}
	}
}

// Completed reports whether the operation has finished.
func (r *Request) Completed() bool { r.check(); return r.done.Triggered() }

// Wait blocks the calling process until the request completes, hands the
// record back and returns the payload (nil for sends and sized messages)
// and the status. Wait at most once: the request must not be touched again.
func (r *Request) Wait(p *sim.Proc) ([]byte, Status) {
	r.check()
	r.done.Await(p)
	return r.handBack()
}

// Result is Wait for a request already complete (see Done): it panics if
// the request is still in flight.
func (r *Request) Result() ([]byte, Status) {
	r.check()
	if !r.done.Triggered() {
		panic("minimpi: Result on incomplete request")
	}
	return r.handBack()
}

// handBack recycles a completed request and returns what it carried.
func (r *Request) handBack() ([]byte, Status) {
	data, st := r.data, r.status
	r.world.putRequest(r)
	return data, st
}

// Free abandons a request nobody will wait for (MPI_Request_free). A send
// still in flight is recycled by the leg that completes it:
// Isend(...).Free() is a fire-and-forget send. A receive is withdrawn if
// nothing matched it yet, and otherwise recycled, payload and all, when the
// matched message lands. A completed request is recycled at once, its pool
// payload returned. Under DYNACC_POISON=1 every later method call panics.
func (r *Request) Free() { r.check(); r.letGo(true) }

// letGo is Free, or with withdraw false Free that leaves a receive nothing
// has matched posted: a message landing in it, or ResetEndpoint, recycles it.
func (r *Request) letGo(withdraw bool) {
	switch {
	case r.freed:
	case r.done.Triggered():
		r.world.PutPayload(r.handBack())
	case r.isSend || !withdraw || !r.prComm.ep().withdraw(r):
		r.freed = true
	}
}

// withdraw unposts and recycles a receive nothing has matched.
func (ep *endpoint) withdraw(r *Request) bool {
	i := slices.Index(ep.posted, r)
	if i >= 0 {
		ep.posted = slices.Delete(ep.posted, i, i+1)
		r.world.putRequest(r)
	}
	return i >= 0
}

// matches reports whether an envelope satisfies a posted (src, tag) pair,
// where src is a communicator rank or AnySource.
func envelopeMatches(m *Message, ctx int, src int, tag Tag) bool {
	if m.ctx != ctx {
		return false
	}
	if src != AnySource && m.srcComm != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}

// Isend starts a nonblocking tagged send of data to dst. The caller must
// not modify data until the request completes. The send completes once the
// payload has left the sender's NIC (local completion).
func (c *Comm) Isend(dst int, tag Tag, data []byte) *Request {
	return c.isend(dst, tag, data, len(data), false)
}

// IsendOwned is Isend with buffer ownership transferred to the transport:
// data must come from World.GetBuf, the caller must not touch it after the
// call, and the receiver returns it to the pool (World.PutPayload) once the
// payload has been consumed. This is the zero-copy handoff path
// for pipelined transfer blocks.
func (c *Comm) IsendOwned(dst int, tag Tag, data []byte) *Request {
	return c.isend(dst, tag, data, len(data), true)
}

// SendCopy sends a pool copy of data (GetBuf + IsendOwned), fire and
// forget: data is the caller's again at once, and the receiver returns the
// copy (World.PutPayload). Both control planes send every message so.
func (c *Comm) SendCopy(dst int, tag Tag, data []byte) {
	buf := c.world.GetBuf(len(data))
	copy(buf, data)
	c.IsendOwned(dst, tag, buf).Free()
}

// IsendSized starts a nonblocking send of size metadata-only bytes: it
// costs exactly the virtual time of a real size-byte message but carries
// no payload. Used by paper-scale benchmarks.
func (c *Comm) IsendSized(dst int, tag Tag, size int) *Request {
	if size < 0 {
		panic(fmt.Sprintf("minimpi: IsendSized: negative size %d", size))
	}
	return c.isend(dst, tag, nil, size, false)
}

func (c *Comm) isend(dst int, tag Tag, data []byte, size int, owned bool) *Request {
	c.checkRank(dst, "Isend")
	if tag < 0 {
		panic(fmt.Sprintf("minimpi: Isend: user tags must be non-negative, got %d", tag))
	}
	return c.isendAnyTag(dst, tag, data, size, owned)
}

// IsendPadded starts a nonblocking send of data whose wire cost is that
// of size bytes, size >= len(data). The receiver gets exactly data; the
// extra bytes are accounting only. The core protocol uses it to keep
// model-mode command batches (inline writes with no backing payload)
// costing the same virtual time as their execute-mode twins.
func (c *Comm) IsendPadded(dst int, tag Tag, data []byte, size int) *Request {
	if size < len(data) {
		panic(fmt.Sprintf("minimpi: IsendPadded: size %d < len(data) %d", size, len(data)))
	}
	return c.isend(dst, tag, data, size, false)
}

// isendAnyTag is the internal send path; collectives use negative tags.
func (c *Comm) isendAnyTag(dst int, tag Tag, data []byte, size int, owned bool) *Request {
	c.wire.Msgs++
	c.wire.Bytes += int64(size)
	w := c.world
	srcEp := c.ep()
	req := w.getRequest()
	req.isSend, req.status = true, Status{Source: dst, Tag: tag, Size: size}
	m := w.getMessage(2)
	m.ctx, m.srcWorld, m.srcComm, m.tag, m.size = c.ctx, srcEp.rank, c.rank, tag, size
	m.data, m.owned, m.srcEp, m.dstEp, m.sreq = data, owned, srcEp, w.eps[c.group[dst]], req
	w.transport.Deliver(m)
	return req
}

// The flight of a message on the sim backend is a chain of scheduler
// callbacks, not a process: each function below is one leg — overheads,
// fault verdict, envelope flight, optional rendezvous, then payload
// serialization across both NICs — and ends by scheduling the next at the
// point where a process running the same script would have called Wait or
// Acquire, or waited for the first of two events. Every leg therefore pushes exactly one event, at the
// queue position the process's resumption had, so the (at, seq) order of
// every other event in the simulation does not depend on the form. All are
// top-level functions over the Message.

// parkedSend names, in a deadlock report, rendezvous sends left waiting
// for a clearance that nobody gave and a Cancel that nobody called.
const parkedSend = "mpi-send"

// sendStart is the head of the chain (scheduled by simTransport.Deliver):
// the sender's software overhead.
func sendStart(v any) {
	m := v.(*Message)
	m.w.sim.AfterCall(m.w.params.SendOverhead, sendEnterWire, m)
}

// sendEnterWire draws the fault verdict, waits out any injected delay and
// starts the envelope flight.
func sendEnterWire(v any) {
	m := v.(*Message)
	verdict := m.w.verdict(m.srcEp.rank, m.dstEp.rank, m.tag, m.size)
	m.dropped = verdict.Drop
	if verdict.Delay > 0 {
		m.w.sim.AfterCall(verdict.Delay, sendEnvelope, m)
		return
	}
	sendEnvelope(m)
}

func sendEnvelope(v any) {
	m := v.(*Message)
	m.w.sim.AfterCall(m.w.params.Latency, sendEnvelopeArrived, m)
}

func sendEnvelopeArrived(v any) {
	m := v.(*Message)
	req := m.sreq
	if m.dropped {
		// Lost on the wire: the sender sees local completion (it
		// cannot tell), the receiver never sees the envelope, and a
		// rendezvous payload is silently abandoned: the flight is over.
		m.completeSend()
		m.srcEp.traffic.MsgsSent++
		m.w.putMessage(m)
		return
	}
	m.dstEp.deliverEnvelope(m)
	switch {
	case m.cts == nil:
		sendAcquireTx(m)
	case m.cts.Triggered():
		sendCleared(m)
	case req.cancel.Triggered():
		// The sender's half is over. The receiver's stays with the landed
		// envelope, which the peer may still match or ResetEndpoint drop.
		m.completeSend()
		m.halfOver()
	default:
		// Wait for the receiver's clearance or the sender's Cancel,
		// whichever fires first. Neither event has another registrant.
		m.parked = true
		m.w.sim.Park(parkedSend)
		m.cts.OnTriggerCall(sendUnparked, m)
		req.cancel.OnTriggerCall(sendUnparked, m)
	}
}

// sendUnparked runs when cts or cancel fired; if both did, cts wins.
func sendUnparked(v any) {
	m := v.(*Message)
	if !m.parked {
		return // the other event fired too and has already resumed the send
	}
	m.parked = false
	m.w.sim.Unpark(parkedSend)
	if !m.cts.Triggered() {
		// Canceled while waiting for the receiver's clearance: the
		// payload never flows. As above, only the sender's half is over.
		m.completeSend()
		m.halfOver()
		return
	}
	sendCleared(m)
}

func sendCleared(m *Message) {
	m.w.sim.AfterCall(m.w.params.RendezvousRTT, sendAcquireTx, m)
}

// sendAcquireTx and sendAcquireRx take the sender's transmit path, then the
// receiver's receive path, each FIFO behind earlier messages. The message
// remembers the resources it took: ResetEndpoint may swap an endpoint's
// NIC under a transfer in flight, and the units go back where they came
// from.
func sendAcquireTx(v any) {
	m := v.(*Message)
	m.tx = m.srcEp.tx
	if m.tx.AcquireCall(1, sendAcquireRx, m) {
		sendAcquireRx(m)
	}
}

func sendAcquireRx(v any) {
	m := v.(*Message)
	m.rx = m.dstEp.rx
	if m.rx.AcquireCall(1, sendPayload, m) {
		sendPayload(m)
	}
}

// sendPayload occupies both paths for the serialization time.
func sendPayload(v any) {
	m := v.(*Message)
	m.w.sim.AfterCall(m.w.params.TransferTime(m.size), sendPayloadLanded, m)
}

func sendPayloadLanded(v any) {
	m := v.(*Message)
	m.completeSend() // local completion at the sender
	m.bodyArrived.Trigger()
	// Per-message completion processing occupies both endpoints a
	// little longer, bounding the achievable message rate.
	m.w.sim.AfterCall(m.w.params.MessageGap, sendRelease, m)
}

func sendRelease(v any) {
	m := v.(*Message)
	params, srcEp, dstEp := m.w.params, m.srcEp, m.dstEp
	m.tx.Release(1)
	m.rx.Release(1)
	occupancy := params.TransferTime(m.size) + params.MessageGap
	srcEp.traffic.MsgsSent++
	srcEp.traffic.BytesSent += int64(m.size)
	srcEp.traffic.TxBusy += occupancy
	dstEp.traffic.MsgsReceived++
	dstEp.traffic.BytesReceived += int64(m.size)
	dstEp.traffic.RxBusy += occupancy
	m.halfOver()
}

// Send is the blocking form of Isend.
func (c *Comm) Send(p *sim.Proc, dst int, tag Tag, data []byte) { c.Isend(dst, tag, data).Wait(p) }

// SendSized is the blocking form of IsendSized.
func (c *Comm) SendSized(p *sim.Proc, dst int, tag Tag, size int) {
	c.IsendSized(dst, tag, size).Wait(p)
}

// Irecv posts a nonblocking receive matching (src, tag); src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Irecv(src int, tag Tag) *Request {
	if src != AnySource {
		c.checkRank(src, "Irecv")
	}
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("minimpi: Irecv: user tags must be non-negative or AnyTag, got %d", tag))
	}
	return c.irecvAnyTag(src, tag)
}

func (c *Comm) irecvAnyTag(src int, tag Tag) *Request {
	w := c.world
	ep := c.ep()
	req := w.getRequest()
	req.prComm, req.prCtx, req.prSrc, req.prTag = c, c.ctx, src, tag
	// First try the unexpected queue, in envelope-arrival order.
	for i, m := range ep.unexpected {
		if envelopeMatches(m, c.ctx, src, tag) {
			ep.takeUnexpected(i)
			c.completeRecv(req, m)
			return req
		}
	}
	ep.posted = append(ep.posted, req)
	return req
}

// takeUnexpected removes unexpected[i], keeping the order: the match is
// nearly always at the head of a long queue, so the shorter side shifts
// and a pop at the head moves nothing.
func (ep *endpoint) takeUnexpected(i int) {
	u := ep.unexpected
	if i < len(u)/2 {
		copy(u[1:], u[:i])
		u[0] = nil
		u = u[1:]
	} else {
		copy(u[i:], u[i+1:])
		u[len(u)-1] = nil
		u = u[:len(u)-1]
	}
	if len(u) == 0 {
		u = ep.unexpBase[:0]
	}
	ep.unexpected = u
}

// queueUnexpected appends m to the unexpected queue. Only an append into a
// full array moves the queue back to the array's front, and only one with
// no slot free there grows it, as a plain append would.
func (ep *endpoint) queueUnexpected(m *Message) {
	u, base := ep.unexpected, ep.unexpBase[:cap(ep.unexpBase)]
	if len(u) == cap(u) && len(base) > cap(u) {
		clear(base[copy(base, u):])
		u = base[:len(u)]
	}
	ep.unexpected = append(u, m)
	if cap(ep.unexpected) > len(base) {
		ep.unexpBase = ep.unexpected[:0]
	}
}

// Recv blocks until a matching message arrives and returns its payload
// (nil for sized sends) and status.
func (c *Comm) Recv(p *sim.Proc, src int, tag Tag) ([]byte, Status) { return c.Irecv(src, tag).Wait(p) }

// completeRecv wires a matched message to its receive request: grant the
// rendezvous sender clearance, then complete once the payload has landed
// plus the receive overhead.
func (c *Comm) completeRecv(req *Request, m *Message) {
	if m.cts != nil {
		m.cts.Trigger()
	}
	m.rreq = req
	m.bodyArrived.OnTriggerCall(recvBodyArrived, m)
}

func recvBodyArrived(v any) {
	m := v.(*Message)
	m.w.sim.AfterCall(m.w.params.RecvOverhead, recvComplete, m)
}

func recvComplete(v any) {
	m := v.(*Message)
	req := m.rreq
	m.rreq = nil
	req.data, req.status = m.data, m.status()
	req.status.Pooled = m.owned
	req.done.Trigger()
	if req.freed {
		m.w.PutPayload(req.handBack())
	}
	m.halfOver()
}

// deliverEnvelope lands an envelope at the endpoint: match a posted
// receive (oldest matching first), otherwise queue as unexpected.
func (ep *endpoint) deliverEnvelope(m *Message) {
	for i, pr := range ep.posted {
		if envelopeMatches(m, pr.prCtx, pr.prSrc, pr.prTag) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			pr.prComm.completeRecv(pr, m)
			return
		}
	}
	ep.queueUnexpected(m)
}

// Iprobe reports whether a matching message has arrived (matched or
// unexpected does not matter to MPI Probe semantics; here, like MPI, only
// not-yet-received envelopes count) and its status.
func (c *Comm) Iprobe(src int, tag Tag) (Status, bool) {
	if src != AnySource {
		c.checkRank(src, "Iprobe")
	}
	for _, m := range c.ep().unexpected {
		if envelopeMatches(m, c.ctx, src, tag) {
			return m.status(), true
		}
	}
	return Status{}, false
}
