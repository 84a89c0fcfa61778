package minimpi

import (
	"fmt"
	"sync"
)

// Transport is the pluggable message-carrying backend of a World. Every
// posted send — point-to-point or collective-internal — reaches the wire
// through exactly one Deliver call, made in scheduler context from
// isendAnyTag after the request and message records are initialized.
//
// Two backends exist: the in-sim transport (default; models the
// interconnect on the virtual clock and stays the Tier-1 oracle) and
// nettrans.Transport, which carries frames between OS processes over TCP.
// A distributed backend routes local-destination messages to the sim
// backend unchanged and remote-destination messages onto the wire; frames
// arriving from remote peers re-enter the World through InjectRemote and
// land in the same matching queues (posted receives, unexpected envelopes)
// a local send would.
//
// Contract for Deliver:
//   - It runs in scheduler context and must not block.
//   - It owns the Message from that point on. An owned payload
//     (IsendOwned) must eventually return to the payload pool — either by
//     the receiver (local delivery; World.PutPayload) or by the transport
//     itself once the bytes are on the wire (remote delivery).
//   - The sender's request must eventually complete (FinishLocal or the
//     sim flight), or be cancellable; "lost forever with no signal" is
//     reserved for fault injection.
//   - A borrowed payload (Isend) is the sender's again once its request
//     completes. Copy it out and FinishLocal at once (eager), or write it
//     from the sender's buffer, FinishLocal once written and let OnCancel
//     take back a send not yet written (rendezvous).
//   - Whoever completes the sender's request ends the message's sender
//     half: the sim flight at sendRelease, a remote-bound transport with
//     FinishLocal, which recycles the record — no local receiver will ever
//     see it — so the transport must not touch m afterwards.
type Transport interface {
	// Deliver carries one message toward its destination rank.
	Deliver(m *Message)
	// Stats reports cumulative connection-level counters. The sim backend
	// returns zeroes: it has no connections to account for.
	Stats() TransportStats
	// Close releases transport resources (sockets, goroutines). The sim
	// backend is a no-op.
	Close() error
}

// TransportStats counts connection-level activity of a transport backend,
// complementing the per-Comm WireStats message/byte counters with the
// things only a real network has: dials, reconnects, handshake failures
// and resent frames.
type TransportStats struct {
	Dials             int64 // connection attempts (including redials)
	Reconnects        int64 // successful re-establishments after a drop
	HandshakeFailures int64 // connections rejected during the handshake
	FramesSent        int64
	FramesReceived    int64
	FramesResent      int64 // frames re-queued after a connection drop
	BytesSent         int64 // framed bytes, headers included
	BytesReceived     int64
}

// simTransport is the in-sim backend: the flight of every message is
// modelled on the virtual clock by the send chain in p2p.go. What Deliver
// pushes is load-bearing: exactly one event at the current instant, the
// head of the chain, which only then schedules the send overhead. That is
// the event a process spawned per message would occupy the queue with, and
// the recorded figures and TestGoldenSendSchedule are timed against that
// order: scheduling the overhead from here directly would take its heap
// sequence number early and reorder same-instant ties elsewhere.
type simTransport struct {
	w *World
}

func (t simTransport) Deliver(m *Message) {
	w := t.w
	if w.params.Rendezvous(m.size) {
		m.ctsEv.Init(w.sim)
		m.cts = &m.ctsEv
		m.sreq.cancelEv.Init(w.sim)
		m.sreq.cancel = &m.sreq.cancelEv
	}
	w.sim.AfterCall(0, sendStart, m)
}

func (t simTransport) Stats() TransportStats { return TransportStats{} }
func (t simTransport) Close() error          { return nil }

// SimTransport returns the world's in-sim backend. A distributed transport
// wraps it to keep local-destination traffic on the virtual clock.
func (w *World) SimTransport() Transport { return simTransport{w} }

// SetTransport installs a transport backend. Call during setup, before any
// traffic flows; the previous backend is not drained.
func (w *World) SetTransport(t Transport) { w.transport = t }

// TransportStats reports the installed backend's connection counters.
func (w *World) TransportStats() TransportStats { return w.transport.Stats() }

// Envelope is the matching metadata of one message as it crosses a
// process boundary: everything a remote World needs to land the payload in
// its matching queues.
type Envelope struct {
	Src     int // world rank of the sender
	SrcComm int // sender's rank within the sending communicator
	Dst     int // world rank of the destination
	Ctx     int // communicator context id
	Tag     Tag
	Size    int // wire size; len(payload) for carried payloads, else metadata-only
}

// Dst returns the destination world rank of the message.
func (m *Message) Dst() int { return m.dstEp.rank }

// RemoteEnvelope returns the message's matching metadata in
// process-boundary form.
func (m *Message) RemoteEnvelope() Envelope {
	return Envelope{
		Src:     m.srcWorld,
		SrcComm: m.srcComm,
		Dst:     m.dstEp.rank,
		Ctx:     m.ctx,
		Tag:     m.tag,
		Size:    m.size,
	}
}

// TakePayload hands the message payload (nil for sized sends) to the
// transport. An owned payload (IsendOwned) is detached from the message
// and owned reports true: the transport now holds the only reference and
// must PutBuf it once the bytes are on the wire. A borrowed payload is
// returned as is and stays valid only until FinishLocal lets the sender
// reuse it.
func (m *Message) TakePayload() (data []byte, owned bool) {
	data, owned = m.data, m.owned
	if owned {
		m.data, m.owned = nil, false
	}
	return data, owned
}

// FinishLocal completes the send at the sender without modelling a flight:
// the request fires, the endpoint's send counters advance, and an owned
// payload the transport did not take returns to the payload pool. A
// remote-bound transport calls it, in scheduler context, once the sender's
// buffer is free again (see Transport). The message record is recycled:
// the caller must not use m again.
func (m *Message) FinishLocal() {
	m.completeSend()
	m.srcEp.traffic.MsgsSent++
	m.srcEp.traffic.BytesSent += int64(m.size)
	if m.owned && m.data != nil {
		m.w.PutBuf(m.data)
	}
	m.w.putMessage(m)
}

// OnCancel arms Request.Cancel for a send a transport holds by reference:
// fn(arg) runs in scheduler context to drop the sends Canceled but unwritten.
func (m *Message) OnCancel(fn func(any), arg any) {
	m.sreq.cancelEv.Init(m.w.sim)
	m.sreq.cancel = &m.sreq.cancelEv
	m.sreq.cancel.OnTriggerCall(fn, arg)
}

// Canceled reports whether the send, still in flight, was canceled.
func (m *Message) Canceled() bool { return m.sreq.status.Canceled }

// InjectRemote lands a message that arrived from another process in the
// destination rank's matching queues, exactly as a local send's envelope
// would, with the payload already present (remote transfers are always
// eager). It is safe to call from any goroutine: the frame joins the
// world's inbound queue, which is landed from the scheduler loop, so it
// requires the simulation to be running under sim.RunRealtime.
//
// payload must be nil (sized send) or exactly env.Size bytes; the World
// takes ownership of it as a pool buffer (transports read into
// World.GetBuf), and the receiver's status says so (Status.Pooled).
func (w *World) InjectRemote(env Envelope, payload []byte) error {
	if env.Dst < 0 || env.Dst >= len(w.eps) {
		return fmt.Errorf("minimpi: InjectRemote: rank %d out of range [0,%d)", env.Dst, len(w.eps))
	}
	if payload != nil && len(payload) != env.Size {
		return fmt.Errorf("minimpi: InjectRemote: payload %dB does not match envelope size %dB", len(payload), env.Size)
	}
	in := &w.inbound
	in.mu.Lock()
	first := len(in.frames) == 0
	in.frames = append(in.frames, inboundFrame{env, payload})
	in.mu.Unlock()
	if first {
		w.sim.Inject(in.land)
	}
	return nil
}

// inbound is the world's queue of frames from remote peers. InjectRemote
// appends a frame by value and injects land, bound once, only when the
// queue goes from empty to non-empty; land takes the whole queue, so a frame
// costs no allocation and frames land in arrival order.
type inbound struct {
	mu     sync.Mutex
	frames []inboundFrame
	// spare is the previous batch, emptied: land swaps it in for frames,
	// as the simulation's injection queue does. Scheduler context only.
	spare []inboundFrame
	land  func()
}

type inboundFrame struct {
	env     Envelope
	payload []byte
}

// landInbound lands every queued frame, in scheduler context.
func (w *World) landInbound() {
	in := &w.inbound
	in.mu.Lock()
	batch := in.frames
	in.frames, in.spare = in.spare, nil
	in.mu.Unlock()
	for _, f := range batch {
		w.land(f.env, f.payload)
	}
	clear(batch) // drop the payloads, keep the array
	in.spare = batch[:0]
}

// land delivers one remote frame to its destination's matching queues.
func (w *World) land(env Envelope, payload []byte) {
	ep := w.eps[env.Dst]
	m := w.getMessage(1) // the sender's half ended in another process
	m.ctx, m.srcWorld, m.srcComm, m.tag, m.size = env.Ctx, env.Src, env.SrcComm, env.Tag, env.Size
	m.data, m.owned, m.dstEp = payload, payload != nil, ep
	ep.traffic.MsgsReceived++
	ep.traffic.BytesReceived += int64(env.Size)
	ep.deliverEnvelope(m)
	// The payload is already here: fire bodyArrived immediately. A
	// receive posted later still completes — OnTriggerCall on a fired
	// event schedules the completion at registration time.
	m.bodyArrived.Trigger()
}
