package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// ErrTimeout reports that an accelerator stopped answering within the
// configured request timeout — the client-side half of the paper's fault
// tolerance story (a broken accelerator must not take the compute node
// down with it). Concrete timeout errors are *TimeoutError values;
// errors.Is(err, ErrTimeout) matches them.
var ErrTimeout = errors.New("core: request timed out; accelerator unreachable")

// TimeoutError is the typed error for a request that exhausted its
// timeout budget, including retransmissions.
type TimeoutError struct {
	// Op is the request op code, or zero for a payload-stream transfer.
	Op uint8
	// Rank is the daemon rank that stopped answering.
	Rank int
	// Attempts is how many times the request was sent.
	Attempts int
}

func (e *TimeoutError) Error() string {
	what := "payload transfer"
	if e.Op != 0 {
		what = fmt.Sprintf("op %d", e.Op)
	}
	return fmt.Sprintf("core: %s to accelerator rank %d timed out after %d attempt(s)", what, e.Rank, e.Attempts)
}

// Is makes errors.Is(err, ErrTimeout) succeed for TimeoutError values.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Options configures a front-end's copy protocols.
type Options struct {
	// H2D and D2H select the memory-copy protocol per direction. The
	// defaults are the paper's tuned choices: adaptive 128 KiB/512 KiB
	// blocks for host-to-device and a 128 KiB pipeline for
	// device-to-host.
	H2D CopyConfig
	D2H CopyConfig
	// Timeout bounds every request round trip; zero waits forever. With a
	// timeout set, calls against a dead accelerator fail with a
	// *TimeoutError instead of blocking the compute node.
	Timeout sim.Duration
	// Retries is how many times a timed-out request header is
	// retransmitted (with the same request ID — the daemon's dedup table
	// makes retransmission idempotent) before the call fails. Payload
	// streams never retransmit: a broken copy fails after one timeout and
	// the caller decides between surfacing the error and Failover.
	Retries int
	// BatchOps, when positive, turns on stream-ordered command batching:
	// header-only operations (kernel launches, memsets, frees and small
	// inline uploads) are recorded per stream and coalesced into a single
	// opBatch wire message, flushed when BatchOps commands are queued,
	// when the buffer reaches BatchBytes, at any blocking call on the
	// stream, or explicitly via Accel.Flush. Zero (the default) keeps the
	// paper's one-wire-message-per-request path bit for bit.
	BatchOps int
	// BatchBytes bounds the wire size of one command buffer (headers plus
	// inline payloads); a recorder flushes before exceeding it. Zero
	// means DefaultBatchBytes.
	BatchBytes int
	// InlineCopy, when positive, lets host-to-device copies of at most
	// this many bytes ride inside the command buffer instead of opening a
	// block-stream exchange. Only effective with batching on.
	InlineCopy int
	// SessionQuota is the per-session device-memory budget in bytes for
	// handles opened with AttachSession: allocations past it fail with
	// ErrQuotaExceeded. Zero means unlimited. Exclusive (session-less)
	// attachments ignore it.
	SessionQuota int64
}

// DefaultBatchBytes bounds one command buffer's wire size when
// Options.BatchBytes is zero.
const DefaultBatchBytes = 64 * 1024

// DefaultOptions returns the paper's best-performing configuration.
func DefaultOptions() Options {
	return Options{
		H2D: PaperAdaptive(),
		D2H: PaperPipeline(128 * 1024),
	}
}

// BatchedOptions returns DefaultOptions with command batching enabled at
// tuned defaults: buffers of up to 64 commands or 64 KiB, and uploads of
// up to 4 KiB carried inline.
func BatchedOptions() Options {
	o := DefaultOptions()
	o.BatchOps = 64
	o.BatchBytes = DefaultBatchBytes
	o.InlineCopy = 4 * 1024
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if err := o.H2D.Validate(); err != nil {
		return err
	}
	if o.Retries < 0 {
		return fmt.Errorf("core: negative retry count %d", o.Retries)
	}
	if o.BatchOps < 0 || o.BatchBytes < 0 || o.InlineCopy < 0 {
		return fmt.Errorf("core: negative batching option (BatchOps=%d BatchBytes=%d InlineCopy=%d)",
			o.BatchOps, o.BatchBytes, o.InlineCopy)
	}
	if o.BatchOps > maxBatchOps {
		return fmt.Errorf("core: BatchOps %d exceeds protocol limit %d", o.BatchOps, maxBatchOps)
	}
	if o.SessionQuota < 0 {
		return fmt.Errorf("core: negative session quota %d", o.SessionQuota)
	}
	return o.D2H.Validate()
}

// Replacer obtains a replacement accelerator after a failure report: the
// implementation (the cluster's ARM wiring) tells the resource manager
// the old rank is dead and comes back with a freshly assigned one.
type Replacer interface {
	Replace(p *sim.Proc, failedRank int) (int, error)
}

// clientEpoch gives every front-end instance in the process a disjoint
// request-ID space, so daemons can key their idempotency tables by
// (source rank, reqID) even when several front-ends share a rank. The
// shift keeps reqID mod tagWindow — and therefore tag assignment and
// simulation timing — identical regardless of epoch.
var clientEpoch atomic.Uint64

// Client is the front-end of the computation API: it lives in a
// compute-node process and forwards ac* calls to accelerator daemons.
type Client struct {
	comm     *minimpi.Comm
	opts     Options
	nextReq  uint64
	nextSess uint64
	replacer Replacer

	// encw is the scratch encoder every request reuses: encoding costs one
	// exact-size CopyBytes allocation (the encoding is retained for
	// retransmission, so the copy is mandatory anyway). Safe without
	// locking — encodes never block, and the simulation is cooperative.
	encw *wire.Writer

	// attached lists every handle this client created, so rank-wide
	// operations (MigrateRank) can find the handles pointing at a daemon.
	attached []*Accel

	// tuner is the per-(peer,direction) link-model table behind
	// CopyConfig{Kind: Autotune} (autotune.go). Nil until the first
	// Autotune-planned transfer; never touched on the default path.
	tuner *tuner
}

// NewClient creates a front-end on the given communicator.
func NewClient(comm *minimpi.Comm, opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Client{comm: comm, opts: opts, nextReq: clientEpoch.Add(1) << 40, encw: wire.NewWriter(64)}, nil
}

// Options returns the client's protocol configuration.
func (c *Client) Options() Options { return c.opts }

// Comm returns the communicator the client sends on. Tests use its
// WireStats to assert how many wire messages an operation sequence cost.
func (c *Client) Comm() *minimpi.Comm { return c.comm }

// SetReplacer installs the failover path used by Client.Failover. The
// cluster builder wires its ARM client in here.
func (c *Client) SetReplacer(r Replacer) { c.replacer = r }

// Attach binds an accelerator handle (the communicator rank its daemon
// listens on) and returns the per-accelerator API object. The handle is
// what the ARM's Acquire returned.
func (c *Client) Attach(daemonRank int) *Accel {
	a := &Accel{
		c:      c,
		rank:   daemonRank,
		allocs: make(map[gpu.Ptr]*allocRecord),
		remap:  make(map[gpu.Ptr]gpu.Ptr),
		recs:   make(map[uint8]*recorder),
	}
	c.attached = append(c.attached, a)
	return a
}

// AttachSession binds a daemon rank like Attach and opens a private
// tenant session on it: the handle's allocations live in their own
// namespace (no other session can read, write or free them), count
// against Options.SessionQuota, and are freed together by CloseSession.
// Use it with shared ARM leases (arm.AcquireShared) to time-share one
// accelerator among several clients; plain Attach keeps the exclusive
// session-less protocol bit for bit.
func (c *Client) AttachSession(p *sim.Proc, daemonRank int) (*Accel, error) {
	a := c.Attach(daemonRank)
	if err := a.openSession(p); err != nil {
		return nil, err
	}
	return a, nil
}

// OpenSession establishes a tenant session on an already-attached
// handle. Equivalent to AttachSession, but usable when the handle needs
// configuration (e.g. a fencing token) before the open travels.
func (a *Accel) OpenSession(p *sim.Proc) error { return a.openSession(p) }

// openSession establishes a fresh session id on the handle's current
// rank. Failover/Migrate reuse it to re-home a sessioned handle.
func (a *Accel) openSession(p *sim.Proc) error {
	a.c.nextSess++
	a.session = a.c.nextSess
	err := a.newCall(&request{op: OpSessionOpen, quota: a.c.opts.SessionQuota}, true).statusOnly(p)
	if err != nil {
		// A refused open (table full, fenced token) must not leave the
		// handle claiming a session the daemon never admitted — later
		// requests would all fail with ErrNoSession.
		a.session = 0
	}
	return err
}

// Session returns the handle's session id; zero means the exclusive
// session-less mode.
func (a *Accel) Session() uint64 { return a.session }

// CloseSession flushes the handle and closes its session: the daemon
// drains the session's in-flight work and frees every allocation it
// still owns, leaving other tenants untouched. Closing is idempotent;
// the handle is dead afterwards (further calls fail with ErrNoSession).
// A no-op on session-less handles.
func (a *Accel) CloseSession(p *sim.Proc) error {
	if a.session == 0 {
		return nil
	}
	a.flushAll()
	err := a.newCall(&request{op: OpSessionClose}, true).statusOnly(p)
	if err == nil {
		a.allocs = make(map[gpu.Ptr]*allocRecord)
		a.remap = make(map[gpu.Ptr]gpu.Ptr)
	}
	return err
}

// ReapSessions closes every session a given client rank holds on this
// handle's daemon: the ARM's reclaim path after a tenant death. Only the
// dead tenant's allocations are freed.
func (a *Accel) ReapSessions(p *sim.Proc, clientRank int) error {
	return a.newCall(&request{op: OpSessionReap, peer: clientRank}, true).statusOnly(p)
}

// allocRecord is the front-end's failover ledger entry for one device
// allocation: its size, and a lazily created host mirror of everything
// the front-end itself put there (uploads and memsets). The mirror is
// what Failover replays onto a replacement accelerator.
type allocRecord struct {
	size   int
	shadow []byte
}

// virtBase is where minted pointer ids start; far above any address a
// device allocator hands out, so app-visible pointers stay unique even
// when a replacement daemon reuses addresses of the failed one.
const virtBase gpu.Ptr = 1 << 52

// Accel is the paper's accelerator handle: every computation-API call
// names it explicitly (acMemAlloc(args, ac_handle), ...).
type Accel struct {
	c    *Client
	rank int

	// Failover ledger: app-visible pointer → allocation record, plus the
	// translation of app-visible pointers to the current daemon's
	// physical pointers (identity until a failover redirects them).
	allocs   map[gpu.Ptr]*allocRecord
	remap    map[gpu.Ptr]gpu.Ptr
	nextVirt gpu.Ptr

	// Per-stream command recorders (active only with Options.BatchOps
	// positive). noFlush suspends both recording and flushing while
	// Failover/Migrate rebuild state on a new rank, so recorded-but-
	// unflushed commands replay on the replacement as one whole batch
	// instead of interleaving with rebuild traffic.
	recs    map[uint8]*recorder
	noFlush bool

	// session is the tenant session id every request of this handle
	// carries (AttachSession); zero is the exclusive session-less mode,
	// whose wire traffic is identical to the pre-session protocol.
	session uint64

	// fence is the fencing token every request of this handle carries:
	// the ARM leadership epoch the underlying lease was granted under
	// (DESIGN.md §12). Zero (the default) omits the token entirely,
	// keeping the wire traffic identical to the pre-fencing protocol.
	fence uint64

	// cap is the remote device's capability descriptor, stamped by the
	// cluster at attach time on heterogeneous fleets (zero otherwise).
	// Client-side only; it never rides on the wire.
	cap gpu.Capability
}

// SetFence stamps the handle with a fencing token; every subsequent
// request carries it. The cluster sets this from the grant's epoch so a
// lease minted by a deposed ARM leader cannot reset or re-admit state on
// a daemon a promoted successor already fenced.
func (a *Accel) SetFence(epoch uint64) { a.fence = epoch }

// Fence returns the handle's fencing token (0 = token-less).
func (a *Accel) Fence() uint64 { return a.fence }

// SetCapability stamps the handle with the remote device's capability
// descriptor, so capability-aware drivers (magma's heterogeneous QR)
// can pick roles per device without a round trip.
func (a *Accel) SetCapability(c gpu.Capability) { a.cap = c }

// Capability returns the stamped descriptor (zero if never stamped).
func (a *Accel) Capability() gpu.Capability { return a.cap }

// Rank returns the communicator rank of the accelerator's daemon.
func (a *Accel) Rank() int { return a.rank }

// Client returns the front-end this handle belongs to.
func (a *Accel) Client() *Client { return a.c }

// translate maps an app-visible pointer to the current daemon's physical
// pointer. Pointers the ledger does not know pass through unchanged.
func (a *Accel) translate(ptr gpu.Ptr) gpu.Ptr {
	if phys, ok := a.remap[ptr]; ok {
		return phys
	}
	return ptr
}

// Pending is an in-flight asynchronous operation.
type Pending struct {
	done *sim.Event
	err  error
	// flush ships the command buffer this operation is recorded in; set
	// only while the operation sits in a recorder, cleared once the batch
	// is on the wire. Waiting on a recorded operation is a blocking call
	// and therefore a flush trigger.
	flush func()
}

// Wait blocks until the operation completes and returns its error.
func (pd *Pending) Wait(p *sim.Proc) error {
	if f := pd.flush; f != nil {
		f()
	}
	pd.done.Await(p)
	return pd.err
}

// Done exposes the completion event for WaitAny-style composition. If
// the operation is still sitting in a command recorder it is flushed
// first — the event could otherwise never trigger.
func (pd *Pending) Done() *sim.Event {
	if f := pd.flush; f != nil {
		f()
	}
	return pd.done
}

// call is one request round trip in flight: the encoded header (kept for
// retransmission), the posted response receive, and the retry policy.
type call struct {
	a     *Accel
	q     *request
	enc   []byte
	resp  *minimpi.Request
	retry bool
	// pad inflates the request message's wire size (model-mode inline
	// writes carry no payload bytes but must cost the same virtual time).
	pad int
}

// send ships (or re-ships) the encoded header.
func (cl *call) send() {
	if cl.pad > 0 {
		cl.a.c.comm.IsendPadded(cl.a.rank, TagRequest, cl.enc, len(cl.enc)+cl.pad)
	} else {
		cl.a.c.comm.Isend(cl.a.rank, TagRequest, cl.enc)
	}
}

// translateReq maps a request's device pointers through the failover
// ledger; for a batch, every recorded command is translated. Translation
// happens when the request ships (not when it is recorded), so commands
// recorded before a Failover/Migrate replay against the replacement
// rank's pointer map.
func (a *Accel) translateReq(q *request) {
	q.ptr = a.translate(q.ptr)
	q.ptr2 = a.translate(q.ptr2)
	for i, arg := range q.launch.Args {
		if arg.Kind == gpu.KindPtr {
			q.launch.Args[i] = gpu.PtrArg(a.translate(arg.Ptr))
		}
	}
	for _, sub := range q.batch {
		a.translateReq(sub)
	}
}

// newCall assigns a request ID, translates device pointers through the
// failover ledger, posts the response receive and ships the header.
func (a *Accel) newCall(q *request, retry bool) *call {
	return a.newCallPadded(q, retry, 0)
}

func (a *Accel) newCallPadded(q *request, retry bool, pad int) *call {
	a.c.nextReq++
	q.reqID = a.c.nextReq
	q.session = a.session
	q.fence = a.fence
	a.translateReq(q)
	cl := &call{a: a, q: q, enc: encodeRequestTo(a.c.encw, q), retry: retry, pad: pad}
	cl.resp = a.c.comm.Irecv(a.rank, respTag(q.reqID))
	cl.send()
	return cl
}

// wait blocks until the call's verified response arrives, retransmitting
// on timeout when the call allows it. Responses whose echoed request ID
// does not match are stale (tag-window collisions, error replies to
// garbage) and are discarded.
func (cl *call) wait(p *sim.Proc) (*response, error) {
	a := cl.a
	t := a.c.opts.Timeout
	attempts := 1
	if cl.retry {
		attempts += a.c.opts.Retries
	}
	sent := 1
	for {
		var data []byte
		if t > 0 {
			d, _, ok := cl.resp.WaitTimeout(p, t)
			if !ok {
				if sent < attempts {
					sent++
					cl.send()
					continue
				}
				return nil, &TimeoutError{Op: cl.q.op, Rank: a.rank, Attempts: sent}
			}
			data = d
		} else {
			data, _ = cl.resp.Wait(p)
		}
		rsp, err := decodeResponse(data)
		if err != nil {
			return nil, err
		}
		if rsp.reqID != cl.q.reqID {
			cl.resp = a.c.comm.Irecv(a.rank, respTag(cl.q.reqID))
			continue
		}
		return rsp, nil
	}
}

// statusOnly waits for the call and folds the daemon's status into one
// error.
func (cl *call) statusOnly(p *sim.Proc) error {
	rsp, err := cl.wait(p)
	if err != nil {
		return err
	}
	return rsp.err()
}

// asyncCall drives a header-only round trip without blocking the caller:
// response arrival, request-ID verification, timeout and bounded retry
// are all event-driven. onOK runs (before completion) when the daemon
// reported success.
func (a *Accel) asyncCall(q *request, onOK func()) *Pending {
	pd := &Pending{done: sim.NewEvent(a.sim())}
	a.roundTrip(q, pd, 0, func(rsp *response, err error) {
		if err != nil {
			pd.err = err
		} else {
			pd.err = rsp.err()
		}
		if pd.err == nil && onOK != nil {
			onOK()
		}
		pd.done.Trigger()
	})
	return pd
}

// roundTrip is the event-driven request engine shared by asyncCall and
// batch flushes: it ships q with bounded retransmission and hands the
// verified response (or the transport error) to finish, exactly once.
// finish must trigger pd.done; the pending's event doubles as the
// round trip's liveness guard (a triggered pd stops timers and watchers).
func (a *Accel) roundTrip(q *request, pd *Pending, pad int, finish func(rsp *response, err error)) {
	cl := a.newCallPadded(q, true, pad)
	t := a.c.opts.Timeout
	attempts := 1 + a.c.opts.Retries
	sent := 1
	gen := 0 // invalidates superseded deadline timers
	var watch func(r *minimpi.Request)
	var arm func()
	arm = func() {
		if t <= 0 {
			return
		}
		myGen := gen
		a.sim().After(t, func() {
			if pd.done.Triggered() || gen != myGen {
				return
			}
			if sent < attempts {
				sent++
				gen++
				cl.send()
				arm()
				return
			}
			finish(nil, &TimeoutError{Op: q.op, Rank: a.rank, Attempts: sent})
		})
	}
	watch = func(r *minimpi.Request) {
		r.Done().OnTrigger(func() {
			if pd.done.Triggered() {
				return // already timed out
			}
			data, _ := r.Result()
			rsp, err := decodeResponse(data)
			if err == nil && rsp.reqID != q.reqID {
				// Stale response on our tag: keep listening.
				watch(a.c.comm.Irecv(a.rank, respTag(q.reqID)))
				return
			}
			gen++
			finish(rsp, err)
		})
	}
	watch(cl.resp)
	arm()
}

// recCmd is one recorded command: its (untranslated) request, the
// Pending handed to the caller, and the ledger update to run on success.
type recCmd struct {
	q    *request
	pd   *Pending
	onOK func()
}

// recorder accumulates one stream's command buffer between flushes.
type recorder struct {
	cmds  []recCmd
	bytes int // wire-size estimate, inline payloads and model pads included
}

// batching reports whether ops may be recorded right now (batching is
// configured on and no Failover/Migrate rebuild is in progress).
func (a *Accel) batching() bool { return a.c.opts.BatchOps > 0 && !a.noFlush }

func (a *Accel) batchBytesLimit() int {
	if a.c.opts.BatchBytes > 0 {
		return a.c.opts.BatchBytes
	}
	return DefaultBatchBytes
}

// cmdCost estimates the bytes a command adds to the batch message. It
// only steers the BatchBytes flush threshold, so a rough upper bound on
// the encoded header is fine.
func cmdCost(q *request) int {
	return 48 + len(q.kernel) + 12*len(q.launch.Args) + len(q.inline) + q.modelPad()
}

// record queues a command on its stream's recorder and returns the
// caller's Pending. The buffer auto-flushes at the BatchOps/BatchBytes
// thresholds; otherwise it ships at the next blocking call on the
// stream, an explicit Flush, or a Wait on any recorded Pending.
func (a *Accel) record(q *request, onOK func()) *Pending {
	rec := a.recs[q.stream]
	if rec == nil {
		rec = &recorder{}
		a.recs[q.stream] = rec
	}
	pd := &Pending{done: sim.NewEvent(a.sim())}
	stream := q.stream
	pd.flush = func() { a.flushStream(stream) }
	rec.cmds = append(rec.cmds, recCmd{q: q, pd: pd, onOK: onOK})
	rec.bytes += cmdCost(q)
	if len(rec.cmds) >= a.c.opts.BatchOps || rec.bytes >= a.batchBytesLimit() {
		a.flushStream(stream)
	}
	return pd
}

// Flush ships the recorded command buffer of a stream as one opBatch
// wire message and returns a Pending that completes when the daemon has
// answered (each recorded operation's own Pending completes too, with
// its per-command error). It returns nil when nothing was pending.
func (a *Accel) Flush(stream uint8) *Pending {
	return a.flushStream(stream)
}

// flushAll flushes every stream's recorder in ascending stream order
// (sorted, so event-creation order — and DES determinism — never depends
// on map iteration).
func (a *Accel) flushAll() {
	if len(a.recs) == 0 {
		return
	}
	ids := make([]int, 0, len(a.recs))
	for id, rec := range a.recs {
		if len(rec.cmds) > 0 {
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		a.flushStream(uint8(id))
	}
}

// flushStream ships one stream's recorded commands. A single recorded
// non-inline command goes out as a plain request — the wire shape is
// then identical to the unbatched path. Multiple commands (or an inline
// write) travel as one opBatch carrying one request ID: the daemon
// executes them in order, answers with a per-command status vector, and
// its dedup table replays the whole batch atomically on retransmission.
func (a *Accel) flushStream(stream uint8) *Pending {
	rec := a.recs[stream]
	if a.noFlush || rec == nil || len(rec.cmds) == 0 {
		return nil
	}
	cmds := rec.cmds
	rec.cmds = nil
	rec.bytes = 0
	for i := range cmds {
		cmds[i].pd.flush = nil
	}
	if len(cmds) == 1 && cmds[0].q.op != OpWriteInline {
		cm := cmds[0]
		a.roundTrip(cm.q, cm.pd, 0, func(rsp *response, err error) {
			if err != nil {
				cm.pd.err = err
			} else {
				cm.pd.err = rsp.err()
			}
			if cm.pd.err == nil && cm.onOK != nil {
				cm.onOK()
			}
			cm.pd.done.Trigger()
		})
		return cm.pd
	}
	sub := make([]*request, len(cmds))
	pad := 0
	for i, cm := range cmds {
		sub[i] = cm.q
		pad += cm.q.modelPad()
	}
	q := &request{op: OpBatch, stream: stream, batch: sub}
	master := &Pending{done: sim.NewEvent(a.sim())}
	a.roundTrip(q, master, pad, func(rsp *response, err error) {
		defer master.done.Trigger()
		if err == nil {
			err = rsp.err()
		}
		var sts []cmdStatus
		if err == nil {
			sts, err = decodeBatchStatus(rsp.payload, len(cmds))
		}
		if err != nil {
			// Transport or whole-batch failure: every command fails
			// identically — the batch is atomic, never half-applied from
			// the caller's view.
			master.err = err
			for _, cm := range cmds {
				cm.pd.err = err
				cm.pd.done.Trigger()
			}
			return
		}
		for i, cm := range cmds {
			switch sts[i].status {
			case batchCmdOK:
				if cm.onOK != nil {
					cm.onOK()
				}
			case batchCmdFailed:
				cm.pd.err = &BatchError{Index: i, Op: cm.q.op, Err: &remoteError{msg: sts[i].errmsg}}
				if master.err == nil {
					master.err = cm.pd.err
				}
			default: // batchCmdSkipped
				cm.pd.err = &BatchError{Index: i, Op: cm.q.op, Err: ErrBatchAborted}
			}
			cm.pd.done.Trigger()
		}
	})
	return master
}

// blockWaits is the front-end's side of a copy's block stream: the loop
//
//	for i := 0; i < n; i++ { req := issue(i); wait for req; taken(i, req) }
//
// with each wait bounded by the client's Timeout (single attempt: payload
// blocks are not retransmitted), run on behalf of process p by a chain of
// scheduler callbacks while p is suspended — one process switch per copy
// instead of one per block. Every leg stands where a resumption of p stood
// when p ran the loop itself (see the daemon's pipeScratch for the ordering
// rule).
type blockWaits struct {
	p       *sim.Proc
	n       int
	timeout sim.Duration
	issue   func(i int) *minimpi.Request
	taken   func(i int, req *minimpi.Request) // may be nil

	i       int // the block the loop is at
	reqWait     // on req: block i's request, once issued
}

// run blocks p until the loop is over and returns the index of the block
// whose wait timed out, or n when none did.
func (w *blockWaits) run() int {
	if !w.advance() {
		w.p.Suspend("awaiting payload blocks")
	}
	return w.i
}

// advance runs the loop up to the next request that is still in flight and
// reports whether the loop is over instead.
func (w *blockWaits) advance() bool {
	for w.i < w.n {
		if w.req == nil {
			w.req = w.issue(w.i)
		}
		if !w.await(w.p.Sim(), w.timeout, blockWaitOver, w) {
			return false
		}
		if w.taken != nil {
			w.taken(w.i, w.req)
		}
		w.req = nil
		w.i++
	}
	return true
}

// blockWaitOver resumes the loop after a wait, and the process once the
// loop is over: at the block whose request is still not complete, or past
// the last one.
func blockWaitOver(v any) {
	w := v.(*blockWaits)
	if !w.req.Completed() || w.advance() {
		w.p.Resume()
	}
}

// rawAlloc performs the MemAlloc round trip without touching the
// failover ledger (Failover uses it to rebuild on a replacement).
func (a *Accel) rawAlloc(p *sim.Proc, n int) (gpu.Ptr, error) {
	cl := a.newCall(&request{op: OpMemAlloc, size: n}, true)
	rsp, err := cl.wait(p)
	if err != nil {
		return 0, err
	}
	if err := rsp.err(); err != nil {
		return 0, err
	}
	return rsp.ptr, nil
}

// MemAlloc allocates n bytes on the accelerator (acMemAlloc).
func (a *Accel) MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error) {
	phys, err := a.rawAlloc(p, n)
	if err != nil {
		return 0, err
	}
	app := phys
	if _, taken := a.allocs[app]; taken {
		// A replacement daemon reused an address the ledger still maps:
		// hand the app a minted id instead (nothing does arithmetic on
		// gpu.Ptr values, so any unique id works).
		a.nextVirt++
		app = virtBase + a.nextVirt
	}
	if app != phys {
		a.remap[app] = phys
	}
	a.allocs[app] = &allocRecord{size: n}
	return app, nil
}

// MemFree releases device memory (acMemFree). With batching on, the free
// is recorded behind the stream's queued commands and the whole buffer
// flushes immediately — the call still blocks until the daemon confirms,
// but coalesces with everything recorded before it.
func (a *Accel) MemFree(p *sim.Proc, ptr gpu.Ptr) error {
	onOK := func() {
		delete(a.allocs, ptr)
		delete(a.remap, ptr)
	}
	if a.batching() {
		return a.record(&request{op: OpMemFree, ptr: ptr}, onOK).Wait(p)
	}
	err := a.newCall(&request{op: OpMemFree, ptr: ptr}, true).statusOnly(p)
	if err == nil {
		onOK()
	}
	return err
}

// noteUpload mirrors successfully uploaded bytes into the allocation's
// host shadow so Failover can replay them.
func (a *Accel) noteUpload(ptr gpu.Ptr, off, colBytes, cols, pitch int, src []byte) {
	rec := a.allocs[ptr]
	if rec == nil || src == nil || colBytes <= 0 {
		return
	}
	if rec.shadow == nil {
		rec.shadow = make([]byte, rec.size)
	}
	for c := 0; c < cols; c++ {
		lo := off + c*pitch
		if lo < 0 || lo+colBytes > len(rec.shadow) || (c+1)*colBytes > len(src) {
			return
		}
		copy(rec.shadow[lo:lo+colBytes], src[c*colBytes:(c+1)*colBytes])
	}
}

// MemcpyH2D copies n bytes of host memory into device memory at dst+off
// (acMemCpy, host→device). src may be nil in model mode: the transfer
// then carries only its size. The call uses the client's H2D protocol and
// completes when the daemon acknowledges the full payload.
func (a *Accel) MemcpyH2D(p *sim.Proc, dst gpu.Ptr, off int, src []byte, n int) error {
	pd := a.MemcpyH2DAsync(dst, off, src, n, 0)
	return pd.Wait(p)
}

// MemcpyH2DAsync starts a host-to-device copy on the given stream and
// returns immediately; the payload is streamed by a helper process.
func (a *Accel) MemcpyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) *Pending {
	return a.MemcpyH2D2DAsync(dst, off, n, 1, n, src, stream)
}

// MemcpyH2D2D copies a strided device window (the cudaMemcpy2D
// analogue): cols columns of colBytes bytes land pitch bytes apart at
// dst+off. src is the packed host data (colBytes*cols bytes, or nil in
// model mode).
func (a *Accel) MemcpyH2D2D(p *sim.Proc, dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte) error {
	return a.MemcpyH2D2DAsync(dst, off, colBytes, cols, pitch, src, 0).Wait(p)
}

// MemcpyH2D2DAsync is the asynchronous strided host-to-device copy.
func (a *Accel) MemcpyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) *Pending {
	pd := &Pending{done: sim.NewEvent(a.sim())}
	n := colBytes * cols
	if src != nil && len(src) != n {
		pd.err = fmt.Errorf("core: MemcpyH2D: src has %d bytes, geometry says %d", len(src), n)
		pd.done.Trigger()
		return pd
	}
	if colBytes < 0 || cols <= 0 || pitch < colBytes {
		pd.err = fmt.Errorf("core: MemcpyH2D: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitch)
		pd.done.Trigger()
		return pd
	}
	if a.batching() && a.c.opts.InlineCopy > 0 && n <= a.c.opts.InlineCopy {
		// Small upload: the payload rides inside the command buffer (a
		// copy is taken now — the caller may reuse src immediately). In
		// model mode (src nil) the flush pads the wire message by n bytes
		// so the virtual-time cost matches execute mode.
		q := &request{op: OpWriteInline, stream: stream, ptr: dst, off: off, size: n,
			cols: cols, pitch: pitch}
		if src != nil {
			q.inline = append([]byte(nil), src...)
		}
		return a.record(q, func() { a.noteUpload(dst, off, colBytes, cols, pitch, q.inline) })
	}
	// A streamed copy is a blocking exchange on its stream: recorded
	// commands there must reach the daemon first to keep stream order.
	a.flushStream(stream)
	block, depth := a.c.tunePlan(a.c.opts.H2D, a.rank, DirH2D, n)
	q := &request{op: OpMemcpyH2D, stream: stream, ptr: dst, off: off, size: n,
		cols: cols, pitch: pitch, block: block, depth: depth}
	cl := a.newCall(q, false)
	tag := dataTag(q.reqID)
	a.sim().Spawn("h2d-sender", func(hp *sim.Proc) {
		t0 := hp.Now()
		nb := numBlocks(n, block)
		sends := make([]*minimpi.Request, 0, nb)
		for i := 0; i < nb; i++ {
			lo := i * block
			hi := lo + block
			if hi > n {
				hi = n
			}
			if src != nil {
				sends = append(sends, a.c.comm.Isend(a.rank, tag, src[lo:hi]))
			} else {
				sends = append(sends, a.c.comm.IsendSized(a.rank, tag, hi-lo))
			}
		}
		w := blockWaits{p: hp, n: nb, timeout: a.c.opts.Timeout,
			issue: func(i int) *minimpi.Request { return sends[i] }}
		if i := w.run(); i < nb {
			// Abandon the rest of the payload (the peer is considered
			// dead); canceling releases the in-flight transfers.
			for _, rest := range sends[i:] {
				rest.Cancel()
			}
			pd.err = &TimeoutError{Rank: a.rank, Attempts: 1}
			pd.done.Trigger()
			return
		}
		pd.err = cl.statusOnly(hp)
		if pd.err == nil {
			a.c.tuneRecord(a.c.opts.H2D, a.rank, DirH2D, block, n, sim.Duration(hp.Now()-t0))
			a.noteUpload(dst, off, colBytes, cols, pitch, src)
		}
		pd.done.Trigger()
	})
	return pd
}

// MemcpyD2H copies n bytes of device memory at src+off into dst
// (acMemCpy, device→host). dst may be nil in model mode.
func (a *Accel) MemcpyD2H(p *sim.Proc, dst []byte, src gpu.Ptr, off, n int) error {
	return a.MemcpyD2HAsync(dst, src, off, n, 0).Wait(p)
}

// MemcpyD2HAsync starts a device-to-host copy on the given stream; the
// blocks are drained into dst by a helper process.
func (a *Accel) MemcpyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) *Pending {
	return a.MemcpyD2H2DAsync(dst, src, off, n, 1, n, stream)
}

// MemcpyD2H2DAsync is the asynchronous strided device-to-host copy of a
// device window into packed host memory, the inverse of MemcpyH2D2D.
func (a *Accel) MemcpyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) *Pending {
	pd := &Pending{done: sim.NewEvent(a.sim())}
	n := colBytes * cols
	if dst != nil && len(dst) != n {
		pd.err = fmt.Errorf("core: MemcpyD2H: dst has %d bytes, geometry says %d", len(dst), n)
		pd.done.Trigger()
		return pd
	}
	if colBytes < 0 || cols <= 0 || pitch < colBytes {
		pd.err = fmt.Errorf("core: MemcpyD2H: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitch)
		pd.done.Trigger()
		return pd
	}
	// Downloads read what queued commands wrote: flush the stream first.
	a.flushStream(stream)
	block, depth := a.c.tunePlan(a.c.opts.D2H, a.rank, DirD2H, n)
	q := &request{op: OpMemcpyD2H, stream: stream, ptr: src, off: off, size: n,
		cols: cols, pitch: pitch, block: block, depth: depth}
	cl := a.newCall(q, false)
	tag := dataTag(q.reqID)
	a.sim().Spawn("d2h-receiver", func(hp *sim.Proc) {
		t0 := hp.Now()
		nb := numBlocks(n, block)
		w := blockWaits{p: hp, n: nb, timeout: a.c.opts.Timeout,
			issue: func(int) *minimpi.Request { return a.c.comm.Irecv(a.rank, tag) },
			taken: func(i int, req *minimpi.Request) {
				if data, _ := req.Result(); dst != nil && data != nil {
					copy(dst[i*block:], data)
				}
				// The daemon ships blocks in pooled buffers (ownership
				// handoff); the bytes are copied out, so recycle.
				req.Free()
			}}
		if w.run() < nb {
			pd.err = &TimeoutError{Rank: a.rank, Attempts: 1}
			pd.done.Trigger()
			return
		}
		pd.err = cl.statusOnly(hp)
		if pd.err == nil {
			a.c.tuneRecord(a.c.opts.D2H, a.rank, DirD2H, block, n, sim.Duration(hp.Now()-t0))
			if dst != nil {
				// Downloaded contents are host-visible truth: refresh the
				// shadow so a later failover replays them too.
				a.noteDownload(src, off, colBytes, cols, pitch, dst)
			}
		}
		pd.done.Trigger()
	})
	return pd
}

// noteDownload scatters freshly downloaded bytes into the allocation's
// shadow (the strided inverse of noteUpload).
func (a *Accel) noteDownload(ptr gpu.Ptr, off, colBytes, cols, pitch int, data []byte) {
	rec := a.allocs[ptr]
	if rec == nil || data == nil || colBytes <= 0 {
		return
	}
	if rec.shadow == nil {
		rec.shadow = make([]byte, rec.size)
	}
	for c := 0; c < cols; c++ {
		lo := off + c*pitch
		if lo < 0 || lo+colBytes > len(rec.shadow) || (c+1)*colBytes > len(data) {
			return
		}
		copy(rec.shadow[lo:lo+colBytes], data[c*colBytes:(c+1)*colBytes])
	}
}

// Memset fills n bytes of device memory at dst+off with value
// (acMemSet / cuMemsetD8).
func (a *Accel) Memset(p *sim.Proc, dst gpu.Ptr, off, n int, value byte) error {
	return a.MemsetAsync(dst, off, n, value, 0).Wait(p)
}

// MemsetAsync queues the fill on a stream.
func (a *Accel) MemsetAsync(dst gpu.Ptr, off, n int, value byte, stream uint8) *Pending {
	if n < 0 {
		pd := &Pending{done: sim.NewEvent(a.sim())}
		pd.err = fmt.Errorf("core: Memset: negative size %d", n)
		pd.done.Trigger()
		return pd
	}
	q := &request{op: OpMemset, stream: stream, ptr: dst, off: off, size: n, value: value}
	onOK := func() {
		if rec := a.allocs[dst]; rec != nil && off >= 0 && off+n <= rec.size {
			if rec.shadow == nil {
				rec.shadow = make([]byte, rec.size)
			}
			fillBytes(rec.shadow[off:off+n], value)
		}
	}
	if a.batching() {
		return a.record(q, onOK)
	}
	return a.asyncCall(q, onOK)
}

// fillBytes sets every byte of b to v at memmove speed: a zero fill is a
// clear, any other value is seeded once and doubled.
func fillBytes(b []byte, v byte) {
	if v == 0 || len(b) == 0 {
		clear(b)
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// Kernel is a client-side kernel object, created per the paper's
// three-step launch: acKernelCreate, acKernelSetArgs, acKernelRun.
type Kernel struct {
	a    *Accel
	name string
	args []gpu.Value
}

// KernelCreate names a kernel on this accelerator (acKernelCreate). The
// name is resolved by the daemon at launch time.
func (a *Accel) KernelCreate(name string) *Kernel {
	return &Kernel{a: a, name: name}
}

// SetArgs replaces the kernel's argument list (acKernelSetArgs).
func (k *Kernel) SetArgs(args ...gpu.Value) *Kernel {
	k.args = append(k.args[:0], args...)
	return k
}

// Run launches the kernel with the given configuration and blocks until
// it has executed on the accelerator (acKernelRun).
func (k *Kernel) Run(p *sim.Proc, grid, block gpu.Dim3) error {
	return k.RunAsync(grid, block, 0).Wait(p)
}

// RunAsync launches the kernel on a stream and returns immediately; the
// returned Pending completes when the daemon reports the kernel finished.
func (k *Kernel) RunAsync(grid, block gpu.Dim3, stream uint8) *Pending {
	q := &request{
		op:     OpKernelRun,
		stream: stream,
		kernel: k.name,
		launch: gpu.Launch{Grid: grid, Block: block, Args: append([]gpu.Value(nil), k.args...)},
	}
	if k.a.batching() {
		return k.a.record(q, nil)
	}
	return k.a.asyncCall(q, nil)
}

// Sync blocks until every outstanding request on every stream of this
// accelerator has completed (cuCtxSynchronize analogue). Recorded
// command buffers on every stream are flushed first.
func (a *Accel) Sync(p *sim.Proc) error {
	a.flushAll()
	return a.newCall(&request{op: OpSync}, true).statusOnly(p)
}

// Info queries the accelerator's device description. Queued commands
// flush first so MemUsed reflects every recorded alloc-affecting op.
func (a *Accel) Info(p *sim.Proc) (DeviceInfo, error) {
	a.flushAll()
	rsp, err := a.newCall(&request{op: OpDeviceInfo}, true).wait(p)
	if err != nil {
		return DeviceInfo{}, err
	}
	if err := rsp.err(); err != nil {
		return DeviceInfo{}, err
	}
	return decodeDeviceInfo(rsp.payload)
}

// Reset frees every allocation on the accelerator, giving the next
// exclusive holder a clean device. Call it before releasing the handle
// back to the ARM.
func (a *Accel) Reset(p *sim.Proc) error {
	a.flushAll()
	err := a.newCall(&request{op: OpReset}, true).statusOnly(p)
	if err == nil {
		a.allocs = make(map[gpu.Ptr]*allocRecord)
		a.remap = make(map[gpu.Ptr]gpu.Ptr)
	}
	return err
}

// Shutdown stops the accelerator's daemon (simulation teardown).
// Recorded commands flush first so nothing queued is lost.
func (a *Accel) Shutdown(p *sim.Proc) error {
	a.flushAll()
	return a.newCall(&request{op: OpShutdown}, true).statusOnly(p)
}

// Failover migrates the handle to a replacement accelerator after its
// daemon stopped answering (paper Section III: "in case of an
// accelerator failure, the ARM assigns a replacement"): the client's
// replacer reports the failure and returns a fresh rank, then every live
// allocation is re-created there and its host-shadowed contents are
// re-uploaded. App-visible pointers stay valid — subsequent requests
// translate them to the replacement's memory. Device contents that never
// passed through the host (kernel results, direct AC-to-AC transfers)
// are not restored; applications re-run from the recovered state.
func (c *Client) Failover(p *sim.Proc, a *Accel) error {
	if a.c != c {
		return fmt.Errorf("core: Failover: accelerator belongs to a different client")
	}
	if c.replacer == nil {
		return fmt.Errorf("core: Failover: no replacer configured (see Client.SetReplacer)")
	}
	newRank, err := c.replacer.Replace(p, a.rank)
	if err != nil {
		return fmt.Errorf("core: failover of rank %d: %w", a.rank, err)
	}
	oldRank := a.rank
	a.rank = newRank
	// Commands recorded but not yet flushed were never sent to the dead
	// daemon: suspend flushing while the rebuild traffic runs, then
	// replay them — as one whole batch, against the rebuilt pointer map —
	// on the replacement. They either all reach the new rank or all fail
	// together, never half.
	a.noFlush = true
	defer func() { a.noFlush = false }()
	// A sessioned handle needs a session on the replacement before any
	// rebuild traffic: open a fresh id there (the dead daemon's session
	// died with it; the ARM reaps whatever survives a partial failure).
	if a.session != 0 {
		if err := a.openSession(p); err != nil {
			return fmt.Errorf("core: failover %d->%d: open session: %w", oldRank, newRank, err)
		}
	}
	// Deterministic rebuild order: sorted app-visible pointers.
	ptrs := make([]gpu.Ptr, 0, len(a.allocs))
	for ptr := range a.allocs {
		ptrs = append(ptrs, ptr)
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
	for _, ptr := range ptrs {
		rec := a.allocs[ptr]
		phys, err := a.rawAlloc(p, rec.size)
		if err != nil {
			return fmt.Errorf("core: failover %d->%d: re-alloc %d bytes: %w", oldRank, newRank, rec.size, err)
		}
		a.remap[ptr] = phys
		if rec.shadow != nil {
			if err := a.MemcpyH2D(p, ptr, 0, rec.shadow, rec.size); err != nil {
				return fmt.Errorf("core: failover %d->%d: re-upload: %w", oldRank, newRank, err)
			}
		}
	}
	a.noFlush = false
	a.flushAll()
	return nil
}

// Failover is the handle-level convenience for Client.Failover.
func (a *Accel) Failover(p *sim.Proc) error { return a.c.Failover(p, a) }

// Migrate moves the handle's live state to the accelerator at newRank
// while the old daemon is still answering — the proactive counterpart of
// Failover, used when the ARM reports the old daemon *suspect* rather
// than dead. Every live allocation is re-created on the new accelerator
// and its contents copied device-to-device over the pipelined direct
// protocol, so state that never passed through the host (kernel
// results) survives; only when the old daemon fails mid-copy does an
// allocation fall back to replaying its host shadow. The swap is atomic
// from the application's view: the handle keeps pointing at the old
// daemon until everything copied, then flips. On error the old
// assignment is untouched (allocations already made on newRank are the
// ARM's to reclaim via sanitize).
func (c *Client) Migrate(p *sim.Proc, a *Accel, newRank int) error {
	if a.c != c {
		return fmt.Errorf("core: Migrate: accelerator belongs to a different client")
	}
	if newRank == a.rank {
		return nil
	}
	// Commands recorded before the migration execute on the old daemon
	// (it is still answering — only suspect) so their effects are part of
	// the state that moves; the whole buffer ships now, never half.
	a.flushAll()
	oldRank := a.rank
	// A raw handle for the destination: allocations land in its ledger,
	// which is discarded — the migrated handle keeps the original
	// app-visible pointers and records. A sessioned handle gets a fresh
	// session on the destination; the allocations made below belong to it,
	// and the handle adopts it when the swap commits.
	tmp := c.Attach(newRank)
	if a.session != 0 {
		if err := tmp.openSession(p); err != nil {
			return fmt.Errorf("core: migrate %d->%d: open session: %w", oldRank, newRank, err)
		}
	}
	ptrs := make([]gpu.Ptr, 0, len(a.allocs))
	for ptr := range a.allocs {
		ptrs = append(ptrs, ptr)
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
	newRemap := make(map[gpu.Ptr]gpu.Ptr, len(ptrs))
	for _, ptr := range ptrs {
		rec := a.allocs[ptr]
		phys, err := tmp.rawAlloc(p, rec.size)
		if err != nil {
			return fmt.Errorf("core: migrate %d->%d: alloc %d bytes: %w", oldRank, newRank, rec.size, err)
		}
		if err := c.DirectCopy(p, a, ptr, 0, tmp, phys, 0, rec.size); err != nil {
			// The old daemon died mid-copy after all: fall back to the
			// failover path for this allocation when a host shadow exists.
			if rec.shadow == nil {
				return fmt.Errorf("core: migrate %d->%d: direct copy: %w", oldRank, newRank, err)
			}
			if err2 := tmp.MemcpyH2D(p, phys, 0, rec.shadow, rec.size); err2 != nil {
				return fmt.Errorf("core: migrate %d->%d: shadow replay after %v: %w", oldRank, newRank, err, err2)
			}
		}
		newRemap[ptr] = phys
	}
	oldSession := a.session
	a.rank = newRank
	a.remap = newRemap
	if oldSession != 0 {
		// Adopt the destination session, then close the old one so the old
		// daemon frees the migrated-away allocations (best effort: the old
		// daemon is suspect and may be gone).
		a.session = tmp.session
		old := c.Attach(oldRank)
		old.session = oldSession
		_ = old.CloseSession(p)
	}
	return nil
}

// Migrate is the handle-level convenience for Client.Migrate.
func (a *Accel) Migrate(p *sim.Proc, newRank int) error { return a.c.Migrate(p, a, newRank) }

// MigrateRank migrates every handle this client has attached to oldRank
// over to newRank, returning how many moved. The first error aborts
// (already-moved handles stay moved).
func (c *Client) MigrateRank(p *sim.Proc, oldRank, newRank int) (int, error) {
	moved := 0
	for _, a := range c.attached {
		if a.rank != oldRank {
			continue
		}
		if err := c.Migrate(p, a, newRank); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// DirectCopy moves n bytes from src's device memory to dst's device
// memory accelerator-to-accelerator, without staging through the compute
// node — the capability the paper highlights that plain CUDA/OpenCL
// clusters lack. Both daemons run the pipeline protocol against each
// other; the call returns when both sides confirm.
func (c *Client) DirectCopy(p *sim.Proc, src *Accel, srcPtr gpu.Ptr, srcOff int, dst *Accel, dstPtr gpu.Ptr, dstOff, n int) error {
	return c.DirectCopy2D(p, src, srcPtr, srcOff, n, 1, n, dst, dstPtr, dstOff)
}

// DirectCopy2D is DirectCopy for a strided source window (cols columns
// of colBytes bytes, pitch bytes apart at src); the destination receives
// the packed bytes contiguously. The payload still flows daemon to
// daemon only.
func (c *Client) DirectCopy2D(p *sim.Proc, src *Accel, srcPtr gpu.Ptr, srcOff, colBytes, cols, pitch int, dst *Accel, dstPtr gpu.Ptr, dstOff int) error {
	return c.DirectCopy2DOn(p, src, srcPtr, srcOff, colBytes, cols, pitch, dst, dstPtr, dstOff, 0, 0)
}

// DirectCopy2DOn is DirectCopy2D with explicit daemon streams: the
// source daemon executes its OpD2DSend on srcStream, the destination
// its OpD2DRecv on dstStream. Stream workers run concurrently, so
// placing a device's incoming and outgoing transfers on different
// streams lets it receive and forward at the same time — the dual-DMA
// overlap a relay node in a broadcast tree needs to pipeline segments.
// Both streams 0 keeps the classic fully-serialized behavior.
func (c *Client) DirectCopy2DOn(p *sim.Proc, src *Accel, srcPtr gpu.Ptr, srcOff, colBytes, cols, pitch int, dst *Accel, dstPtr gpu.Ptr, dstOff int, srcStream, dstStream uint8) error {
	if src.c != c || dst.c != c {
		// Handles of different clients share no communicator, so no
		// daemon-to-daemon stream can exist between them: the typed
		// sentinel lets data-plane callers fall back to host staging.
		return fmt.Errorf("core: DirectCopy: accelerators belong to a different client: %w", ErrNoPeerPath)
	}
	if colBytes < 0 || cols <= 0 || pitch < colBytes {
		return fmt.Errorf("core: DirectCopy: invalid geometry colBytes=%d cols=%d pitch=%d", colBytes, cols, pitch)
	}
	// The copy reads and writes device state touched by queued commands:
	// flush both handles before the daemons start streaming.
	src.flushAll()
	dst.flushAll()
	n := colBytes * cols
	block, depth := c.tunePlan(c.opts.D2H, dst.rank, DirD2D, n)
	t0 := p.Now()
	c.nextReq++
	xferID := c.nextReq
	sendQ := &request{op: OpD2DSend, ptr: srcPtr, off: srcOff, size: n, cols: cols, pitch: pitch,
		block: block, depth: depth, peer: dst.rank, xferID: xferID, stream: srcStream}
	recvQ := &request{op: OpD2DRecv, ptr: dstPtr, off: dstOff, size: n, cols: 1, pitch: n,
		block: block, depth: depth, peer: src.rank, xferID: xferID, stream: dstStream}
	// Post the receiver side first so its daemon is ready for the stream.
	recvCall := dst.newCall(recvQ, false)
	sendCall := src.newCall(sendQ, false)
	errRecv := recvCall.statusOnly(p)
	errSend := sendCall.statusOnly(p)
	if errSend != nil {
		return errSend
	}
	if errRecv == nil {
		c.tuneRecord(c.opts.D2H, dst.rank, DirD2D, block, n, sim.Duration(p.Now()-t0))
	}
	return errRecv
}

// MemcpyD2D copies n bytes between two allocations on the same
// accelerator (dst+dstOff ← src+srcOff) with a single device-internal
// DMA: the request is header-only, so no payload bytes ever cross the
// wire. The redistribution fast path uses it for blocks whose owner is
// unchanged but whose offset shifts with the block-cyclic layout.
func (a *Accel) MemcpyD2D(p *sim.Proc, dst gpu.Ptr, dstOff int, src gpu.Ptr, srcOff, n int) error {
	if n < 0 || dstOff < 0 || srcOff < 0 {
		return fmt.Errorf("core: MemcpyD2D: invalid geometry n=%d dstOff=%d srcOff=%d", n, dstOff, srcOff)
	}
	// The copy reads and writes device state touched by queued commands.
	a.flushAll()
	q := &request{op: OpMemcpyD2D, ptr: src, off: srcOff, ptr2: dst, off2: dstOff, size: n}
	err := a.newCall(q, true).statusOnly(p)
	if err == nil {
		a.noteLocalCopy(dst, dstOff, src, srcOff, n)
	}
	return err
}

// noteLocalCopy mirrors a device-local copy into the failover ledger:
// whatever host shadow the source range has becomes the destination
// range's shadow, so a replayed replacement sees the copied bytes too.
func (a *Accel) noteLocalCopy(dst gpu.Ptr, dstOff int, src gpu.Ptr, srcOff, n int) {
	srcRec, dstRec := a.allocs[src], a.allocs[dst]
	if srcRec == nil || dstRec == nil || srcRec.shadow == nil || n <= 0 {
		return
	}
	if srcOff+n > len(srcRec.shadow) || dstOff+n > dstRec.size {
		return
	}
	if dstRec.shadow == nil {
		dstRec.shadow = make([]byte, dstRec.size)
	}
	copy(dstRec.shadow[dstOff:dstOff+n], srcRec.shadow[srcOff:srcOff+n])
}

func (a *Accel) sim() *sim.Simulation { return a.c.comm.World().Sim() }
