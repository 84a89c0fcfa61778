package core

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// ErrTimeout reports that an accelerator stopped answering within the
// configured request timeout — the client-side half of the paper's fault
// tolerance story (a broken accelerator must not take the compute node
// down with it). errors.Is(err, ErrTimeout) matches every *TimeoutError.
var ErrTimeout = minimpi.ErrTimeout

// TimeoutError is the typed error for a request that exhausted its timeout
// budget, including retransmissions: the one both control planes share,
// here with Plane "core" and Peer "accelerator".
type TimeoutError = minimpi.TimeoutError

// silence is the error a call to the daemon at rank ends with when the
// daemon stays silent (op zero: a payload stream).
func silence(op uint8, rank int) TimeoutError {
	return TimeoutError{Plane: "core", Peer: "accelerator", Op: op, Rank: rank}
}

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
	// when the buffer reaches batchBytes, at any blocking call on the
	// stream, or explicitly via Accel.Flush. Zero (the default) keeps the
	// paper's one-wire-message-per-request path bit for bit.
	BatchOps int
	// SessionQuota is the per-session device-memory budget in bytes for
	// handles opened with AttachSession: allocations past it fail with
	// ErrQuotaExceeded. Zero means unlimited. Exclusive (session-less)
	// attachments ignore it.
	SessionQuota int64
}

// A command buffer flushes at batchBytes of wire size (headers plus inline
// payloads); uploads of at most inlineCopy bytes ride inside it.
const (
	batchBytes = 64 * 1024
	inlineCopy = 4 * 1024
)

// DefaultOptions returns the paper's best-performing configuration.
func DefaultOptions() Options {
	return Options{
		H2D: PaperAdaptive(),
		D2H: PaperPipeline(128 * 1024),
	}
}

// BatchedOptions returns DefaultOptions with command batching enabled:
// buffers of up to 64 commands.
func BatchedOptions() Options {
	o := DefaultOptions()
	o.BatchOps = 64
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
	if o.BatchOps < 0 || o.BatchOps > maxBatchOps {
		return fmt.Errorf("core: BatchOps %d outside [0, %d], the protocol limit", o.BatchOps, maxBatchOps)
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

// poisonFreed is the chaos guard DYNACC_POISON=1 turns on across the tree
// (see minimpi): here a record handed back — a launch's arguments, a ledger
// record, a daemon's session record — is scribbled over and retired instead
// of reused, so whoever still holds it fails.
var poisonFreed = os.Getenv("DYNACC_POISON") == "1"

// Client is the front-end of the computation API: it lives in a
// compute-node process and forwards ac* calls to accelerator daemons.
type Client struct {
	comm     *minimpi.Comm
	opts     Options
	nextReq  uint64
	nextSess uint64
	replacer Replacer

	// encw is the scratch each send encodes its request in (lock-free: an
	// encode never blocks, and the simulation is cooperative).
	encw *wire.Writer

	// attached lists the handles in use, so rank-wide operations
	// (MigrateRank) can find the ones pointing at a daemon: a handle is
	// listed from Attach, and again from its next request, until a call
	// that leaves it nothing on its daemon succeeds (see Accel.finished).
	attached []*Accel

	// tuner is the per-(peer,direction) link-model table behind
	// CopyConfig{Kind: Autotune} (autotune.go). Nil until the first
	// Autotune-planned transfer; never touched on the default path.
	tuner *tuner

	// Free lists of calls (see handBack), of copies' block loops, of launch
	// arguments (see dropArgs) and of ledger records (see drop).
	calls sim.FreeList[call]
	xfers sim.FreeList[xfer]
	argvs sim.FreeList[launchArgs]
	recs  sim.FreeList[allocRecord]
}

// NewClient creates a front-end on the given communicator.
func NewClient(comm *minimpi.Comm, opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Client{comm: comm, opts: opts, nextReq: clientEpoch.Add(1) << 40, encw: wire.NewWriter(128)}, nil
}

// Options returns the client's protocol configuration.
func (c *Client) Options() Options { return c.opts }

// Comm returns the communicator the client sends on. Tests use its
// WireStats to assert how many wire messages an operation sequence cost.
func (c *Client) Comm() *minimpi.Comm { return c.comm }

// Attached returns how many handles the client lists as in use.
func (c *Client) Attached() int { return len(c.attached) }

// SetReplacer installs the failover path used by Client.Failover. The
// cluster builder wires its ARM client in here.
func (c *Client) SetReplacer(r Replacer) { c.replacer = r }

// Attach binds an accelerator handle (the communicator rank its daemon
// listens on) and returns the per-accelerator API object. The handle is
// what the ARM's Acquire returned.
func (c *Client) Attach(daemonRank int) *Accel {
	a := c.handle(daemonRank, false)
	a.list()
	return a
}

// handle makes an unlisted handle; a temporary one (Migrate's: not the
// application's to repoint) stays so.
func (c *Client) handle(rank int, temp bool) *Accel {
	return &Accel{c: c, rank: rank, temp: temp, allocs: make(map[gpu.Ptr]*allocRecord)}
}

// list enters the handle among the client's handles in use.
func (a *Accel) list() {
	if !a.listed && !a.temp {
		a.listed = true
		a.c.attached = append(a.c.attached, a)
	}
}

// finished follows a call that left the handle nothing on its daemon (a
// successful Reset, CloseSession or Shutdown): the ledger empties and the
// handle leaves the list, until its next request if any.
func (a *Accel) finished() {
	for _, rec := range a.allocs {
		a.drop(rec)
	}
	clear(a.allocs)
	clear(a.remap)
	if a.listed {
		a.listed = false
		i := slices.Index(a.c.attached, a)
		a.c.attached = slices.Delete(a.c.attached, i, i+1)
	}
}

// Detach ends the root-session handles on daemonRank as a successful
// Reset would, without a request: the cluster calls it once the grant
// behind them is released. A session's handle ends with its CloseSession.
func (c *Client) Detach(daemonRank int) {
	for i := len(c.attached) - 1; i >= 0; i-- {
		if a := c.attached[i]; a.rank == daemonRank && a.session == 0 {
			a.finished()
		}
	}
}

// OpenSession opens a private tenant session, under a fresh id, on the
// handle's current rank: its allocations live in their own namespace (no
// other session can read, write or free them), count against
// Options.SessionQuota, and are freed together by CloseSession. Use it
// with shared ARM leases (arm.AcquireShared) to time-share one accelerator
// among several clients; a handle without one runs in the daemon's root
// session (id 0). Failover/Migrate reuse it to re-home a sessioned handle.
func (a *Accel) OpenSession(p *sim.Proc) error {
	a.c.nextSess++
	a.session = a.c.nextSess
	err := a.status(p, request{op: OpSessionOpen, quota: a.c.opts.SessionQuota})
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

// InUse reports whether the client lists the handle as in use (see
// Client.Attached): false once a call left it nothing on its daemon.
func (a *Accel) InUse() bool { return a.listed }

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
	return a.status(p, request{op: OpSessionClose})
}

// ReapSessionsAsync closes every session a given client rank holds on
// this handle's daemon: the ARM's reclaim path after a tenant death, run
// from scheduler context (see callAsync). Only the dead tenant's
// allocations are freed.
func (a *Accel) ReapSessionsAsync(clientRank int, then func(error)) *minimpi.Call {
	return a.callAsync(request{op: OpSessionReap, peer: clientRank}, then)
}

// allocRecord is the front-end's failover ledger entry for one device
// allocation: its size and the host shadow Failover replays — a mirror made
// on first need, overlaid by pending blocks (disjoint, oldest first; see keep).
type allocRecord struct {
	size, pendBytes int
	shadow          []byte
	pend            []shadowBlock
}

// shadowBlock is one pooled block of a streamed copy: packed bytes
// [lo, lo+len(buf)) of window win.
type shadowBlock struct {
	buf []byte
	lo  int
	win window
}

func (r *allocRecord) holds(w window) bool {
	if r != nil && r.size < 0 {
		panic("core: use of a freed allocation record")
	}
	return r != nil && w.colBytes > 0 && w.off >= 0 && w.end() <= r.size
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
	// listed: the handle is in c.attached; a temp one never is.
	listed, temp bool

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
	recs    []recorder // by stream
	noFlush bool

	// session is the tenant session id every request of this handle
	// carries (OpenSession); zero is the exclusive session-less mode.
	session uint64

	// fence is the fencing token every request of this handle carries:
	// the ARM leadership epoch the underlying lease was granted under
	// (DESIGN.md §12). Zero (the default) is never fence-checked.
	fence uint64
}

// SetFence stamps the handle with a fencing token; every subsequent
// request carries it. The cluster sets this from the grant's epoch so a
// lease minted by a deposed ARM leader cannot reset or re-admit state on
// a daemon a promoted successor already fenced.
func (a *Accel) SetFence(epoch uint64) { a.fence = epoch }

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

// Pending is an in-flight asynchronous operation under MPI_Wait's rule: the
// Wait that sees it complete hands its call record back to the client, so
// wait at most once (a second Wait panics, naming the op, while the record is
// not reused; DYNACC_POISON=1 never reuses it). One never waited is the GC's.
type Pending struct {
	done sim.Event
	err  error
	cl   *call // the call this Pending is part of
	// queued: in a command recorder, so waiting on it flushes (see Done).
	queued bool
	// holds counts the Waits to come: 2 for a lone command Flush returned
	// too, 0 for a call nobody waits for (Finish hands that one back).
	holds uint8
}

// Wait blocks until the operation completes and returns its error; the last
// hold's Wait hands the call record back.
func (pd *Pending) Wait(p *sim.Proc) error {
	pd.Done().Await(p)
	cl, err := pd.cl, pd.err
	if cl.holds == 0 {
		panic(fmt.Sprintf("core: Wait on a Pending already handed back (op %d)", cl.q.op))
	}
	if cl.holds--; cl.holds == 0 {
		cl.handBack()
	}
	return err
}

// Done exposes the completion event for composition (OnTrigger). If
// the operation is still sitting in a command recorder it is flushed
// first — the event could otherwise never trigger.
func (pd *Pending) Done() *sim.Event {
	if pd.queued {
		pd.cl.a.flush(pd.cl.q.stream, 0)
	}
	return &pd.done
}

// failed returns an operation that is over before it began.
func (a *Accel) failed(err error) *Pending {
	cl := a.newCall(request{})
	cl.err = err
	cl.done.Trigger()
	return &cl.Pending
}

// handBack recycles a call nobody can reach any more (its End freed what it
// still waited on); DYNACC_POISON=1 retires it.
func (cl *call) handBack() {
	if !poisonFreed {
		cl.a.c.calls.Put(cl)
	}
}

// call is one request to a daemon: the paper's two MPI messages per request,
// with the payload blocks of a streamed copy in between, on the call engine
// both control planes share (minimpi.Call: the response wait, resends — the
// daemon's dedup table makes them idempotent — and the TimeoutError). The
// response wait is armed at once for a header-only call, after the last
// block for a copy, one call after the other for the two halves of a direct
// copy. A synchronous caller (wait) suspends until the finishing leg resumes
// it; an asynchronous one holds the call's Pending. Either way the call ends
// with the Pending's Wait, which hands the record back to the client (see
// handBack); every send ships a pool copy of the header, so no message in
// flight aliases a recycled call.
type call struct {
	a *Accel
	q request // kept for retransmission
	// pad inflates the request message's wire size (model-mode inline
	// writes carry no payload bytes but must cost the same virtual time).
	pad          int
	minimpi.Call // on Req: the response (re-posted after a stale reply), or a copy's block i
	Pending      // done fires when the call is over, err is its outcome
	rsp          response
	app          gpu.Ptr     // q.ptr as the application names it, for the ledger (see applied)
	cmds         []*call     // an opBatch's recorded commands, in q.batch order
	x            *xfer       // a streamed copy's block loop, until the copy finishes
	then         func(error) // an asynchronous header-only call's ending (callAsync)
	argv         *launchArgs // a launch's arguments (q.launch.Args), until the call is over
}

// launchArgs holds a launch's arguments while a resend may encode them; the
// client recycles it. Sixteen fit the widest kernel in the tree, magma's dgemm.
type launchArgs [16]gpu.Value

// xfer is a streamed copy's block loop (see stream), recycled by the client.
type xfer struct {
	dir    TransferDir
	host   []byte             // the packed host bytes, source or destination; nil in model mode
	sends  []*minimpi.Request // host-to-device: every block's send, posted up front
	blocks []shadowBlock      // with a host side: an upload's every block, a download's as they came
	i, nb  int                // the block the loop is at, of how many
	t0     sim.Time
}

// parkedCopy is what the deadlock report calls a streamed copy nobody
// answers (it has no process).
const parkedCopy = "streamed-copy"

// newCall readies a call for q; a recycled record keeps the array of its
// response payload.
func (a *Accel) newCall(q request) *call {
	cl := a.c.calls.Get()
	*cl = call{a: a, q: q, rsp: response{payload: cl.rsp.payload[:0]}, app: q.ptr}
	cl.done.Init(a.sim())
	cl.Pending.cl, cl.holds = cl, 1
	return cl
}

// Send ships (or re-ships) a pool copy of the encoded header; a resend
// encodes the same request again. A padded one's copy is private.
func (cl *call) Send(bool) {
	c, enc := cl.a.c, encodeRequestTo(cl.a.c.encw, &cl.q)
	if cl.pad == 0 {
		c.comm.SendCopy(cl.a.rank, TagRequest, enc)
	} else {
		c.comm.IsendPadded(cl.a.rank, TagRequest, append([]byte(nil), enc...), len(enc)+cl.pad).Free()
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

// issue assigns a request ID, translates device pointers through the
// failover ledger, posts the response receive and ships the header, to be
// retransmitted up to resends times.
func (cl *call) issue(resends, pad int) *call {
	a, q := cl.a, &cl.q
	a.list()
	a.c.nextReq++
	q.reqID = a.c.nextReq
	q.session = a.session
	q.fence = a.fence
	a.translateReq(q)
	cl.pad, cl.Timeout, cl.Resends, cl.Silence = pad, a.c.opts.Timeout, resends, silence(q.op, a.rank)
	cl.Start(a.c.comm, cl, a.rank, respTag(q.reqID))
	return cl
}

// Reply decodes a response (decode copies what it keeps); one whose echoed
// request ID is not this call's is stale.
func (cl *call) Reply(data []byte) (minimpi.ReplyKind, error) {
	if err := cl.rsp.decode(data); err != nil || cl.rsp.reqID == cl.q.reqID {
		return minimpi.ReplyOver, err
	}
	return minimpi.ReplyStale, nil
}

// Finish ends the call, once: the outcome is the transport's error or else
// the daemon's status, a success is entered in the ledger, and whoever
// holds the Pending goes on.
func (cl *call) Finish(err error) {
	if err == nil {
		err = cl.rsp.err()
	}
	cl.err = err
	switch {
	case cl.q.op == OpBatch:
		cl.fanOut()
	case err == nil:
		cl.applied()
	}
	if cl.x != nil {
		cl.a.sim().Unpark(parkedCopy)
		cl.keep()
	}
	for _, cm := range cl.cmds {
		cm.dropArgs()
	}
	cl.dropArgs()
	cl.done.Trigger()
	if cl.then != nil {
		cl.then(err)
	}
	if cl.holds == 0 {
		cl.handBack()
	}
}

// applied enters a successful operation in the failover ledger: a free
// forgets the allocation, and whatever the front-end itself put into device
// memory — a memset's value, an upload's or inline write's bytes — or read
// from it (a download is host-visible truth all the same) goes into the
// allocation's host shadow (a streamed copy's blocks: see keep). A streamed
// copy also teaches the link model.
func (cl *call) applied() {
	a, q := cl.a, &cl.q
	rec := a.allocs[cl.app]
	switch q.op {
	case OpMemFree:
		if rec != nil {
			a.drop(rec)
		}
		delete(a.allocs, cl.app)
		delete(a.remap, cl.app)
	case OpReset, OpSessionClose, OpShutdown:
		a.finished()
	case OpMemset:
		a.shadowWrite(rec, q.window(), nil, q.value)
	case OpWriteInline:
		if q.inline != nil {
			a.shadowWrite(rec, q.window(), q.inline, 0)
		}
	case OpMemcpyH2D, OpMemcpyD2H:
		x := cl.x
		a.c.tuneRecord(a.c.protocol(x.dir), a.rank, x.dir, q.block, q.size, a.sim().Now().Sub(x.t0))
	}
}

// keep hands a finished copy's pooled blocks — kept instead of copied — to
// the shadow if it succeeded, else back to the pool (not an upload's: a
// transport may still be writing it), and its block loop to the client.
func (cl *call) keep() {
	a, w, x := cl.a, cl.q.window(), cl.x
	if rec := a.allocs[cl.app]; cl.err == nil && x.host != nil && rec.holds(w) {
		a.makeRoom(rec, w)
		for i := range x.blocks {
			x.blocks[i].win = w
			rec.pendBytes += len(x.blocks[i].buf)
		}
		if len(rec.pend) == 0 { // the copy's list becomes the record's
			rec.pend, x.blocks = x.blocks, rec.pend
		} else {
			rec.pend = append(rec.pend, x.blocks...)
		}
		if rec.pendBytes == rec.size {
			a.c.comm.World().PutBuf(rec.shadow)
			rec.shadow = nil
		}
	} else if cl.err == nil || x.dir == DirD2H {
		for _, b := range x.blocks {
			a.c.comm.World().PutBuf(b.buf)
		}
	}
	clear(x.blocks) // the lists stay with the block loop, for its next copy
	clear(x.sends)
	x.host, x.blocks, x.sends, cl.x = nil, x.blocks[:0], x.sends[:0], nil
	a.c.xfers.Put(x)
}

// dropArgs hands a launch's arguments back to the client once no resend can
// read them; under DYNACC_POISON=1 they are zeroed (no daemon decodes kind 0)
// and retired.
func (cl *call) dropArgs() {
	if av := cl.argv; av != nil {
		if cl.argv = nil; poisonFreed {
			*av = launchArgs{}
		} else {
			cl.a.c.argvs.Put(av)
		}
	}
}

// callAsync is call for scheduler-context code: it returns the call in
// flight, and then(err) runs inside the leg that ends it. Nobody waits for
// it, so Finish hands the record back.
func (a *Accel) callAsync(q request, then func(error)) *minimpi.Call {
	cl := a.newCall(q).issue(a.c.opts.Retries, 0)
	cl.then, cl.holds = then, 0
	cl.Arm()
	return &cl.Call
}

// call is a synchronous header-only round trip, answered with a pointer
// (OpMemAlloc's) or nothing; status is one answered with a status only.
func (a *Accel) call(p *sim.Proc, q request) (gpu.Ptr, error) {
	cl := a.newCall(q).issue(a.c.opts.Retries, 0)
	cl.Call.Wait(p) // blocks p until the call is over
	ptr := cl.rsp.ptr
	return ptr, cl.Pending.Wait(p)
}

func (a *Accel) status(p *sim.Proc, q request) error {
	_, err := a.call(p, q)
	return err
}

// submit starts a header-only stream command and returns at once: on its way
// to the daemon, or with batching on recorded behind the stream's queued
// commands. The buffer flushes at the BatchOps/batchBytes thresholds;
// otherwise it ships at the next blocking call on the stream, an explicit
// Flush, or a Wait on any recorded Pending.
func (a *Accel) submit(cl *call) *Pending {
	q := &cl.q
	if !a.batching() {
		cl.issue(a.c.opts.Retries, 0).Arm()
		return &cl.Pending
	}
	if n := int(q.stream) + 1; n > len(a.recs) {
		a.recs = append(a.recs, make([]recorder, n-len(a.recs))...)
	}
	rec := &a.recs[q.stream]
	cl.queued = true
	rec.cmds = append(rec.cmds, cl)
	rec.bytes += cmdCost(q)
	if len(rec.cmds) >= a.c.opts.BatchOps || rec.bytes >= batchBytes {
		a.flush(q.stream, 0)
	}
	return &cl.Pending
}

// recorder accumulates one stream's command buffer between flushes: calls
// not yet issued, each with the Pending its caller holds.
type recorder struct {
	cmds  []*call
	bytes int // wire-size estimate, inline payloads and model pads included
}

// batching reports whether ops may be recorded right now (batching is
// configured on and no Failover/Migrate rebuild is in progress).
func (a *Accel) batching() bool { return a.c.opts.BatchOps > 0 && !a.noFlush }

// cmdCost estimates the bytes a command adds to the batch message. It
// only steers the batchBytes flush threshold, so a rough upper bound on
// the encoded header is fine.
func cmdCost(q *request) int {
	return 48 + len(q.kernel) + 12*len(q.launch.Args) + len(q.inline) + q.modelPad()
}

// flushAll flushes every stream's recorder, in ascending stream order.
func (a *Accel) flushAll() {
	for id := range a.recs {
		a.flush(uint8(id), 0)
	}
}

// Flush ships one stream's recorded commands and returns a Pending that
// completes when the daemon has answered (each recorded operation's own
// Pending completes too, with its per-command error), or nil when nothing
// was pending. A single recorded non-inline command is issued as it is —
// the wire shape is then identical to the unbatched path. Multiple commands
// (or an inline write) travel as one opBatch carrying one request ID: the
// daemon executes them in order, answers with a per-command status vector,
// and its dedup table replays the whole batch atomically on retransmission.
// The Pending is waited at most once, as any other; a lone command's is its
// own, held twice, so its record comes back once both holders have waited.
func (a *Accel) Flush(stream uint8) *Pending { return a.flush(stream, 1) }

// flush is Flush with the holds its caller takes on the Pending: the client's
// own take none, so an unheld batch's record comes back when it is over.
func (a *Accel) flush(stream, holds uint8) *Pending {
	if a.noFlush || int(stream) >= len(a.recs) || len(a.recs[stream].cmds) == 0 {
		return nil
	}
	rec := &a.recs[stream]
	cmds := rec.cmds
	rec.cmds, rec.bytes = nil, 0
	for _, cm := range cmds {
		cm.queued = false
	}
	cl, pad := cmds[0], 0
	if len(cmds) > 1 || cl.q.op == OpWriteInline {
		sub := make([]*request, len(cmds))
		for i, cm := range cmds {
			sub[i] = &cm.q
			pad += cm.q.modelPad()
		}
		cl = a.newCall(request{op: OpBatch, stream: stream, batch: sub})
		cl.cmds, cl.holds = cmds, 0
	}
	cl.holds += holds
	cl.issue(a.c.opts.Retries, pad).Arm()
	return &cl.Pending
}

// fanOut completes a batch's recorded commands from its answer, each with
// its own status, in order and before the batch itself.
func (cl *call) fanOut() {
	var sts []cmdStatus
	if cl.err == nil {
		sts, cl.err = decodeBatchStatus(cl.rsp.payload, len(cl.cmds))
	}
	if cl.err != nil {
		// Transport or whole-batch failure: every command fails
		// identically — the batch is atomic, never half-applied from
		// the caller's view.
		for _, cm := range cl.cmds {
			cm.err = cl.err
			cm.done.Trigger()
		}
		return
	}
	for i, cm := range cl.cmds {
		switch sts[i].status {
		case batchCmdOK:
			cm.applied()
		case batchCmdFailed:
			cm.err = &BatchError{Index: i, Op: cm.q.op, Err: &remoteError{msg: sts[i].errmsg}}
			if cl.err == nil {
				cl.err = cm.err
			}
		default: // batchCmdSkipped
			cm.err = &BatchError{Index: i, Op: cm.q.op, Err: ErrBatchAborted}
		}
		cm.done.Trigger()
	}
}

// streamCopy issues a copy request and starts its block stream: q.size bytes
// between host (nil in model mode) and the device window q describes, in
// blocks planned by the direction's protocol. The stream is a chain of legs
// over the call's Waiter; its first leg takes the queue position the copy's
// helper process was spawned at.
func (a *Accel) streamCopy(dir TransferDir, q request, host []byte) *Pending {
	// A streamed copy is a blocking exchange on its stream: recorded
	// commands there must reach the daemon first to keep stream order (and
	// a download reads what they wrote).
	a.flush(q.stream, 0)
	q.block, q.depth = a.c.tunePlan(a.c.protocol(dir), a.rank, dir, q.size, true)
	cl := a.newCall(q)
	cl.x = a.c.xfers.Get()
	*cl.x = xfer{dir: dir, host: host, sends: cl.x.sends, blocks: cl.x.blocks}
	cl.issue(0, 0)
	a.sim().Park(parkedCopy)
	a.sim().AfterCall(0, startStream, cl)
	return &cl.Pending
}

// startStream posts an upload's sends, all of them (each waits for the
// daemon's clearance) — with a host side, from pooled blocks the shadow keeps:
// the upload's one host copy — and enters the block loop.
func startStream(v any) {
	cl := v.(*call)
	a, q, x := cl.a, &cl.q, cl.x
	x.t0, x.nb = a.sim().Now(), numBlocks(q.size, q.block)
	if x.host != nil { // the lists are sized once, not block by block
		x.blocks = slices.Grow(x.blocks, x.nb)
	}
	if x.dir == DirH2D {
		x.sends = slices.Grow(x.sends, x.nb)
		for i := 0; i < x.nb; i++ {
			lo := i * q.block
			hi := min(lo+q.block, q.size)
			if x.host != nil {
				b := a.c.comm.World().GetBuf(hi - lo)
				copy(b, x.host[lo:hi])
				x.blocks = append(x.blocks, shadowBlock{buf: b, lo: lo})
				x.sends = append(x.sends, a.c.comm.Isend(a.rank, dataTag(q.reqID), b))
			} else {
				x.sends = append(x.sends, a.c.comm.IsendSized(a.rank, dataTag(q.reqID), hi-lo))
			}
		}
	}
	cl.stream()
}

// stream is the front-end's side of a copy's block stream: block by block it
// waits for the send to clear, or posts the receive and takes the bytes —
// each wait bounded by the client's Timeout, single attempt: payload blocks
// are not retransmitted — and past the last block it arms the response wait.
func (cl *call) stream() {
	a, q, x := cl.a, &cl.q, cl.x
	for ; x.i < x.nb; x.i++ {
		switch {
		case cl.Req != nil: // back from waiting on it
		case x.dir == DirH2D:
			cl.Req = x.sends[x.i]
		default:
			cl.Req = a.c.comm.Irecv(a.rank, dataTag(q.reqID))
		}
		if !cl.Await(a.c.opts.Timeout, blockOver, cl) {
			return
		}
		data, st := cl.Req.Result()
		if cl.Req = nil; x.dir == DirD2H && x.host != nil && st.Pooled {
			// A download's block, a pool buffer: copied out, and kept.
			copy(x.host[x.i*q.block:], data)
			x.blocks = append(x.blocks, shadowBlock{buf: data, lo: x.i * q.block})
		} else {
			a.c.comm.World().PutPayload(data, st)
		}
	}
	cl.Arm()
}

// blockOver is the leg after a block wait: on with the loop, or the peer is
// considered dead — the rest of the payload is abandoned (canceling releases
// the in-flight transfers) and the copy fails.
func blockOver(v any) {
	cl := v.(*call)
	if cl.Req.Completed() {
		cl.stream()
		return
	}
	for i := cl.x.i; i < len(cl.x.sends); i++ {
		cl.x.sends[i].Cancel()
	}
	te := silence(0, cl.a.rank)
	te.Attempts = 1
	cl.End(&te)
}

// MemAlloc allocates n bytes on the accelerator (acMemAlloc).
func (a *Accel) MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error) {
	phys, err := a.call(p, request{op: OpMemAlloc, size: n})
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
		if a.remap == nil {
			a.remap = make(map[gpu.Ptr]gpu.Ptr)
		}
		a.remap[app] = phys
	}
	rec := a.c.recs.Get()
	rec.size = n
	a.allocs[app] = rec
	return app, nil
}

// MemFree releases device memory (acMemFree). With batching on, the free
// is recorded behind the stream's queued commands and the whole buffer
// flushes immediately — the call still blocks until the daemon confirms,
// but coalesces with everything recorded before it.
func (a *Accel) MemFree(p *sim.Proc, ptr gpu.Ptr) error {
	if a.batching() {
		return a.submit(a.newCall(request{op: OpMemFree, ptr: ptr})).Wait(p)
	}
	return a.status(p, request{op: OpMemFree, ptr: ptr})
}

// shadowWrite mirrors a write to a device window — src's packed columns, or
// with src nil a memset's value — into the allocation's host mirror.
func (a *Accel) shadowWrite(rec *allocRecord, w window, src []byte, value byte) {
	if !rec.holds(w) {
		return
	}
	a.makeRoom(rec, w)
	if src == nil {
		gpu.FillBytes(a.mirror(rec)[w.off:w.end()], value) // a memset's window is contiguous
	} else {
		w.scatter(a.mirror(rec), 0, src)
	}
}

// mirror is the record's host mirror, made on first need from a cleared pool buffer.
func (a *Accel) mirror(rec *allocRecord) []byte {
	if rec.shadow == nil {
		rec.shadow = a.c.comm.World().GetBuf(rec.size)
		clear(rec.shadow)
	}
	return rec.shadow
}

// makeRoom readies the shadow for a write to w: pending blocks w surely covers
// (its window, or contiguous over their extent) drop; other overlaps settle.
func (a *Accel) makeRoom(rec *allocRecord, w window) {
	kept, partial := rec.pend[:0], false
	for _, b := range rec.pend {
		lo, hi := b.win.at(b.lo), b.win.at(b.lo+len(b.buf)-1)+1
		meets := lo < w.end() && w.off < hi
		if meets && (b.win == w || w.pitch == w.colBytes && w.off <= lo && hi <= w.end()) {
			a.c.comm.World().PutBuf(b.buf)
			rec.pendBytes -= len(b.buf)
			continue
		}
		partial = partial || meets
		kept = append(kept, b)
	}
	clear(rec.pend[len(kept):])
	if rec.pend = kept; partial {
		a.settle(rec)
	}
}

// settle folds the pending blocks into the mirror, oldest first, and drops
// them; it reports whether there is a mirror.
func (a *Accel) settle(rec *allocRecord) bool {
	for _, b := range rec.pend {
		b.win.scatter(a.mirror(rec), b.lo, b.buf)
	}
	a.makeRoom(rec, window{0, rec.size, 1, rec.size}) // covers, so drops, every pending block
	return rec.shadow != nil
}

// drop returns the pending blocks and the mirror of a gone allocation to the
// pool, and its record, block list kept, to the client (MemAlloc reuses it);
// under DYNACC_POISON=1 the record is retired and a later use panics.
func (a *Accel) drop(rec *allocRecord) {
	a.makeRoom(rec, window{0, rec.size, 1, rec.size})
	a.c.comm.World().PutBuf(rec.shadow)
	if rec.shadow = nil; poisonFreed {
		rec.size = -1
	} else {
		a.c.recs.Put(rec)
	}
}

// checkWindow validates a strided window and, when the copy has a host side
// (name, host), that it holds exactly the window's bytes.
func checkWindow(op, name string, host []byte, colBytes, cols, pitch int) error {
	if n := colBytes * cols; host != nil && len(host) != n {
		return fmt.Errorf("core: %s: %s has %d bytes, geometry says %d", op, name, len(host), n)
	}
	if colBytes < 0 || cols <= 0 || pitch < colBytes {
		return fmt.Errorf("core: %s: invalid geometry colBytes=%d cols=%d pitch=%d", op, colBytes, cols, pitch)
	}
	return nil
}

// MemcpyH2D copies n bytes of host memory into device memory at dst+off
// (acMemCpy, host→device). src may be nil in model mode: the transfer
// then carries only its size. The call uses the client's H2D protocol and
// completes when the daemon acknowledges the full payload.
func (a *Accel) MemcpyH2D(p *sim.Proc, dst gpu.Ptr, off int, src []byte, n int) error {
	return a.MemcpyH2DAsync(dst, off, src, n, 0).Wait(p)
}

// MemcpyH2DAsync starts a host-to-device copy on the given stream and
// returns immediately; the payload streams in the background.
func (a *Accel) MemcpyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) *Pending {
	return a.MemcpyH2D2DAsync(dst, off, n, 1, n, src, stream)
}

// MemcpyH2D2DAsync copies a strided device window (the cudaMemcpy2D
// analogue): cols columns of colBytes bytes land pitch bytes apart at
// dst+off. src is the packed host data (colBytes*cols bytes, or nil in
// model mode).
func (a *Accel) MemcpyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) *Pending {
	if err := checkWindow("MemcpyH2D", "src", src, colBytes, cols, pitch); err != nil {
		return a.failed(err)
	}
	n := colBytes * cols
	q := request{op: OpMemcpyH2D, stream: stream, ptr: dst, off: off, size: n, cols: cols, pitch: pitch}
	if a.batching() && n <= inlineCopy {
		// Small upload: the payload rides inside the command buffer (a
		// copy is taken now — the caller may reuse src immediately). In
		// model mode (src nil) the flush pads the wire message by n bytes
		// so the virtual-time cost matches execute mode.
		q.op = OpWriteInline
		if src != nil {
			q.inline = append([]byte(nil), src...)
		}
		return a.submit(a.newCall(q))
	}
	return a.streamCopy(DirH2D, q, src)
}

// MemcpyD2H copies n bytes of device memory at src+off into dst
// (acMemCpy, device→host). dst may be nil in model mode.
func (a *Accel) MemcpyD2H(p *sim.Proc, dst []byte, src gpu.Ptr, off, n int) error {
	return a.MemcpyD2HAsync(dst, src, off, n, 0).Wait(p)
}

// MemcpyD2HAsync starts a device-to-host copy on the given stream; the
// blocks are drained into dst in the background.
func (a *Accel) MemcpyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) *Pending {
	return a.MemcpyD2H2DAsync(dst, src, off, n, 1, n, stream)
}

// MemcpyD2H2DAsync is the asynchronous strided device-to-host copy of a
// device window into packed host memory, the inverse of MemcpyH2D2DAsync.
func (a *Accel) MemcpyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) *Pending {
	if err := checkWindow("MemcpyD2H", "dst", dst, colBytes, cols, pitch); err != nil {
		return a.failed(err)
	}
	return a.streamCopy(DirD2H, request{op: OpMemcpyD2H, stream: stream, ptr: src, off: off, size: colBytes * cols,
		cols: cols, pitch: pitch}, dst)
}

// Memset fills n bytes of device memory at dst+off with value
// (acMemSet / cuMemsetD8).
func (a *Accel) Memset(p *sim.Proc, dst gpu.Ptr, off, n int, value byte) error {
	return a.MemsetAsync(dst, off, n, value, 0).Wait(p)
}

// MemsetAsync queues the fill on a stream.
func (a *Accel) MemsetAsync(dst gpu.Ptr, off, n int, value byte, stream uint8) *Pending {
	if n < 0 {
		return a.failed(fmt.Errorf("core: Memset: negative size %d", n))
	}
	return a.submit(a.newCall(request{op: OpMemset, stream: stream, ptr: dst, off: off, size: n, value: value}))
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
	return k.a.LaunchAsync(k.name, gpu.Launch{Grid: grid, Block: block, Args: k.args}, stream)
}

// LaunchAsync is the three launch steps in one, without a Kernel object:
// l.Args is copied into the call's own array, so the caller may reuse it at
// once.
func (a *Accel) LaunchAsync(kernel string, l gpu.Launch, stream uint8) *Pending {
	cl := a.newCall(request{op: OpKernelRun, stream: stream, kernel: kernel, launch: l})
	cl.argv = a.c.argvs.Get()
	cl.q.launch.Args = append(cl.argv[:0], l.Args...)
	return a.submit(cl)
}

// Sync blocks until every outstanding request on every stream of this
// accelerator has completed (cuCtxSynchronize analogue). Recorded
// command buffers on every stream are flushed first.
func (a *Accel) Sync(p *sim.Proc) error {
	a.flushAll()
	return a.status(p, request{op: OpSync})
}

// Info queries the accelerator's device description. Queued commands
// flush first so MemUsed reflects every recorded alloc-affecting op.
func (a *Accel) Info(p *sim.Proc) (DeviceInfo, error) {
	a.flushAll()
	cl := a.newCall(request{op: OpDeviceInfo}).issue(a.c.opts.Retries, 0)
	cl.Call.Wait(p)
	info, err := decodeDeviceInfo(cl.rsp.payload)
	if werr := cl.Pending.Wait(p); werr != nil {
		return DeviceInfo{}, werr
	}
	return info, err
}

// Reset frees every allocation on the accelerator, giving the next
// exclusive holder a clean device. Call it before releasing the handle
// back to the ARM.
func (a *Accel) Reset(p *sim.Proc) error {
	a.flushAll()
	return a.status(p, request{op: OpReset})
}

// ResetAsync is Reset for scheduler-context code (the ARM's sanitize
// before reuse); see callAsync.
func (a *Accel) ResetAsync(then func(error)) *minimpi.Call {
	a.flushAll()
	return a.callAsync(request{op: OpReset}, then)
}

// Shutdown stops the accelerator's daemon (simulation teardown).
// Recorded commands flush first so nothing queued is lost.
func (a *Accel) Shutdown(p *sim.Proc) error {
	a.flushAll()
	return a.status(p, request{op: OpShutdown})
}

// Failover migrates the handle to a replacement accelerator after its
// daemon stopped answering (paper Section III: "in case of an
// accelerator failure, the ARM assigns a replacement"): the client's
// replacer reports the failure and returns a fresh rank, then every live
// allocation is re-created there and its host-shadowed contents are
// re-uploaded. App-visible pointers stay valid — subsequent requests
// translate them to the replacement's memory. A device-to-device copy
// carries its source's shadow along (CopyD2D); contents the front-end
// never saw, such as kernel results, are not restored: applications
// re-run from the recovered state.
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
		if err := a.OpenSession(p); err != nil {
			return fmt.Errorf("core: failover %d->%d: open session: %w", oldRank, newRank, err)
		}
	}
	a.remap = make(map[gpu.Ptr]gpu.Ptr, len(a.allocs)) // the rebuild maps every allocation
	err = a.rebuild(p, a, fmt.Sprintf("failover %d->%d: re-alloc", oldRank, newRank), func(ptr, phys gpu.Ptr, rec *allocRecord) error {
		a.remap[ptr] = phys
		if a.settle(rec) {
			if err := a.MemcpyH2D(p, ptr, 0, rec.shadow, rec.size); err != nil {
				return fmt.Errorf("core: failover %d->%d: re-upload: %w", oldRank, newRank, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.noFlush = false
	a.flushAll()
	return nil
}

// rebuild re-creates the handle's live allocations on the accelerator
// behind on, in a deterministic order — sorted app-visible pointers — and
// has fill put the contents of each in place.
func (a *Accel) rebuild(p *sim.Proc, on *Accel, what string, fill func(ptr, phys gpu.Ptr, rec *allocRecord) error) error {
	ptrs := make([]gpu.Ptr, 0, len(a.allocs))
	for ptr := range a.allocs {
		ptrs = append(ptrs, ptr)
	}
	slices.Sort(ptrs)
	for _, ptr := range ptrs {
		rec := a.allocs[ptr]
		phys, err := on.call(p, request{op: OpMemAlloc, size: rec.size})
		if err != nil {
			return fmt.Errorf("core: %s %d bytes: %w", what, rec.size, err)
		}
		if err := fill(ptr, phys, rec); err != nil {
			return err
		}
	}
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
	tmp := c.handle(newRank, true)
	if a.session != 0 {
		if err := tmp.OpenSession(p); err != nil {
			return fmt.Errorf("core: migrate %d->%d: open session: %w", oldRank, newRank, err)
		}
	}
	newRemap := make(map[gpu.Ptr]gpu.Ptr, len(a.allocs))
	err := a.rebuild(p, tmp, fmt.Sprintf("migrate %d->%d: alloc", oldRank, newRank), func(ptr, phys gpu.Ptr, rec *allocRecord) error {
		if err := c.CopyD2D(p, a, ptr, 0, rec.size, 1, rec.size, tmp, phys, 0, 0, 0); err != nil {
			// The old daemon died mid-copy after all: fall back to the
			// failover path for this allocation when a host shadow exists.
			if !a.settle(rec) {
				return fmt.Errorf("core: migrate %d->%d: direct copy: %w", oldRank, newRank, err)
			}
			if err2 := tmp.MemcpyH2D(p, phys, 0, rec.shadow, rec.size); err2 != nil {
				return fmt.Errorf("core: migrate %d->%d: shadow replay after %v: %w", oldRank, newRank, err, err2)
			}
		}
		newRemap[ptr] = phys
		return nil
	})
	if err != nil {
		return err
	}
	oldSession := a.session
	a.rank = newRank
	a.remap = newRemap
	if oldSession != 0 {
		// Adopt the destination session, then close the old one so the old
		// daemon frees the migrated-away allocations (best effort: the old
		// daemon is suspect and may be gone).
		a.session = tmp.session
		old := c.handle(oldRank, true)
		old.session = oldSession
		_ = old.CloseSession(p)
	}
	return nil
}

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

// CopyD2D copies a window of src's device memory (cols columns of
// colBytes bytes, pitch bytes apart from srcPtr+srcOff; contiguous n bytes
// are the window n, 1, n) to dst's memory at dstPtr+dstOff, packed, with no
// byte staged through the compute node. The handles pick the route: one
// handle runs a header-only OpMemcpyD2D on srcStream (contiguous only);
// two handles of this client stream the payload daemon to daemon, sent on
// srcStream and received on dstStream, so a relay on distinct streams
// receives and forwards at once; another client's handle gets
// ErrNoPeerPath. On success the source window's host shadow becomes the
// destination range's, so a failed-over destination replays the copy.
func (c *Client) CopyD2D(p *sim.Proc, src *Accel, srcPtr gpu.Ptr, srcOff, colBytes, cols, pitch int, dst *Accel, dstPtr gpu.Ptr, dstOff int, srcStream, dstStream uint8) error {
	if src.c != c || dst.c != c {
		return fmt.Errorf("core: CopyD2D: accelerators belong to a different client: %w", ErrNoPeerPath)
	}
	if err := checkWindow("CopyD2D", "", nil, colBytes, cols, pitch); err != nil {
		return err
	}
	if src == dst && cols > 1 {
		return fmt.Errorf("core: CopyD2D: a copy on one accelerator is contiguous, got %d columns", cols)
	}
	// The copy reads and writes device state touched by queued commands.
	src.flushAll()
	dst.flushAll()
	w, n := window{srcOff, colBytes, cols, pitch}, colBytes*cols
	var err error
	if src == dst {
		err = src.status(p, request{op: OpMemcpyD2D, stream: srcStream, ptr: srcPtr, off: srcOff, ptr2: dstPtr, off2: dstOff, size: n})
	} else {
		block, depth := c.tunePlan(c.opts.D2H, dst.rank, DirD2D, n, true)
		c.nextReq++
		t0, xferID := p.Now(), c.nextReq
		// Post the receiver side first so its daemon is ready for the stream.
		recvCall := dst.newCall(request{op: OpD2DRecv, ptr: dstPtr, off: dstOff, size: n, cols: 1, pitch: n,
			block: block, depth: depth, peer: src.rank, xferID: xferID, stream: dstStream}).issue(0, 0)
		sendCall := src.newCall(request{op: OpD2DSend, ptr: srcPtr, off: srcOff, size: n, cols: cols, pitch: pitch,
			block: block, depth: depth, peer: dst.rank, xferID: xferID, stream: srcStream}).issue(0, 0)
		recvCall.Call.Wait(p)
		sendCall.Call.Wait(p)
		errRecv, errSend := recvCall.Pending.Wait(p), sendCall.Pending.Wait(p)
		if err = firstOf(errSend, errRecv); err == nil {
			c.tuneRecord(c.opts.D2H, dst.rank, DirD2D, block, n, sim.Duration(p.Now()-t0))
		}
	}
	to := window{dstOff, n, 1, n}
	if rec, drec := src.allocs[srcPtr], dst.allocs[dstPtr]; err == nil && rec.holds(w) && drec.holds(to) && src.settle(rec) {
		packed := rec.shadow[w.off:w.end()]
		if cols > 1 {
			packed = c.comm.World().GetBuf(n)
			defer c.comm.World().PutBuf(packed)
			w.gather(packed, rec.shadow)
		}
		dst.shadowWrite(drec, to, packed, 0)
	}
	return err
}

func (a *Accel) sim() *sim.Simulation { return a.c.comm.World().Sim() }
