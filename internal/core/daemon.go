package core

import (
	"fmt"
	"slices"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// postCost is the daemon-CPU time per pipeline block (posting the next
// receive, progressing MPI); with the device's async-copy setup cost it makes
// very small blocks unprofitable for large payloads (paper Section V-A).
const postCost = 1 * sim.Microsecond

// DaemonConfig tunes the back-end daemon.
type DaemonConfig struct {
	// PayloadTimeout bounds how long a copy pipeline waits for any single
	// payload block (or for a receiver's clearance when sending). Zero
	// waits forever. With a timeout set, a transfer whose peer died —
	// front-end or partner daemon — winds down with an error response
	// instead of wedging the stream worker for good, which is what lets
	// surviving daemons be reused after a failover.
	PayloadTimeout sim.Duration
	// HeartbeatInterval, when positive and Heartbeat is set, makes the
	// daemon call Heartbeat every interval with the ranks it served since
	// the previous beat. The cluster wires this to the ARM's health
	// subsystem; the daemon itself knows nothing about the ARM.
	HeartbeatInterval sim.Duration
	// Heartbeat is the beat sink (see HeartbeatInterval). It runs on the
	// daemon's heartbeat process and must not block for long; active is the
	// daemon's scratch, valid until the call returns.
	Heartbeat func(active []int)
}

// DefaultDaemonConfig returns the paper's daemon: no payload timeout and
// no heartbeat.
func DefaultDaemonConfig() DaemonConfig {
	return DaemonConfig{}
}

// DaemonStats reports cumulative daemon activity.
type DaemonStats struct {
	Requests int64
	// StagingPeak is the largest staging-memory footprint of any single
	// copy: the whole payload for the naive protocol, depth*block for the
	// pipeline (the paper's bounded-memory argument).
	StagingPeak int64
	BlocksIn    int64
	BlocksOut   int64
	// DupsDropped counts retransmitted requests absorbed by the dedup
	// table (in-flight duplicates dropped, completed ones re-answered).
	DupsDropped int64
	// Beats counts heartbeats sent (zero unless heartbeats are wired).
	Beats int64
	// Batches counts opBatch command buffers executed; BatchedOps counts
	// the commands they carried (each batch is one entry in Requests).
	Batches    int64
	BatchedOps int64
	// SessionsOpened counts tenant sessions ever opened (multi-tenant
	// sharing; zero in exclusive mode).
	SessionsOpened int64
	// Fenced counts destructive requests rejected because their fencing
	// token was below the daemon's high-water epoch (split-brain safety,
	// DESIGN.md §12).
	Fenced int64
}

// FenceMark records the daemon's fencing high-water mark advancing: from
// Time on, destructive requests with tokens below Epoch are rejected.
// The ARM-side split-brain checker consumes these after chaos runs.
type FenceMark struct {
	Epoch uint64
	Time  sim.Time
}

// dedupWindow is how many requests the daemon remembers. An older
// retransmit looks new, so the window need only exceed the deepest retry
// horizon a client can have in flight; 512 is orders of magnitude beyond.
const dedupWindow = 512

// Daemon is the back-end running on an accelerator node: it receives
// requests from front-ends and executes them on the local virtual GPU via
// the driver API (paper Figure 4, right side).
type Daemon struct {
	comm  *minimpi.Comm
	dev   *gpu.Device
	cfg   DaemonConfig
	sim   *sim.Simulation
	stats DaemonStats

	mainP *sim.Proc
	recv  *minimpi.Request // the dispatch loop's posted request receive

	// procs tracks every process the daemon owns (dispatch loop, stream
	// workers, session teardown helpers) so Kill can take the whole daemon
	// down the way a host crash would. Copy pipelines are callback legs,
	// not processes: they stop on dead (see pipeScratch).
	procs   []*sim.Proc
	pipes   *pipeScratch // the copy-pipeline scratches made, linked: Kill abandons their waits
	dead    bool
	stopped bool // Run returned (graceful shutdown)

	// active records the ranks that sent requests since the last
	// heartbeat, so beats can piggyback lease renewals for them.
	active map[int]struct{}
	beat   []int // takeActive's scratch

	// The dedup table, the scratch responses are encoded in, and the request
	// records free to decode into (answer recycles one nothing reads).
	replies minimpi.ReplyCache
	encw    *wire.Writer
	reqs    sim.FreeList[request]

	// scratches recycles copy-pipeline state (staging resource, per-block
	// request/event slices) between transfers. A transfer in flight holds
	// its scratch exclusively; steady state runs allocation-free. A record
	// in use when the daemon is killed never goes back, like every other
	// pooled object of a killed process.
	scratches sim.FreeList[pipeScratch]

	// root is the session session-less requests run in: no ownership
	// view, no quota. sessions holds the tenants' (multi-tenant sharing;
	// empty in exclusive mode). See session.go.
	root     *session
	sessions map[sessKey]*session

	// What retired sessions and OpSync's barriers hand back (see retired and
	// synced).
	freeSessions sim.FreeList[session]
	mboxes       []*sim.Mailbox // a plain slice: a mailbox comes from NewMailbox
	groups       sim.FreeList[syncGroup]

	// Fencing (split-brain safety). fenceHigh is the highest fencing
	// token ever seen; any tokened request advances it, and destructive
	// ownership ops (reset, session open, session reap) below it are
	// rejected with ErrFenced. fenceLog records each advance for the
	// post-run consistency checker. Both stay zero-valued under
	// token-less traffic.
	fenceHigh uint64
	fenceLog  []FenceMark
}

// NewDaemon creates a daemon serving the device on the given communicator
// rank.
func NewDaemon(comm *minimpi.Comm, dev *gpu.Device, cfg DaemonConfig) *Daemon {
	return &Daemon{
		comm:     comm,
		dev:      dev,
		cfg:      cfg,
		sim:      comm.World().Sim(),
		root:     &session{streams: make(map[uint8]*sim.Mailbox)},
		replies:  minimpi.NewReplyCache(dedupWindow),
		active:   make(map[int]struct{}),
		sessions: make(map[sessKey]*session),
		encw:     wire.NewWriter(64),
	}
}

// Restart returns a fresh daemon serving comm and d's device, as after a
// node reboot: no session, stream or reply survives; the fencing mark and
// its log do, so holders of a deposed ARM epoch stay refused (DESIGN.md §12).
func (d *Daemon) Restart(comm *minimpi.Comm, cfg DaemonConfig) *Daemon {
	nd := NewDaemon(comm, d.dev, cfg)
	nd.fenceHigh, nd.fenceLog = d.fenceHigh, d.fenceLog
	return nd
}

// OpenSessions returns the number of tenant sessions currently open.
func (d *Daemon) OpenSessions() int { return len(d.sessions) }

// FenceEpoch returns the daemon's fencing high-water mark (0 when no
// tokened request was ever seen).
func (d *Daemon) FenceEpoch() uint64 { return d.fenceHigh }

// FenceMarks returns a copy of the fencing-advance log.
func (d *Daemon) FenceMarks() []FenceMark {
	return append([]FenceMark(nil), d.fenceLog...)
}

// fenceChecked reports whether an op is rejected under a stale fencing
// token. Only destructive ownership ops are: a reset or session
// open/reap from a deposed leader's epoch would wipe or admit state the
// successor now manages. Data-path ops and session close stay exempt —
// a surviving holder re-armed under the new epoch still legitimately
// runs (and eventually tears down) work it started under the old one.
func fenceChecked(op uint8) bool {
	switch op {
	case OpReset, OpSessionOpen, OpSessionReap:
		return true
	}
	return false
}

// Stats returns cumulative counters.
func (d *Daemon) Stats() DaemonStats { return d.stats }

// Rank returns the communicator rank the daemon serves on.
func (d *Daemon) Rank() int { return d.comm.Rank() }

// Device returns the device this daemon drives.
func (d *Daemon) Device() *gpu.Device { return d.dev }

// Alive reports whether the daemon is still serving: neither killed nor
// gracefully shut down.
func (d *Daemon) Alive() bool { return !d.dead && !d.stopped }

// Kill crashes the daemon: every process it owns (the dispatch loop,
// stream workers) dies at its next scheduling point and the legs of every
// copy pipeline in flight end at their next event, mid-request state and
// all. Use cluster.RestartDaemon (or a fresh NewDaemon plus endpoint/engine
// resets) to bring the rank back.
func (d *Daemon) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	for _, p := range d.procs {
		p.Kill()
	}
	d.procs = nil
	if d.recv != nil { // nobody will take what it matches: give it up
		d.recv.Free()
	}
	for ps := d.pipes; ps != nil; ps = ps.older {
		for i := range ps.blocks {
			ps.blocks[i].Abandon()
		}
	}
}

// track registers a daemon-owned process for Kill, pruning corpses so the
// list stays proportional to live work.
func (d *Daemon) track(p *sim.Proc) {
	if len(d.procs) > 64 {
		live := d.procs[:0]
		for _, q := range d.procs {
			if !q.Terminated() {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(d.procs); i++ {
			d.procs[i] = nil
		}
		d.procs = live
	}
	d.procs = append(d.procs, p)
}

// spawn starts a daemon-owned child process.
func (d *Daemon) spawn(parent *sim.Proc, name string, fn func(*sim.Proc)) {
	d.track(parent.Spawn(name, fn))
}

// syncGroup implements the cross-stream barrier behind OpSync, session
// close/reset/reap and OpShutdown: each stream worker "arrives" when it
// drains to the marker; the last arrival completes the group.
type syncGroup struct {
	remaining int
	done      sim.Event
	poison    bool // workers exit after arriving (close, reap, shutdown)
	// OpSync's: the daemon and the request it answers (see synced).
	d     *Daemon
	src   int
	reqID uint64
}

func (g *syncGroup) arrive() {
	g.remaining--
	if g.remaining <= 0 {
		g.done.Trigger()
	}
}

// Run serves requests until a shutdown request arrives. Spawn it as the
// accelerator rank's process.
func (d *Daemon) Run(p *sim.Proc) {
	d.mainP = p
	d.track(p)
	defer func() { d.stopped = true }()
	if d.cfg.HeartbeatInterval > 0 && d.cfg.Heartbeat != nil {
		d.spawn(p, fmt.Sprintf("%s-heartbeat", d.dev.Name()), func(hp *sim.Proc) {
			for {
				hp.Wait(d.cfg.HeartbeatInterval)
				if d.stopped || d.dead {
					return
				}
				d.cfg.Heartbeat(d.takeActive())
				d.stats.Beats++
			}
		})
	}
	for {
		d.recv = d.comm.Irecv(minimpi.AnySource, TagRequest)
		data, st := d.recv.Wait(p)
		d.recv = nil
		d.active[st.Source] = struct{}{}
		q := d.reqs.Get()
		err, whole := q.decode(data, d.dev.Registry()), len(data) >= requestHeaderSize
		d.comm.World().PutPayload(data, st) // q copied what it keeps
		q.src = st.Source
		if err != nil {
			// A refused body still deserves an answer when its header was
			// whole, or the caller waits for a response forever.
			if whole {
				d.respond(q.src, q.reqID, err, 0)
			}
			d.reqs.Put(q)
			continue
		}
		if reply, dup := d.replies.Admit(minimpi.ReplyKey{Src: q.src, ReqID: q.reqID}); dup {
			d.stats.DupsDropped++
			if reply != nil {
				// Completed before: replay the recorded response.
				d.comm.SendCopy(q.src, respTag(q.reqID), reply)
			}
			// Still in flight: drop the duplicate; the original will answer.
			d.reqs.Put(q)
			continue
		}
		d.stats.Requests++
		if q.fence != 0 {
			if q.fence > d.fenceHigh {
				d.fenceHigh = q.fence
				d.fenceLog = append(d.fenceLog, FenceMark{Epoch: q.fence, Time: d.sim.Now()})
			} else if q.fence < d.fenceHigh && fenceChecked(q.op) {
				d.stats.Fenced++
				d.answer(q, ErrFenced, 0)
				continue
			}
		}
		switch q.op {
		case OpShutdown:
			// Sessions are drained, not closed: their allocations die with
			// the device.
			d.barrier(new(syncGroup), true, append(d.sortedSessions(), d.root)...).Await(p)
			d.answer(q, nil, 0)
			return
		case OpDeviceInfo:
			di := DeviceInfo{
				ModelName: d.dev.Model().Name,
				MemBytes:  d.dev.Model().MemBytes,
				MemUsed:   d.dev.MemUsed(),
				Execute:   d.dev.ExecuteMode(),
				Kernels:   d.dev.Registry().Names(),
			}
			d.sendResponse(q.src, q.reqID, &response{status: statusOK, payload: encodeDeviceInfo(di)})
		case OpSessionReap:
			d.reapSessions(q)
		case OpSessionOpen:
			d.openSession(q)
		case OpSessionClose:
			d.closeSession(q)
		default:
			d.submit(q)
			continue
		}
		d.reqs.Put(q)
	}
}

// submit hands a request to its session: the root for session-less
// traffic, the sender's own tenant session otherwise. Sync and a tenant's
// reset are barriers over that session's streams only, so neither waits
// for a neighbour's work; everything else queues on its stream's worker,
// which recycles it.
func (d *Daemon) submit(q *request) {
	sess := d.root
	if q.session != 0 {
		sess = d.sessions[sessKey{src: q.src, id: q.session}]
		if sess == nil || sess.closing {
			d.answer(q, sessGone(q.session), 0)
			return
		}
	}
	switch {
	case q.op == OpSync:
		g := d.groups.Get()
		g.d, g.src, g.reqID = d, q.src, q.reqID
		d.barrier(g, false, sess).OnTriggerCall(synced, g)
	case q.op == OpReset && sess != d.root:
		d.resetSession(sess, q)
	default:
		mbox, err := d.stream(sess, q.stream)
		if err != nil {
			d.answer(q, err, 0)
			return
		}
		mbox.Send(q)
		return
	}
	d.reqs.Put(q)
}

// takeActive returns (sorted, for determinism) and clears the set of
// ranks that sent requests since the previous call.
func (d *Daemon) takeActive() []int {
	d.beat = d.beat[:0]
	for r := range d.active {
		d.beat = append(d.beat, r)
	}
	clear(d.active)
	slices.Sort(d.beat)
	return d.beat
}

// synced answers an OpSync whose barrier has drained and hands the group back.
func synced(v any) {
	g := v.(*syncGroup)
	g.d.respond(g.src, g.reqID, nil, 0)
	if !poisonFreed {
		g.d.groups.Put(g)
	}
}

// barrier posts g's sync marker to every stream of the given sessions and
// returns the event that fires once each has drained to it — at once when
// there are none. Commands queued later are not waited for. A poisoned
// marker also ends the stream's worker, so the caller must let no further
// work reach those sessions; a closing session's are ending already.
func (d *Daemon) barrier(g *syncGroup, poison bool, sessions ...*session) *sim.Event {
	g.remaining, g.poison = 0, poison
	g.done.Init(d.sim)
	for _, sess := range sessions {
		if !sess.closing {
			sess.eachStream(func(mbox *sim.Mailbox) {
				g.remaining++
				mbox.Send(g)
			})
		}
	}
	if g.remaining == 0 {
		g.done.Trigger()
	}
	return &g.done
}

// stream returns the mailbox of a session's stream, starting its worker
// on first use (a tenant's on a retired session's mailbox). A tenant's
// stream id is outside input, so the number it can start is capped.
func (d *Daemon) stream(sess *session, id uint8) (*sim.Mailbox, error) {
	if mbox, ok := sess.streams[id]; ok {
		return mbox, nil
	}
	var mbox *sim.Mailbox
	name := "sess-stream"
	switch {
	case sess == d.root:
		name = fmt.Sprintf("%s-stream%d", d.dev.Name(), id)
	case len(sess.streams) >= maxSessionStreams:
		return nil, fmt.Errorf("core: session %d already has %d streams", sess.key.id, maxSessionStreams)
	case len(d.mboxes) > 0:
		mbox = d.mboxes[len(d.mboxes)-1]
		d.mboxes = d.mboxes[:len(d.mboxes)-1]
	}
	if mbox == nil {
		mbox = sim.NewMailbox(d.sim, name)
	}
	sess.streams[id] = mbox
	d.spawn(d.mainP, name, func(p *sim.Proc) {
		for {
			switch item := mbox.Recv(p).(type) {
			case *syncGroup:
				if item.arrive(); item.poison {
					return
				}
			case *request:
				d.execute(p, sess, item)
			}
		}
	})
	return mbox, nil
}

// respond sends a status-only response; typed session errors map to
// their wire status codes.
func (d *Daemon) respond(src int, reqID uint64, err error, ptr gpu.Ptr) {
	rsp := &response{status: statusForErr(err), ptr: ptr}
	if err != nil {
		rsp.errmsg = err.Error()
	}
	d.sendResponse(src, reqID, rsp)
}

// sendResponse encodes a response, records it for replay, sends a copy.
func (d *Daemon) sendResponse(src int, reqID uint64, rsp *response) {
	rsp.reqID = reqID
	enc := d.replies.Store(minimpi.ReplyKey{Src: src, ReqID: reqID}, encodeResponseTo(d.encw, rsp))
	d.comm.SendCopy(src, respTag(reqID), enc)
}

// answer sends q's status-only response and recycles q.
func (d *Daemon) answer(q *request, err error, ptr gpu.Ptr) {
	d.respond(q.src, q.reqID, err, ptr)
	d.reqs.Put(q)
}

// execute runs one request inside a stream worker, under its session:
// the ownership and quota checks first (no-ops for the root session, which
// has no view), then the device. For streamed copies an ownership failure
// is threaded into the copy pipeline as a pre-error so the payload still
// drains in lockstep — the wire winds down cleanly and the typed error
// travels in the response.
func (d *Daemon) execute(p *sim.Proc, sess *session, q *request) {
	err := sess.checkOwned(q)
	switch q.op {
	case OpMemcpyH2D:
		d.recvToDevice(p, q, q.src, dataTag(q.reqID), err)
		return
	case OpMemcpyD2H:
		d.sendFromDevice(p, q, q.src, dataTag(q.reqID), err)
		return
	case OpD2DRecv, OpD2DSend:
		if q.peer >= d.comm.Size() {
			d.answer(q, fmt.Errorf("core: D2D peer rank %d out of range", q.peer), 0)
		} else if q.op == OpD2DRecv {
			d.recvToDevice(p, q, q.peer, d2dTag(q.xferID), err)
		} else {
			d.sendFromDevice(p, q, q.peer, d2dTag(q.xferID), err)
		}
		return
	case OpBatch:
		d.executeBatch(p, q, sess)
		return
	}
	var ptr gpu.Ptr
	if err == nil { // refused: the allocation behind a foreign pointer is never touched
		ptr, err = d.run(p, sess.view, q, false)
	}
	d.answer(q, err, ptr)
}

// run executes a header-only command under a session's view (nil for the
// root) and returns the pointer an alloc made. queued: a kernel behind a
// command buffer's first pays only the device-side dispatch share (the
// buffer came through one driver submission).
func (d *Daemon) run(p *sim.Proc, view *gpu.AllocView, q *request, queued bool) (ptr gpu.Ptr, err error) {
	switch q.op {
	case OpMemAlloc:
		if view != nil && !view.Admits(q.size) {
			err = fmt.Errorf("%w: %d bytes over quota %d (%d in use)",
				ErrQuotaExceeded, q.size, view.Quota(), view.Used())
		} else if ptr, err = d.dev.MemAlloc(p, q.size); err == nil && view != nil {
			view.NoteAlloc(ptr, q.size)
		}
	case OpMemFree:
		if err = d.dev.MemFree(p, q.ptr); err == nil && view != nil {
			view.NoteFree(q.ptr)
		}
	case OpKernelRun:
		if queued {
			err = d.dev.LaunchKernelQueued(p, q.kernel, q.launch)
		} else {
			err = d.dev.LaunchKernel(p, q.kernel, q.launch)
		}
	case OpMemset:
		err = d.dev.Memset(p, q.ptr, q.off, q.size, q.value)
	case OpMemcpyD2D:
		err = d.dev.CopyD2D(p, q.ptr2, q.off2, q.ptr, q.off, q.size)
	case OpReset:
		// Root only: a tenant's reset is a barrier over its own streams
		// (resetSession) and never reaches a worker.
		d.dev.Reset(p)
	default:
		err = fmt.Errorf("op %d not executable on a stream", q.op)
	}
	return ptr, err
}

// executeBatch runs a command buffer in order inside its stream worker,
// stopping at the first failing command (stream order must never be
// violated by executing past an error); the rest are marked skipped. The
// single response carries the per-command status vector, and — like any
// response — is recorded in the dedup table, so a retransmitted batch is
// replayed atomically: executed once, answered twice. Under a tenant
// session every command passes the ownership check first and frees update
// the session's allocator view.
func (d *Daemon) executeBatch(p *sim.Proc, q *request, sess *session) {
	sts := make([]cmdStatus, len(q.batch))
	failed, submitPaid := false, false // the first kernel pays the submit
	for i, sub := range q.batch {
		if failed {
			sts[i] = cmdStatus{status: batchCmdSkipped}
			continue
		}
		err := sess.checkOwned(sub)
		switch {
		case err != nil:
		case sub.op == OpWriteInline:
			err = d.writeInline(p, sub)
		default:
			_, err = d.run(p, sess.view, sub, submitPaid)
			submitPaid = submitPaid || sub.op == OpKernelRun
		}
		if err != nil {
			sts[i] = cmdStatus{status: batchCmdFailed, errmsg: err.Error()}
			failed = true
		}
	}
	d.stats.Batches++
	d.stats.BatchedOps += int64(len(q.batch))
	d.sendResponse(q.src, q.reqID, &response{status: statusOK, payload: encodeBatchStatus(sts)})
	d.reqs.Put(q)
}

// writeInline lands a small host-to-device write whose payload arrived
// with the command buffer: the bytes already sit in (pageable) host
// memory, so the cost is one async-copy setup plus an unpinned DMA — no
// staging pipeline, no extra wire exchange.
func (d *Daemon) writeInline(p *sim.Proc, q *request) error {
	w := q.window()
	if err := d.dev.ValidRange(q.ptr, q.off, w.end()-q.off); err != nil {
		return err
	}
	if q.size == 0 {
		return nil
	}
	p.Wait(postCost + d.dev.AsyncSetupCost())
	if err := d.dev.CopyEngineTransfer(p, q.size, true, false); err != nil {
		return err
	}
	if len(q.inline) > 0 {
		return d.dev.ScatterColumns(q.ptr, q.off, w.colBytes, w.cols, w.pitch, q.inline)
	}
	return nil
}

// pipeScratch is the reusable state of one copy pipeline: the staging
// resource, the per-block records and what the pipeline's legs need to know
// about the transfer in flight. A transfer holds a scratch exclusively from
// prepare to release; everything is quiescent in between (all events fired
// and seen, every leg run out, every staging slot released), so reuse is
// invisible to the simulation.
//
// A pipeline is not a set of processes but chains of scheduler callbacks
// over these records, the way a message in flight is (minimpi/p2p.go): the
// per-block loop the stream worker used to run itself, and the stages it
// used to spawn per block — posting receives, the DMA of a received block,
// the DMA and send of an outgoing one. Each leg is a top-level function
// that ends by scheduling the next at the point where the process running
// the same script was spawned or would have resumed, so every leg pushes
// exactly one event, at the queue position that process's dispatch had. The
// stream worker starts the chains, blocks in Suspend — which is what keeps
// an unanswered transfer visible to the deadlock detector, under the
// worker's name — and is resumed by the last leg, inside that leg's event,
// to answer the request. A killed daemon's legs end at their next event, as
// its processes would: nothing released, nothing counted, no event
// triggered.
type pipeScratch struct {
	d       *Daemon
	older   *pipeScratch // the scratch the daemon made before this one (Daemon.pipes)
	staging *sim.Resource
	depth   int
	blocks  []pipeBlock

	owner    *sim.Proc // the stream worker, suspended while the transfer runs
	q        *request
	peer     int         // the rank blocks come from (receive) or go to (send)
	tag      minimpi.Tag // the block stream's tag
	deadline sim.Duration
	// cost is the per-block CPU work: progress the message, post the
	// asynchronous DMA.
	cost   sim.Duration
	window // the device window the blocks pack

	next    int // the block the per-block loop is at
	nposted int // receive: blocks the poster has posted a receive for
	ndone   int // blocks the drain has seen through
	placed  int // receive: packed bytes received so far, the next block's offset
	// winErr puts the device window off limits: the ownership or range
	// check failed up front, or a block's placement (receive) or gather
	// (send) did. Blocks keep flowing so the peer stays in lockstep, but
	// from then on a received one is not placed and a sent one ships empty.
	// peerErr is the first block wait that ran out of time, dmaErr the
	// first DMA error.
	winErr, peerErr, dmaErr error
}

// pipeBlock is one block's slot in a pipeline.
type pipeBlock struct {
	ps             *pipeScratch
	minimpi.Waiter           // on Req: the block's posted receive, or its send
	posted         sim.Event // receive: req is posted
	done           sim.Event // the block is through; its staging slot is free
	lo             int       // send: packed offset of the block in the window
	size           int
	buf            []byte // send: the gathered bytes (execute mode), while the DMA runs
	dma            gpu.PinnedCopy
}

// statePipeline is what a stream worker is blocked on while its transfer's
// legs run.
const statePipeline = "in copy pipeline"

// prepare takes a scratch off the free list and readies it for worker p's
// transfer of nb blocks, re-initializing the per-block events in place; it
// checks the device window unless preErr has already refused the transfer.
func (d *Daemon) prepare(p *sim.Proc, q *request, peer int, tag minimpi.Tag, nb int, preErr error) *pipeScratch {
	ps := d.scratches.Get()
	if ps.d == nil {
		ps.older, d.pipes = d.pipes, ps
	}
	ps.d = d
	if ps.staging == nil || ps.depth != q.depth {
		ps.staging = sim.NewResource(d.sim, "staging", q.depth)
		ps.depth = q.depth
	}
	if cap(ps.blocks) < nb {
		// The old blocks are fully consumed (no registered callbacks, no
		// leg in flight), so replacing them wholesale is safe despite Events
		// being address-pinned after Init.
		ps.blocks = make([]pipeBlock, nb)
	}
	ps.blocks = ps.blocks[:nb]
	for i := range ps.blocks {
		blk := &ps.blocks[i]
		blk.ps = ps
		blk.Waiter = minimpi.Waiter{}
		blk.posted.Init(d.sim)
		blk.done.Init(d.sim)
	}
	ps.owner, ps.q, ps.peer, ps.tag = p, q, peer, tag
	ps.deadline = d.cfg.PayloadTimeout
	ps.cost = postCost + d.dev.AsyncSetupCost()
	ps.window = q.window()
	ps.next, ps.nposted, ps.ndone, ps.placed = 0, 0, 0, 0
	ps.winErr, ps.peerErr, ps.dmaErr = preErr, nil, nil
	if ps.winErr == nil {
		ps.winErr = d.dev.ValidRange(q.ptr, q.off, ps.end()-q.off)
	}
	return ps
}

// firstOf returns the first non-nil error.
func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// await continues the block's leg with then(blk) once its request has
// completed or, under a payload deadline, has run out of time.
func (blk *pipeBlock) await(then func(any)) {
	if blk.Waiter.Await(blk.ps.deadline, then, blk) {
		then(blk)
	}
}

// release frees the block's staging slot and marks the block through.
func (blk *pipeBlock) release() {
	blk.ps.staging.Release(1)
	blk.done.Trigger()
}

// noteDMA keeps the transfer's first DMA error.
func (ps *pipeScratch) noteDMA(err error) {
	if err != nil && ps.dmaErr == nil {
		ps.dmaErr = err
	}
}

// drain ends a transfer's per-block loop: it sees every block through, in
// order, and then hands the transfer back to the worker. The worker may
// reuse the scratch at once, so nothing touches ps after a call that can
// get here.
func (ps *pipeScratch) drain() {
	for ps.ndone < len(ps.blocks) {
		if done := &ps.blocks[ps.ndone].done; !done.Triggered() {
			done.OnTriggerCall(drainOn, ps)
			return
		}
		ps.ndone++
	}
	ps.owner.Resume()
}

func drainOn(v any) {
	ps := v.(*pipeScratch)
	if ps.d.dead {
		return
	}
	ps.drain()
}

func (d *Daemon) noteStaging(block, depth, nb int) {
	d.stats.StagingPeak = max(d.stats.StagingPeak, int64(block)*int64(min(depth, nb)))
}

// window is a device range of an allocation: cols columns of colBytes
// bytes, pitch bytes apart, from off; contiguous if pitch is colBytes.
type window struct{ off, colBytes, cols, pitch int }

// window normalizes a copy request's strided-window description.
func (q *request) window() window {
	w := window{off: q.off, cols: max(q.cols, 1), pitch: q.pitch}
	if w.colBytes = q.size / w.cols; w.pitch <= 0 {
		w.pitch = w.colBytes
	}
	return w
}

// at is the device offset of w's packed byte k; end is one past w's last.
func (w window) at(k int) int { return w.off + k/w.colBytes*w.pitch + k%w.colBytes }
func (w window) end() int     { return w.off + (w.cols-1)*w.pitch + w.colBytes }

// scatter writes packed bytes src, from w's packed byte lo on, into mirror.
func (w window) scatter(mirror []byte, lo int, src []byte) {
	for k := 0; k < len(src); {
		k += copy(mirror[w.at(lo+k):][:w.colBytes-(lo+k)%w.colBytes], src[k:])
	}
}

// gather copies w's columns out of mirror into packed dst.
func (w window) gather(dst, mirror []byte) {
	for c := 0; c < w.cols; c++ {
		copy(dst[c*w.colBytes:], mirror[w.off+c*w.pitch:][:w.colBytes])
	}
}

// recvToDevice implements the receiving half of the copy protocols: data
// blocks arrive from dataSrc (the front-end for H2D, a peer daemon for
// direct AC-to-AC transfers) into a bounded pool of pinned staging
// buffers, and each block is DMA-copied to the GPU while later blocks are
// still on the wire. The payload describes a strided device window
// (cudaMemcpy2D style); timing flows through the per-block DMAs and each
// block's bytes are placed at its packed offset as it arrives. A payload
// that fails mid-way (block timeout, DMA error, wrong length) leaves the
// blocks already placed and reports the error, like an interrupted
// cudaMemcpy. A non-nil preErr (e.g. a session ownership failure) takes
// the place of the range check: the payload still drains so the sender
// winds down in lockstep, but the device is never touched and preErr
// travels in the response.
func (d *Daemon) recvToDevice(p *sim.Proc, q *request, dataSrc int, tag minimpi.Tag, preErr error) {
	nb := numBlocks(q.size, q.block)
	if nb == 0 {
		d.answer(q, preErr, 0)
		return
	}
	d.noteStaging(q.block, q.depth, nb)
	ps := d.prepare(p, q, dataSrc, tag, nb, preErr)
	d.sim.AfterCall(0, postReceives, ps)
	ps.recvNext()
	p.Suspend(statePipeline)
	firstErr := firstOf(ps.winErr, ps.peerErr, ps.dmaErr)
	if firstErr == nil && ps.placed > 0 && ps.placed != ps.colBytes*ps.cols && d.dev.ExecuteMode() {
		firstErr = fmt.Errorf("core: payload carried %d bytes for %d columns of %d", ps.placed, ps.cols, ps.colBytes)
	}
	d.scratches.Put(ps)
	d.answer(q, firstErr, 0)
}

// postReceives is the receive pipeline's poster: it keeps `depth` receives
// outstanding. A receive is posted as soon as a staging buffer frees up,
// which is what grants the sender's rendezvous clearance (flow control
// comes for free).
func postReceives(v any) {
	ps := v.(*pipeScratch)
	if ps.d.dead {
		return
	}
	for ps.nposted < len(ps.blocks) {
		if !ps.staging.AcquireCall(1, postGranted, ps) {
			return
		}
		ps.post()
	}
}

// postGranted resumes the poster holding the staging slot it queued for.
func postGranted(v any) {
	ps := v.(*pipeScratch)
	if ps.d.dead {
		return
	}
	ps.post()
	postReceives(ps)
}

func (ps *pipeScratch) post() {
	blk := &ps.blocks[ps.nposted]
	ps.nposted++
	blk.Req = ps.d.comm.Irecv(ps.peer, ps.tag)
	blk.posted.Trigger()
}

// recvNext is the head of the receive loop: wait until the next block's
// receive is posted, then for the block itself.
func (ps *pipeScratch) recvNext() {
	if ps.next == len(ps.blocks) {
		ps.drain()
		return
	}
	blk := &ps.blocks[ps.next]
	if blk.posted.Triggered() {
		recvPosted(blk)
		return
	}
	blk.posted.OnTriggerCall(recvPosted, blk)
}

func recvPosted(v any) {
	blk := v.(*pipeBlock)
	if blk.ps.d.dead {
		return
	}
	blk.await(recvArrived)
}

// recvArrived places a received block's bytes and charges the per-block
// CPU work.
func recvArrived(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	d := ps.d
	if d.dead {
		return
	}
	if !blk.Req.Completed() {
		// Peer presumed dead: the block never arrived. Return the staging
		// buffer (no DMA will mark this block through) and keep draining so
		// the pipeline winds down; the error travels in the response.
		if ps.peerErr == nil {
			ps.peerErr = fmt.Errorf("core: payload block %d/%d from rank %d timed out", ps.next+1, len(ps.blocks), ps.peer)
		}
		blk.Abandon() // a late block still lands in the receive
		blk.release()
		ps.next++
		ps.recvNext()
		return
	}
	data, st := blk.Req.Result()
	blk.Req = nil
	d.stats.BlocksIn++
	if data != nil && ps.winErr == nil {
		ps.winErr = d.dev.ScatterColumnsAt(ps.q.ptr, ps.q.off, ps.colBytes, ps.cols, ps.pitch, ps.placed, data)
	}
	ps.placed += len(data)
	// The block's bytes are copied out; a pooled payload buffer (from a
	// peer daemon's ownership handoff or a socket reader) goes back.
	d.comm.World().PutPayload(data, st)
	blk.size = st.Size
	d.sim.AfterCall(ps.cost, recvProgressed, blk)
}

// recvProgressed posts the block's DMA and turns to the next block.
func recvProgressed(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	if ps.d.dead {
		return
	}
	ps.d.sim.AfterCall(0, dmaIn, blk)
	ps.next++
	ps.recvNext()
}

// dmaIn copies a received block from its staging buffer to the GPU.
// GPUDirect: the buffer is registered with both the NIC and the GPU, so
// this is a pinned DMA.
func dmaIn(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	if ps.d.dead {
		return
	}
	ps.d.dev.StartPinnedCopy(&blk.dma, ps.owner, blk.size, true, dmaInDone, blk)
}

func dmaInDone(v any) {
	blk := v.(*pipeBlock)
	blk.ps.noteDMA(blk.dma.Err)
	blk.release()
}

// sendFromDevice implements the sending half: blocks are DMA-copied from
// the GPU into staging buffers and sent to dataDst while the next block's
// DMA proceeds. A non-nil preErr (e.g. a session ownership failure)
// replaces the range check: nb empty blocks still ship so the receiver
// stays in lockstep, and the device is never read.
func (d *Daemon) sendFromDevice(p *sim.Proc, q *request, dataDst int, tag minimpi.Tag, preErr error) {
	nb := numBlocks(q.size, q.block)
	if nb == 0 {
		d.answer(q, preErr, 0)
		return
	}
	d.noteStaging(q.block, q.depth, nb)
	// The device range is validated once, before any block ships: when it
	// is bad, the protocol still ships nb empty blocks so the receiver stays
	// in lockstep, and the error travels in the response. Timing flows
	// through the per-block DMA+send pipeline.
	ps := d.prepare(p, q, dataDst, tag, nb, preErr)
	ps.shipNext()
	p.Suspend(statePipeline)
	firstErr := firstOf(ps.winErr, ps.dmaErr, ps.peerErr)
	d.scratches.Put(ps)
	d.answer(q, firstErr, 0)
}

// shipNext is the head of the send loop: take a staging slot for the next
// block, then charge the per-block CPU work.
func (ps *pipeScratch) shipNext() {
	if ps.next == len(ps.blocks) {
		ps.drain()
		return
	}
	if ps.staging.AcquireCall(1, shipSlotted, ps) {
		shipSlotted(ps)
	}
}

func shipSlotted(v any) {
	ps := v.(*pipeScratch)
	if ps.d.dead {
		return
	}
	ps.d.sim.AfterCall(ps.cost, shipProgressed, ps)
}

// shipProgressed starts the block's own leg and turns to the next block.
func shipProgressed(v any) {
	ps := v.(*pipeScratch)
	if ps.d.dead {
		return
	}
	blk := &ps.blocks[ps.next]
	blk.lo = ps.next * ps.q.block
	blk.size = min(ps.q.block, ps.q.size-blk.lo)
	ps.d.sim.AfterCall(0, shipBlock, blk)
	ps.next++
	ps.shipNext()
}

// shipBlock is the head of an outgoing block's leg, run holding the
// block's staging slot. In execute mode it gathers the block's bytes into
// a pooled payload buffer whose ownership travels with the send
// (the receiving side returns it to the pool), so a steady-state
// transfer allocates nothing, copies nothing extra and keeps at most
// depth blocks of pooled memory in flight. A gather that fails — the
// allocation went away under the copy — fails the transfer like a bad
// range: this block and the ones after it ship empty.
func shipBlock(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	d := ps.d
	if d.dead {
		return
	}
	if ps.winErr == nil && d.dev.ExecuteMode() {
		world := d.comm.World()
		blk.buf = world.GetBuf(blk.size)
		if err := d.dev.GatherColumnsInto(blk.buf, ps.q.ptr, ps.q.off, ps.colBytes, ps.cols, ps.pitch, blk.lo); err != nil {
			world.PutBuf(blk.buf)
			blk.buf = nil
			ps.winErr = err
		}
	}
	if ps.winErr != nil {
		blk.Req = d.comm.IsendSized(ps.peer, ps.tag, 0)
		blk.await(blockShipped)
		return
	}
	d.dev.StartPinnedCopy(&blk.dma, ps.owner, blk.size, false, dmaOutDone, blk)
}

// dmaOutDone sends a block the DMA engine has copied into its staging
// buffer. A DMA error fails the transfer; the block still ships.
func dmaOutDone(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	ps.noteDMA(blk.dma.Err)
	if blk.buf != nil {
		blk.Req = ps.d.comm.IsendOwned(ps.peer, ps.tag, blk.buf)
		blk.buf = nil
	} else {
		blk.Req = ps.d.comm.IsendSized(ps.peer, ps.tag, blk.size)
	}
	blk.await(blockShipped)
}

// blockShipped ends an outgoing block's trip through the pipeline, its
// send completed or out of time.
func blockShipped(v any) {
	blk := v.(*pipeBlock)
	ps := blk.ps
	d := ps.d
	if d.dead {
		return
	}
	if !blk.Req.Completed() {
		// Receiver presumed dead: abandon the un-cleared payload so the
		// pipeline winds down instead of wedging.
		blk.Req.Cancel()
		if ps.peerErr == nil {
			ps.peerErr = fmt.Errorf("core: payload block to rank %d timed out", ps.peer)
		}
	}
	blk.Cancel()
	d.stats.BlocksOut++
	blk.release()
}
