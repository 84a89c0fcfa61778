package core

import (
	"fmt"
	"sort"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// DaemonConfig tunes the back-end daemon.
type DaemonConfig struct {
	// PostCost is the daemon-CPU time spent per pipeline block on
	// bookkeeping (posting the next receive, progressing MPI). Together
	// with the device's async-copy setup cost it is the per-block overhead
	// that makes very small blocks unprofitable for large payloads (paper
	// Section V-A).
	PostCost sim.Duration
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
	// daemon's heartbeat process and must not block for long.
	Heartbeat func(active []int)
}

// DefaultDaemonConfig returns the configuration used on the paper's
// testbed emulation.
func DefaultDaemonConfig() DaemonConfig {
	return DaemonConfig{PostCost: 1 * sim.Microsecond}
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

// dedupKey identifies a request for idempotency: the sender's rank plus
// its per-client request sequence number.
type dedupKey struct {
	src   int
	reqID uint64
}

// dedupWindow is how many completed requests the daemon remembers. A
// retransmit older than the window is indistinguishable from a new
// request; the window therefore just needs to exceed the deepest retry
// horizon a client can have in flight, and 512 is orders of magnitude
// beyond that.
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

	// procs tracks every process the daemon owns (dispatch loop, stream
	// workers, pipeline helpers) so Kill can take the whole daemon down
	// the way a host crash would.
	procs   []*sim.Proc
	dead    bool
	stopped bool // Run returned (graceful shutdown)

	// active records the ranks that sent requests since the last
	// heartbeat, so beats can piggyback lease renewals for them.
	active map[int]struct{}

	// seen is the idempotent-request table: nil value while the request is
	// executing (duplicates are dropped — the original will answer),
	// encoded response afterwards (duplicates are re-answered from cache).
	// seenOrder is a ring over its backing array (seenHead is the oldest
	// live entry) so window eviction never reallocates.
	seen      map[dedupKey][]byte
	seenOrder []dedupKey
	seenHead  int

	// encw is the scratch encoder for responses: every response encode
	// reuses its backing array and pays one exact-size CopyBytes
	// allocation (the copy must exist anyway — responses are retained by
	// the dedup table and by in-flight messages).
	encw *wire.Writer

	// scratches recycles copy-pipeline state (staging resource, per-block
	// request/event slices) between transfers. A transfer in flight holds
	// its scratch exclusively; steady state runs allocation-free.
	scratches []*pipeScratch

	// root is the session session-less requests run in: no ownership
	// view, no quota. sessions holds the tenants' (multi-tenant sharing;
	// empty in exclusive mode). See session.go.
	root     *session
	sessions map[sessKey]*session

	// Fencing (split-brain safety). fenceHigh is the highest fencing
	// token ever seen; any tokened request advances it, and destructive
	// ownership ops (reset, session open, session reap) below it are
	// rejected with ErrFenced. fenceLog records each advance for the
	// post-run consistency checker. Both stay zero-valued under
	// token-less (legacy) traffic.
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
		seen:     make(map[dedupKey][]byte),
		active:   make(map[int]struct{}),
		sessions: make(map[sessKey]*session),
		encw:     wire.NewWriter(64),
	}
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
// stream workers, in-flight copy pipelines) dies at its next scheduling
// point, mid-request state and all. Use cluster.RestartDaemon (or a fresh
// NewDaemon plus endpoint/engine resets) to bring the rank back.
func (d *Daemon) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	for _, p := range d.procs {
		p.Kill()
	}
	d.procs = nil
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

// workItem travels from the dispatch loop to a stream worker.
type workItem struct {
	src  int
	q    *request
	sync *syncGroup
}

// syncGroup implements the cross-stream barrier behind OpSync, session
// close/reset/reap and OpShutdown: each stream worker "arrives" when it
// drains to the marker; the last arrival completes the group.
type syncGroup struct {
	remaining int
	done      *sim.Event
	poison    bool // workers exit after arriving (close, reap, shutdown)
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
		data, st := d.comm.Recv(p, minimpi.AnySource, TagRequest)
		d.active[st.Source] = struct{}{}
		q, err := decodeRequest(data)
		if err != nil {
			// A malformed header still deserves an answer when its reqID
			// survived, or the caller waits for a response forever.
			if reqID, ok := peekReqID(data); ok {
				d.respond(st.Source, reqID, err, 0)
			}
			continue
		}
		key := dedupKey{src: st.Source, reqID: q.reqID}
		if cached, dup := d.seen[key]; dup {
			d.stats.DupsDropped++
			if cached != nil {
				// Completed before: replay the recorded response.
				d.comm.Isend(st.Source, respTag(q.reqID), cached)
			}
			// Still in flight: drop the duplicate; the original will answer.
			continue
		}
		d.admit(key)
		d.stats.Requests++
		if q.fence != 0 {
			if q.fence > d.fenceHigh {
				d.fenceHigh = q.fence
				d.fenceLog = append(d.fenceLog, FenceMark{Epoch: q.fence, Time: d.sim.Now()})
			} else if q.fence < d.fenceHigh && fenceChecked(q.op) {
				d.stats.Fenced++
				d.respond(st.Source, q.reqID, ErrFenced, 0)
				continue
			}
		}
		switch q.op {
		case OpShutdown:
			// Sessions are drained, not closed: their allocations die with
			// the device.
			d.barrier(true, append(d.sortedSessions(), d.root)...).Await(p)
			d.respond(st.Source, q.reqID, nil, 0)
			return
		case OpDeviceInfo:
			di := DeviceInfo{
				ModelName: d.dev.Model().Name,
				MemBytes:  d.dev.Model().MemBytes,
				MemUsed:   d.dev.MemUsed(),
				Execute:   d.dev.ExecuteMode(),
				Kernels:   d.dev.Registry().Names(),
			}
			d.sendResponse(st.Source, q.reqID, &response{status: statusOK, payload: encodeDeviceInfo(di)})
		case OpSessionReap:
			d.reapSessions(st.Source, q)
		case OpSessionOpen:
			d.openSession(st.Source, q)
		case OpSessionClose:
			d.closeSession(st.Source, q)
		default:
			d.submit(st.Source, q)
		}
	}
}

// submit hands a request to its session: the root for session-less
// traffic, the sender's own tenant session otherwise. Sync and a tenant's
// reset are barriers over that session's streams only, so neither waits
// for a neighbour's work; everything else queues on its stream's worker.
func (d *Daemon) submit(src int, q *request) {
	sess := d.root
	if q.session != 0 {
		sess = d.sessions[sessKey{src: src, id: q.session}]
		if sess == nil || sess.drained != nil {
			d.respond(src, q.reqID, sessGone(q.session), 0)
			return
		}
	}
	switch {
	case q.op == OpSync:
		reqID := q.reqID
		d.barrier(false, sess).OnTrigger(func() { d.respond(src, reqID, nil, 0) })
	case q.op == OpReset && sess != d.root:
		d.resetSession(src, sess, q)
	default:
		mbox, err := d.stream(sess, q.stream)
		if err != nil {
			d.respond(src, q.reqID, err, 0)
			return
		}
		mbox.Send(workItem{src: src, q: q})
	}
}

// takeActive returns (sorted, for determinism) and clears the set of
// ranks that sent requests since the previous call.
func (d *Daemon) takeActive() []int {
	if len(d.active) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(d.active))
	for r := range d.active {
		ranks = append(ranks, r)
		delete(d.active, r)
	}
	sort.Ints(ranks)
	return ranks
}

// admit records a request as in flight and evicts the oldest entry once
// the table outgrows the dedup window.
func (d *Daemon) admit(key dedupKey) {
	if len(d.seenOrder)-d.seenHead >= dedupWindow {
		delete(d.seen, d.seenOrder[d.seenHead])
		d.seenOrder[d.seenHead] = dedupKey{}
		d.seenHead++
		// Slide the live window down once the dead prefix reaches a full
		// window, so the backing array settles at twice the window and the
		// table never reallocates again.
		if d.seenHead >= dedupWindow {
			n := copy(d.seenOrder, d.seenOrder[d.seenHead:])
			d.seenOrder = d.seenOrder[:n]
			d.seenHead = 0
		}
	}
	d.seen[key] = nil
	d.seenOrder = append(d.seenOrder, key)
}

// barrier posts a sync marker to every live stream of the given sessions
// and returns the event that fires once each has drained to it — at once
// when there are none. Commands queued later are not waited for. A
// poisoned marker also ends the stream's worker, so the caller must let
// no further work reach those sessions.
func (d *Daemon) barrier(poison bool, sessions ...*session) *sim.Event {
	g := &syncGroup{done: sim.NewEvent(d.sim), poison: poison}
	for _, sess := range sessions {
		for _, id := range sess.sortedStreams() {
			g.remaining++
			sess.streams[id].Send(workItem{sync: g})
		}
		if poison {
			clear(sess.streams)
		}
	}
	if g.remaining == 0 {
		g.done.Trigger()
	}
	return g.done
}

// stream returns the mailbox of a session's stream, starting its worker
// on first use. A tenant's stream id is outside input, so the number it
// can start is capped.
func (d *Daemon) stream(sess *session, id uint8) (*sim.Mailbox, error) {
	if mbox, ok := sess.streams[id]; ok {
		return mbox, nil
	}
	name := fmt.Sprintf("%s-stream%d", d.dev.Name(), id)
	if sess != d.root {
		if len(sess.streams) >= maxSessionStreams {
			return nil, fmt.Errorf("core: session %d already has %d streams", sess.key.id, maxSessionStreams)
		}
		name = fmt.Sprintf("%s-cn%d-sess%d-stream%d", d.dev.Name(), sess.key.src, sess.key.id, id)
	}
	mbox := sim.NewMailbox(d.sim, name)
	sess.streams[id] = mbox
	d.spawn(d.mainP, name, func(p *sim.Proc) {
		for {
			item := mbox.Recv(p).(workItem)
			if item.sync != nil {
				item.sync.arrive()
				if item.sync.poison {
					return
				}
				continue
			}
			d.execute(p, sess, item.src, item.q)
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

// sendResponse encodes, records (for duplicate replay) and sends a
// response.
func (d *Daemon) sendResponse(src int, reqID uint64, rsp *response) {
	rsp.reqID = reqID
	enc := encodeResponseTo(d.encw, rsp)
	key := dedupKey{src: src, reqID: reqID}
	if _, ok := d.seen[key]; ok {
		d.seen[key] = enc
	}
	d.comm.Isend(src, respTag(reqID), enc)
}

// execute runs one request inside a stream worker, under its session:
// the ownership and quota checks first (no-ops for the root session, which
// has no view), then the device. For streamed copies an ownership failure
// is threaded into the copy pipeline as a pre-error so the payload still
// drains in lockstep — the wire winds down cleanly and the typed error
// travels in the response.
func (d *Daemon) execute(p *sim.Proc, sess *session, src int, q *request) {
	err := sess.checkOwned(q)
	switch q.op {
	case OpMemcpyH2D:
		d.recvToDevice(p, src, q, src, dataTag(q.reqID), err)
		return
	case OpMemcpyD2H:
		d.sendFromDevice(p, src, q, src, dataTag(q.reqID), err)
		return
	case OpD2DRecv, OpD2DSend:
		if q.peer >= d.comm.Size() {
			d.respond(src, q.reqID, fmt.Errorf("core: D2D peer rank %d out of range", q.peer), 0)
		} else if q.op == OpD2DRecv {
			d.recvToDevice(p, src, q, q.peer, d2dTag(q.xferID), err)
		} else {
			d.sendFromDevice(p, src, q, q.peer, d2dTag(q.xferID), err)
		}
		return
	case OpBatch:
		d.executeBatch(p, src, q, sess)
		return
	}
	if err != nil {
		// Refused: the allocation behind a foreign pointer is never touched.
		d.respond(src, q.reqID, err, 0)
		return
	}
	var ptr gpu.Ptr
	view := sess.view
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
		err = d.dev.LaunchKernel(p, q.kernel, q.launch)
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
	d.respond(src, q.reqID, err, ptr)
}

// executeBatch runs a command buffer in order inside its stream worker,
// stopping at the first failing command (stream order must never be
// violated by executing past an error); the rest are marked skipped. The
// single response carries the per-command status vector, and — like any
// response — is recorded in the dedup table, so a retransmitted batch is
// replayed atomically: executed once, answered twice. Under a tenant
// session every command passes the ownership check first and frees update
// the session's allocator view.
func (d *Daemon) executeBatch(p *sim.Proc, src int, q *request, sess *session) {
	sts := make([]cmdStatus, len(q.batch))
	failed := false
	// The buffer arrived through one driver submission: its first kernel
	// pays the full launch overhead (covering the submit), later kernels
	// only the device-side dispatch share.
	submitPaid := false
	for i, sub := range q.batch {
		if failed {
			sts[i] = cmdStatus{status: batchCmdSkipped}
			continue
		}
		err := sess.checkOwned(sub)
		if err == nil {
			switch sub.op {
			case OpKernelRun:
				if submitPaid {
					err = d.dev.LaunchKernelQueued(p, sub.kernel, sub.launch)
				} else {
					err = d.dev.LaunchKernel(p, sub.kernel, sub.launch)
					submitPaid = true
				}
			case OpMemset:
				err = d.dev.Memset(p, sub.ptr, sub.off, sub.size, sub.value)
			case OpMemFree:
				err = d.dev.MemFree(p, sub.ptr)
				if err == nil && sess.view != nil {
					sess.view.NoteFree(sub.ptr)
				}
			case OpWriteInline:
				err = d.writeInline(p, sub)
			default:
				err = fmt.Errorf("core: op %d not executable in a batch", sub.op)
			}
		}
		if err != nil {
			sts[i] = cmdStatus{status: batchCmdFailed, errmsg: err.Error()}
			failed = true
		}
	}
	d.stats.Batches++
	d.stats.BatchedOps += int64(len(q.batch))
	d.sendResponse(src, q.reqID, &response{status: statusOK, payload: encodeBatchStatus(sts)})
}

// writeInline lands a small host-to-device write whose payload arrived
// with the command buffer: the bytes already sit in (pageable) host
// memory, so the cost is one async-copy setup plus an unpinned DMA — no
// staging pipeline, no extra wire exchange.
func (d *Daemon) writeInline(p *sim.Proc, q *request) error {
	colBytes, cols, pitch := q.geometry()
	if err := d.dev.ValidRange(q.ptr, q.off, (cols-1)*pitch+colBytes); err != nil {
		return err
	}
	if q.size == 0 {
		return nil
	}
	p.Wait(d.cfg.PostCost + d.dev.AsyncSetupCost())
	if err := d.dev.CopyEngineTransfer(p, q.size, true, false); err != nil {
		return err
	}
	if len(q.inline) > 0 {
		return d.dev.ScatterColumns(q.ptr, q.off, colBytes, cols, pitch, q.inline)
	}
	return nil
}

// pipeScratch is the reusable state of one copy pipeline: the staging
// resource, the per-block request and event slots and the per-block pooled
// payload buffers of the send path. A transfer holds a scratch exclusively
// from prepare to release;
// everything is quiescent in between (all events fired and awaited, every
// staging slot released), so reuse is invisible to the simulation.
type pipeScratch struct {
	staging *sim.Resource
	depth   int

	reqs      []*minimpi.Request
	posted    []sim.Event
	done      []sim.Event
	blockBufs [][]byte
}

// prepare sizes the scratch for a transfer of nb blocks at the given
// staging depth, re-initializing the per-block events in place.
func (ps *pipeScratch) prepare(s *sim.Simulation, depth, nb int) {
	if ps.staging == nil || ps.depth != depth {
		ps.staging = sim.NewResource(s, "staging", depth)
		ps.depth = depth
	}
	if cap(ps.reqs) < nb {
		// The old event arrays are fully consumed (no registered waiters),
		// so replacing them wholesale is safe despite Events being
		// address-pinned after Init.
		ps.reqs = make([]*minimpi.Request, nb)
		ps.posted = make([]sim.Event, nb)
		ps.done = make([]sim.Event, nb)
		ps.blockBufs = make([][]byte, nb)
	}
	ps.reqs = ps.reqs[:nb]
	ps.posted = ps.posted[:nb]
	ps.done = ps.done[:nb]
	ps.blockBufs = ps.blockBufs[:nb]
	for i := 0; i < nb; i++ {
		ps.reqs[i] = nil
		ps.posted[i].Init(s)
		ps.done[i].Init(s)
		ps.blockBufs[i] = nil
	}
}

// getScratch pops a pipeline scratch from the daemon's free list. A
// transfer killed mid-flight never returns its scratch — it simply falls
// out of the pool, like every other pooled object in a killed process.
func (d *Daemon) getScratch() *pipeScratch {
	if n := len(d.scratches); n > 0 {
		ps := d.scratches[n-1]
		d.scratches[n-1] = nil
		d.scratches = d.scratches[:n-1]
		return ps
	}
	return &pipeScratch{}
}

func (d *Daemon) putScratch(ps *pipeScratch) { d.scratches = append(d.scratches, ps) }

func (d *Daemon) noteStaging(block, depth, nb int) {
	if nb < depth {
		depth = nb
	}
	if footprint := int64(block) * int64(depth); footprint > d.stats.StagingPeak {
		d.stats.StagingPeak = footprint
	}
}

// geometry normalizes a copy request's strided-window description.
func (q *request) geometry() (colBytes, cols, pitch int) {
	cols = q.cols
	if cols <= 0 {
		cols = 1
	}
	colBytes = q.size / cols
	pitch = q.pitch
	if pitch <= 0 {
		pitch = colBytes
	}
	return colBytes, cols, pitch
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
func (d *Daemon) recvToDevice(p *sim.Proc, respDst int, q *request, dataSrc int, tag minimpi.Tag, preErr error) {
	nb := numBlocks(q.size, q.block)
	if nb == 0 {
		d.respond(respDst, q.reqID, preErr, 0)
		return
	}
	colBytes, cols, pitch := q.geometry()
	// placeErr gates placement: bytes reach the device only while the
	// range/ownership check and every earlier block's placement passed.
	placeErr := preErr
	if placeErr == nil {
		placeErr = d.dev.ValidRange(q.ptr, q.off, (cols-1)*pitch+colBytes)
	}
	d.noteStaging(q.block, q.depth, nb)
	ps := d.getScratch()
	ps.prepare(d.sim, q.depth, nb)
	bufs := ps.staging
	reqs := ps.reqs
	// The poster keeps `depth` receives outstanding: a receive is posted
	// as soon as a staging buffer frees up, which is what grants the
	// sender's rendezvous clearance (flow control comes for free).
	d.spawn(p, "pipeline-poster", func(pp *sim.Proc) {
		for i := 0; i < nb; i++ {
			bufs.Acquire(pp, 1)
			reqs[i] = d.comm.Irecv(dataSrc, tag)
			ps.posted[i].Trigger()
		}
	})
	var dmaErr, recvErr error
	placed := 0 // packed bytes received so far: the next block's offset
	deadline := d.cfg.PayloadTimeout
	for i := 0; i < nb; i++ {
		ps.posted[i].Await(p)
		var data []byte
		var st minimpi.Status
		if deadline > 0 {
			var arrived bool
			data, st, arrived = reqs[i].WaitTimeout(p, deadline)
			if !arrived {
				// Peer presumed dead: the block never arrived. Return the
				// staging buffer (no DMA will fire this block's done event)
				// and keep draining so the pipeline winds down; the error
				// travels in the response.
				if recvErr == nil {
					recvErr = fmt.Errorf("core: payload block %d/%d from rank %d timed out", i+1, nb, dataSrc)
				}
				bufs.Release(1)
				ps.done[i].Trigger()
				continue
			}
		} else {
			data, st = reqs[i].Wait(p)
		}
		d.stats.BlocksIn++
		if data != nil && placeErr == nil {
			placeErr = d.dev.ScatterColumnsAt(q.ptr, q.off, colBytes, cols, pitch, placed, data)
		}
		placed += len(data)
		// The block's bytes are copied out; a pooled payload buffer (from a
		// peer daemon's ownership handoff or a socket reader) goes back.
		reqs[i].Free()
		// Per-block CPU work: progress the receive, post the async DMA.
		p.Wait(d.cfg.PostCost + d.dev.AsyncSetupCost())
		ev := &ps.done[i]
		sz := st.Size
		d.spawn(p, "pipeline-dma", func(dp *sim.Proc) {
			// GPUDirect: the staging buffer is registered with both the
			// NIC and the GPU, so this is a pinned DMA.
			if err := d.dev.CopyEngineTransfer(dp, sz, true, true); err != nil && dmaErr == nil {
				dmaErr = err
			}
			bufs.Release(1)
			ev.Trigger()
		})
	}
	for i := range ps.done {
		ps.done[i].Await(p)
	}
	firstErr := placeErr
	if firstErr == nil {
		firstErr = recvErr
	}
	if firstErr == nil {
		firstErr = dmaErr
	}
	if firstErr == nil && placed > 0 && placed != colBytes*cols && d.dev.ExecuteMode() {
		firstErr = fmt.Errorf("core: payload carried %d bytes for %d columns of %d", placed, cols, colBytes)
	}
	d.putScratch(ps)
	d.respond(respDst, q.reqID, firstErr, 0)
}

// sendFromDevice implements the sending half: blocks are DMA-copied from
// the GPU into staging buffers and sent to dataDst while the next block's
// DMA proceeds. A non-nil preErr (e.g. a session ownership failure)
// replaces the range check: nb empty blocks still ship so the receiver
// stays in lockstep, and the device is never read.
func (d *Daemon) sendFromDevice(p *sim.Proc, respDst int, q *request, dataDst int, tag minimpi.Tag, preErr error) {
	nb := numBlocks(q.size, q.block)
	if nb == 0 {
		d.respond(respDst, q.reqID, preErr, 0)
		return
	}
	colBytes, cols, pitch := q.geometry()
	d.noteStaging(q.block, q.depth, nb)
	ps := d.getScratch()
	ps.prepare(d.sim, q.depth, nb)
	// Validate the device range and snapshot the (execute-mode) bytes once,
	// before any block ships: when the range is bad, the protocol still
	// ships nb empty blocks so the receiver stays in lockstep, and the
	// error travels in the response. The snapshot is gathered one block at
	// a time into pooled payload buffers whose ownership travels with the
	// send (Request.Free on the receiving side recycles them), so a
	// steady-state transfer allocates nothing and copies nothing extra.
	// Timing flows through the per-block DMA+send pipeline.
	firstErr := preErr
	if firstErr == nil {
		firstErr = d.dev.ValidRange(q.ptr, q.off, (cols-1)*pitch+colBytes)
	}
	if firstErr == nil && d.dev.ExecuteMode() {
		world := d.comm.World()
		for i := 0; i < nb; i++ {
			lo := i * q.block
			hi := lo + q.block
			if hi > q.size {
				hi = q.size
			}
			buf := world.GetBuf(hi - lo)
			if err := d.dev.GatherColumnsInto(buf, q.ptr, q.off, colBytes, cols, pitch, lo); err != nil {
				world.PutBuf(buf)
				for j := 0; j < i; j++ {
					world.PutBuf(ps.blockBufs[j])
					ps.blockBufs[j] = nil
				}
				firstErr = err
				break
			}
			ps.blockBufs[i] = buf
		}
	}
	rangeErr := firstErr
	var dmaErr, sendErr error
	deadline := d.cfg.PayloadTimeout
	bufs := ps.staging
	for i := 0; i < nb; i++ {
		bufs.Acquire(p, 1)
		p.Wait(d.cfg.PostCost + d.dev.AsyncSetupCost())
		ev := &ps.done[i]
		lo := i * q.block
		hi := lo + q.block
		if hi > q.size {
			hi = q.size
		}
		sz := hi - lo
		blockBuf := ps.blockBufs[i]
		d.spawn(p, "pipeline-d2h", func(dp *sim.Proc) {
			var sendReq *minimpi.Request
			switch {
			case rangeErr != nil:
				sendReq = d.comm.IsendSized(dataDst, tag, 0)
			case blockBuf != nil:
				if err := d.dev.CopyEngineTransfer(dp, sz, false, true); err != nil && dmaErr == nil {
					dmaErr = err
				}
				sendReq = d.comm.IsendOwned(dataDst, tag, blockBuf)
			default:
				if err := d.dev.CopyEngineTransfer(dp, sz, false, true); err != nil && dmaErr == nil {
					dmaErr = err
				}
				sendReq = d.comm.IsendSized(dataDst, tag, sz)
			}
			if deadline > 0 {
				if _, _, sent := sendReq.WaitTimeout(dp, deadline); !sent {
					// Receiver presumed dead: abandon the un-cleared payload
					// so the pipeline winds down instead of wedging.
					sendReq.Cancel()
					if sendErr == nil {
						sendErr = fmt.Errorf("core: payload block to rank %d timed out", dataDst)
					}
				}
			} else {
				sendReq.Wait(dp)
			}
			d.stats.BlocksOut++
			bufs.Release(1)
			ev.Trigger()
		})
	}
	for i := range ps.done {
		ps.done[i].Await(p)
	}
	if firstErr == nil {
		firstErr = dmaErr
	}
	if firstErr == nil {
		firstErr = sendErr
	}
	d.putScratch(ps)
	d.respond(respDst, q.reqID, firstErr, 0)
}
