package arm

// client.go is the client side of the ARM: one Client whatever sits
// behind it. Every operation is routed to the owning shard via a
// Directory; a lone manager is the one-shard directory NewClient builds.
// Every request is a call on the engine both control planes share
// (minimpi.Call), so no process blocks in Irecv per ARM call. Replies are
// received with an any-source receive, because the shard that answers is
// not always the shard that was asked (peer forwarding and least-loaded
// fallback reply directly from the executing shard). When shards have
// follower replicas, calls use a failover timeout: on silence past the
// promotion threshold the client re-resolves the shard's serving rank
// from the directory and replays the request with its original reqID —
// the server-side dedup cache turns an already-answered replay into a
// resend, never a re-execution.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// Client is the resource-management API a compute-node process uses to
// talk to the ARM (the paper's extra API complementing the computation
// API), be it one manager or a fleet of shards behind a directory. A
// Client is bound to one communicator rank; it is not safe to share one
// Client between concurrently blocking processes.
type Client struct {
	comm    *minimpi.Comm
	dir     *Directory
	nextReq uint64
	rng     *rand.Rand // jitter for client-paced blocking acquires; see jitter

	// failTimeout > 0 arms failover: a call silent for this long
	// re-checks the directory and replays to a promoted follower. Zero
	// (set when no shard has a replica) waits indefinitely.
	failTimeout sim.Duration
	maxSilence  int // give up after this many consecutive timeouts

	groups [][]int  // per-shard id scratch for Release routing (reused)
	free   *armCall // recycled call records (see call), spare first
	spare  armCall
}

// NewClient creates a resource-management client addressing the lone ARM
// at armRank on comm. It is the one-shard case of NewDirectoryClient: the
// client builds the degenerate directory itself (SingleDirectory), so the
// manager queues its blocking acquires.
func NewClient(comm *minimpi.Comm, armRank int) *Client {
	return NewDirectoryClient(comm, SingleDirectory(armRank))
}

// NewDirectoryClient builds a client over a directory shared with the
// servers (and the other clients) of a sharded or replicated ARM.
// Failover timeouts arm automatically when at least one shard has a
// follower replica.
func NewDirectoryClient(comm *minimpi.Comm, dir *Directory) *Client {
	c := &Client{comm: comm, dir: dir, groups: make([][]int, dir.Shards())}
	c.spare.frame, c.free = *wire.NewWriter(64), &c.spare
	for sh := 0; sh < dir.Shards(); sh++ {
		if dir.Follower(sh) >= 0 {
			c.failTimeout = 2 * DefaultHealthConfig().DeadAfter
			c.maxSilence = 64
			break
		}
	}
	return c
}

// SetFailover overrides the failover silence threshold (0 disables) and
// the consecutive-timeout budget before a call errors out.
func (c *Client) SetFailover(timeout sim.Duration, maxSilence int) {
	c.failTimeout = timeout
	c.maxSilence = maxSilence
}

// homeShard spreads clients across shards for operations with no natural
// owner (acquires).
func (c *Client) homeShard() int {
	return int(mix64(uint64(c.comm.Rank())) % uint64(c.dir.Shards()))
}

// jitter returns the randomness behind client-paced blocking acquires,
// seeded from the rank so runs replay exactly. It is built at the first
// back-off: an acquire granted at once, or a lone manager's, never pays.
func (c *Client) jitter() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(int64(c.comm.Rank())*7919 + 1))
	}
	return c.rng
}

// argsFunc writes a request body.
type argsFunc func(w *wire.Writer)

// armCall is one ARM request on the shared call engine: its frame, op |
// reqID | epoch | body, until the answer's body replaces it, and what the
// reply said. A client recycles it.
type armCall struct {
	minimpi.Call // Silence.Rank is the rank the frame was last sent to
	c            *Client
	next         *armCall // on the client's free list
	shard        int
	frame        wire.Writer
	sent, fences int    // times the frame was shipped, fenced replies so far
	epoch        uint64 // the reply's epoch hint
	err          error
	then         func(*armCall) // an asynchronous call's ending (see start)
}

const (
	// acquireFlags is where an opAcquire frame keeps its flags byte: after
	// op, reqID, epoch and n.
	acquireFlags = 1 + 8 + 8 + 8
	// maxFenceReplays bounds the replays fenced replies may cause.
	maxFenceReplays = 4
)

// call performs one request/reply round trip against a shard, with
// directory-driven failover replay when armed and fencing-driven replay
// always (see Send and Reply). Any other status comes back as its client
// error (statusErr); silence past the failover budget as a
// *minimpi.TimeoutError. The returned epoch is the answering server's epoch
// hint from the reply header (zero from a lone manager), stamped into
// Handles as the fencing token. The returned body, valid when the error is
// nil, lives in a recycled record the next call from any process on this
// Client takes (an AutoMigrate watcher calls while the application may be
// inside one): consume it before yielding.
func (c *Client) call(p *sim.Proc, shard int, op uint8, args argsFunc) ([]byte, uint64, error) {
	cl := c.start(shard, op, args, nil)
	cl.Wait(p)
	cl.next, c.free = c.free, cl
	return cl.frame.Bytes(), cl.epoch, cl.err
}

// start issues a call. With then — scheduler-context code, a server asking
// its peers — the reply wait is armed at once and then takes the call in the
// leg that ends it; without, the caller waits (call).
func (c *Client) start(shard int, op uint8, args argsFunc, then func(*armCall)) *armCall {
	cl := c.free
	if cl != nil {
		c.free = cl.next
	} else {
		cl = &armCall{frame: *wire.NewWriter(64)}
	}
	c.nextReq++
	*cl = armCall{c: c, shard: shard, frame: cl.frame, then: then}
	cl.frame.Reset().U8(op).U64(c.nextReq).U64(0)
	if args != nil {
		args(&cl.frame)
	}
	cl.Timeout, cl.Resends = c.failTimeout, c.maxSilence
	cl.Silence = minimpi.TimeoutError{Plane: "arm", Peer: "ARM", Op: op}
	// Any shard may answer (forwarding replies directly), so match any
	// source on the reply tag; reqIDs are unique per client, so the tag
	// cannot collide.
	cl.Start(c.comm, cl, minimpi.AnySource, tagReplyBase+minimpi.Tag(c.nextReq))
	if then != nil {
		cl.Arm()
	}
	return cl
}

// Send ships the frame to the shard's serving rank under the epoch the
// client believes it serves under, re-read at every send so a fenced replay
// carries the successor's; past the first send it is a replay. At a silent
// deadline it ships only when the shard failed over: the same serving rank
// is slow (a delayed drain reply, say), not dead.
func (cl *armCall) Send(silent bool) {
	dir, f := cl.c.dir, cl.frame.Bytes()
	served := dir.Serving(cl.shard)
	if silent && served == cl.Silence.Rank {
		return
	}
	binary.LittleEndian.PutUint64(f[9:], dir.Epoch(cl.shard))
	if cl.sent > 0 && f[0] == opAcquire {
		f[acquireFlags] |= flagReplay
	}
	cl.sent++
	cl.Silence.Rank = served
	cl.c.comm.SendCopy(served, TagRequest, f)
}

// Reply takes a reply: its body into the frame, which the answered request
// needs no more, and its epoch hint. A statusFenced one — the server reached
// has been deposed — is asked again with the original reqID: the directory
// already names the successor (promotion flips it before anything can
// fence), and the dedup cache makes the replay a resend when the successor
// already executed it.
func (cl *armCall) Reply(data []byte) (minimpi.ReplyKind, error) {
	status, epoch, payload, err := decodeReply(data)
	switch {
	case err != nil:
		return minimpi.ReplyOver, fmt.Errorf("arm: malformed reply: %w", err)
	case status == statusFenced && cl.fences < maxFenceReplays:
		cl.fences++
		return minimpi.ReplyAgain, nil
	case status == statusFenced:
		return minimpi.ReplyOver, fmt.Errorf("arm: shard %d request fenced %d times: %w", cl.shard, cl.fences+1, ErrFenced)
	}
	cl.frame.Reset().Raw(payload)
	cl.epoch = epoch
	return minimpi.ReplyOver, statusErr(status)
}

// Finish keeps the call's outcome for call to return, or hands it to then.
func (cl *armCall) Finish(err error) {
	if cl.err = err; cl.then != nil {
		cl.then(cl)
	}
}

func statusErr(status uint8) error {
	switch status {
	case statusOK:
		return nil
	case statusUnavailable:
		return ErrUnavailable
	case statusImpossible:
		return ErrImpossible
	case statusFenced:
		return ErrFenced
	case statusNoCapable:
		return ErrNoCapableDevice
	default:
		return ErrBadRequest
	}
}

// decodeHandles parses the count-prefixed handle list of an acquire,
// replace or migrate reply (what names the op in errors): id, rank and
// the granted device's capability descriptor each. The count is checked
// against the bytes left before anything is allocated for it.
func decodeHandles(what string, payload []byte, shared bool, epoch uint64) ([]Handle, error) {
	r := wire.NewReader(payload)
	count := r.Int()
	if count < 0 || count > r.Remaining()/28 {
		return nil, fmt.Errorf("arm: malformed %s reply: %d handles in %d bytes", what, count, r.Remaining())
	}
	handles := make([]Handle, 0, count)
	for i := 0; i < count; i++ {
		h := Handle{ID: r.Int(), Rank: r.Int(), Shared: shared, Epoch: epoch}
		var err error
		if h.Cap, err = decodeCapability(r); err != nil {
			return nil, fmt.Errorf("arm: malformed %s reply: %w", what, err)
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// acquire is the one acquire routine behind Acquire, AcquireShared and
// AcquireCapable: up to attempts non-blocking tries,
// rotating the target shard (which forwards to the least-loaded peer
// itself when its pool can't satisfy) and sleeping b.Delay between
// ErrUnavailable results; any other verdict — a grant,
// ErrNoCapableDevice, ErrImpossible, a fencing failure — ends the loop.
//
// Who queues a blocking acquire is read off the directory. One shard
// with no follower is the paper's ARM: the request is passed to the
// server, which queues it FIFO and answers when it can grant. A server
// queue is neither visible to peer shards nor shipped to a follower, so
// where a replay can happen (Directory.replayable) blocking is
// client-paced: retrying with jittered backoff until granted, FIFO
// fairness per shard rather than global (DESIGN.md §11), and a typed
// timeout when the retry budget runs out.
func (c *Client) acquire(p *sim.Proc, n int, shared bool, constraint Constraint, blocking bool, attempts int, b Backoff, rng *rand.Rand) ([]Handle, error) {
	const blockingAttempts = 4096 // virtual-seconds of backoff before giving up
	queued := blocking && !c.dir.replayable(0)
	switch {
	case queued || attempts < 1:
		attempts = 1
	case blocking:
		attempts = blockingAttempts
	}
	home, start := c.homeShard(), c.comm.World().Sim().Now()
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if blocking {
				rng = c.jitter()
			}
			p.Wait(b.Delay(i-1, rng))
		}
		payload, epoch, callErr := c.call(p, (home+i)%c.dir.Shards(), opAcquire, func(w *wire.Writer) {
			w.Int(n).U8(flag(queued, flagBlocking) | flag(shared, flagShared))
			encodeConstraint(w, constraint)
		})
		if err = callErr; err == nil {
			return decodeHandles("acquire", payload, shared, epoch)
		}
		if err != ErrUnavailable {
			return nil, err
		}
	}
	if blocking && !queued {
		// A blocking acquire that exhausted its retry budget is a
		// timeout, not a capacity answer: surface it as one instead of
		// silently giving up with the last ErrUnavailable.
		return nil, &AcquireTimeoutError{
			Attempts: attempts,
			Elapsed:  c.comm.World().Sim().Now().Sub(start),
		}
	}
	return nil, err
}

// Acquire requests n exclusive accelerators. With blocking=false it fails
// immediately with ErrUnavailable when fewer than n are free; with
// blocking=true it waits until the ARM can grant the request. A request
// larger than the operational pool fails with ErrImpossible in both
// modes.
func (c *Client) Acquire(p *sim.Proc, n int, blocking bool) ([]Handle, error) {
	return c.acquire(p, n, false, Constraint{}, blocking, 1, DefaultBackoff(), nil)
}

// AcquireCapable requests n exclusive accelerators satisfying the
// capability constraint (device class and/or supported kernel class; a
// zero constraint matches any device, which makes it Acquire). Blocking
// semantics match Acquire, except that a constraint no live device can
// ever satisfy fails immediately with ErrNoCapableDevice in both modes —
// waiting for a device class the fleet does not have would block forever.
// Across shards, class-constrained requests route on the per-class free
// counts the shards gossip.
func (c *Client) AcquireCapable(p *sim.Proc, n int, blocking bool, constraint Constraint) ([]Handle, error) {
	return c.acquire(p, n, false, constraint, blocking, 1, DefaultBackoff(), nil)
}

// AcquireShared requests shared leases on n distinct accelerators. Unlike
// Acquire, the grant does not evict or exclude other tenants: up to the
// server's ShareCapacity clients can hold leases on one accelerator at a
// time, each talking to the daemon under its own session. The returned
// handles have Shared set. ErrBadRequest means the ARM was built without
// sharing (ShareCapacity 0); blocking and ErrUnavailable/ErrImpossible
// semantics match Acquire, with availability counted as accelerators that
// can take one more sharer for this client.
func (c *Client) AcquireShared(p *sim.Proc, n int, blocking bool) ([]Handle, error) {
	return c.acquire(p, n, true, Constraint{}, blocking, 1, DefaultBackoff(), nil)
}

// routeIDs groups handle ids by owning shard into reused scratch slices
// (the routing hot path pinned by the alloc regression test).
func (c *Client) routeIDs(handles []Handle) [][]int {
	for sh := range c.groups {
		c.groups[sh] = c.groups[sh][:0]
	}
	for _, h := range handles {
		sh := c.dir.OwnerOf(h.ID)
		c.groups[sh] = append(c.groups[sh], h.ID)
	}
	return c.groups
}

// Release returns previously acquired accelerators to the pool — to
// their owning shards, splitting the batch per shard. On a partial
// failure the first error is returned; releases to other shards still go
// through.
func (c *Client) Release(p *sim.Proc, handles []Handle) error {
	var firstErr error
	for sh, ids := range c.routeIDs(handles) {
		if len(ids) == 0 {
			continue
		}
		_, _, err := c.call(p, sh, opRelease, func(w *wire.Writer) { w.Ints(ids) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// rankKeyedCall tries each shard in turn for operations addressed by
// daemon rank (Replace, Migrate), which the ring cannot route: only the
// holding shard accepts; the others answer ErrBadRequest. what names the
// op in errors.
func (c *Client) rankKeyedCall(p *sim.Proc, op uint8, what string, rank int) (Handle, error) {
	shards := c.dir.Shards()
	home := c.homeShard()
	for i := 0; i < shards; i++ {
		payload, epoch, err := c.call(p, (home+i)%shards, op, func(w *wire.Writer) { w.Int(rank) })
		if err == ErrBadRequest {
			continue // not held on this shard
		}
		if err != nil {
			return Handle{}, err
		}
		handles, err := decodeHandles(what, payload, false, epoch)
		if err != nil {
			return Handle{}, err
		}
		if len(handles) != 1 {
			return Handle{}, fmt.Errorf("arm: %s reply has %d handles", what, len(handles))
		}
		return handles[0], nil
	}
	return Handle{}, ErrBadRequest
}

// Replace reports that the accelerator whose daemon listens on
// failedRank stopped answering and asks for a substitute. The ARM marks
// the failed accelerator broken and grants a replacement from the free
// pool (any shard's); ErrUnavailable means no spare is free right now
// (the failure report still sticks), ErrImpossible that the operational
// pool is exhausted, ErrBadRequest that the caller does not hold an
// accelerator on that rank.
func (c *Client) Replace(p *sim.Proc, failedRank int) (Handle, error) {
	return c.rankKeyedCall(p, opReplace, "replace", failedRank)
}

// Migrate trades the accelerator this client holds on oldRank for a
// spare. The old assignment is surrendered (its daemon sanitizes it back
// into the pool on its next heartbeat) and the returned handle points at
// the replacement. ErrUnavailable means no spare could be granted right
// now — the old assignment is kept, so the caller can retry or limp on.
func (c *Client) Migrate(p *sim.Proc, oldRank int) (Handle, error) {
	return c.rankKeyedCall(p, opMigrate, "migrate", oldRank)
}

// idCall routes a single-id administrative op to the owning shard.
func (c *Client) idCall(p *sim.Proc, id int, op uint8, args argsFunc) error {
	_, _, err := c.call(p, c.dir.OwnerOf(id), op, args)
	return err
}

// Fail marks an accelerator broken (administrative; in a deployment this
// comes from a health monitor). Queued requests that become impossible
// are rejected.
func (c *Client) Fail(p *sim.Proc, id int) error {
	return c.idCall(p, id, opFail, func(w *wire.Writer) { w.Int(id) })
}

// Repair returns a failed accelerator to the free pool.
func (c *Client) Repair(p *sim.Proc, id int) error {
	return c.idCall(p, id, opRepair, func(w *wire.Writer) { w.Int(id) })
}

// Drain takes accelerator id out of service: no new grants, in-flight
// ownership respected until released, then the accelerator retires. The
// call blocks until the accelerator is out of service. A positive
// deadline bounds the wait: when it expires with the holder still
// attached the ARM revokes the lease, sanitizes, and retires.
func (c *Client) Drain(p *sim.Proc, id int, deadline sim.Duration) error {
	return c.idCall(p, id, opDrain, func(w *wire.Writer) { w.Int(id).I64(int64(deadline)) })
}

// RegisterCapable admits a new accelerator — pool id plus its daemon's
// world rank — into the live inventory of the owning shard (elastic
// grow), tagged with its device class and supported kernel classes, which
// make it eligible for constrained acquires and class-aware migration; a
// zero capability is an untagged device. The daemon should already be
// running and heartbeating; it gets a full silence budget from the moment
// of registration. ErrBadRequest means the id is already in the inventory.
func (c *Client) RegisterCapable(p *sim.Proc, id, rank int, cap Capability) error {
	return c.idCall(p, id, opRegister, func(w *wire.Writer) {
		encodeCapability(w.Int(id).Int(rank), cap)
	})
}

// Retire drains accelerator id and then removes it from the inventory
// entirely (elastic shrink) — unlike Drain, which parks it in the
// retired state. Deadline semantics match Drain: the call blocks until
// the accelerator is out of service, and a positive deadline bounds the
// wait by revoking stragglers. After Retire returns, the pool holds no
// record of the accelerator and therefore no stranded lease on it.
func (c *Client) Retire(p *sim.Proc, id int, deadline sim.Duration) error {
	return c.idCall(p, id, opRetire, func(w *wire.Writer) { w.Int(id).I64(int64(deadline)) })
}

// mergeStats folds one shard's snapshot into the aggregate.
func mergeStats(agg *PoolStats, st PoolStats) {
	agg.Total += st.Total
	agg.Free += st.Free
	agg.Assigned += st.Assigned
	agg.Failed += st.Failed
	agg.Suspect += st.Suspect
	agg.Retired += st.Retired
	agg.Queued += st.Queued
	agg.Acquires += st.Acquires
	agg.Releases += st.Releases
	agg.Reclaimed += st.Reclaimed
	agg.Migrations += st.Migrations
	agg.BusySeconds += st.BusySeconds
	agg.WaitSeconds += st.WaitSeconds
	agg.Shared += st.Shared
	agg.Sessions += st.Sessions
	agg.PerAccel = append(agg.PerAccel, st.PerAccel...)
}

// stats aggregates one snapshot op across every shard.
func (c *Client) stats(p *sim.Proc, op uint8, decode func([]byte) (PoolStats, error)) (PoolStats, error) {
	var agg PoolStats
	for sh := 0; sh < c.dir.Shards(); sh++ {
		payload, _, err := c.call(p, sh, op, nil)
		if err != nil {
			return PoolStats{}, err
		}
		st, err := decode(payload)
		if err != nil {
			return PoolStats{}, err
		}
		mergeStats(&agg, st)
	}
	return agg, nil
}

// Stats fetches the ARM's pool snapshot, summed across every shard.
func (c *Client) Stats(p *sim.Proc) (PoolStats, error) {
	return c.stats(p, opStats, decodeStats)
}

// StatsEx fetches the pool snapshot plus the sharing counters and the
// per-accelerator utilization table (PoolStats.Shared, .Sessions,
// .PerAccel), which the Stats reply omits. PerAccel is the
// concatenation of the shards' tables, sorted by accelerator id.
func (c *Client) StatsEx(p *sim.Proc) (PoolStats, error) {
	agg, err := c.stats(p, opStatsEx, decodeStatsEx)
	sort.Slice(agg.PerAccel, func(i, j int) bool { return agg.PerAccel[i].ID < agg.PerAccel[j].ID })
	return agg, err
}

// ShutdownShard stops one shard's serving rank (teardown helper: the
// cluster skips shards already crash-killed by fault injection).
func (c *Client) ShutdownShard(p *sim.Proc, shard int) error {
	_, _, err := c.call(p, shard, opShutdown, nil)
	return err
}

// Shutdown stops the ARM server loop on every distinct serving rank
// (used at simulation teardown).
func (c *Client) Shutdown(p *sim.Proc) error {
	done := make(map[int]bool, c.dir.Shards())
	for sh := 0; sh < c.dir.Shards(); sh++ {
		rank := c.dir.Serving(sh)
		if done[rank] {
			continue
		}
		done[rank] = true
		if err := c.ShutdownShard(p, sh); err != nil {
			return err
		}
	}
	return nil
}

// RecvNotice blocks until the ARM (any shard) sends this rank a health
// notice (suspect daemon, declared death, lease revocation). Run it in a
// dedicated watcher process: notices are unsolicited and arrive on their
// own tag, so they never interleave with request/reply traffic.
func (c *Client) RecvNotice(p *sim.Proc) (Notice, error) {
	data, st := c.comm.Recv(p, minimpi.AnySource, TagNotify)
	defer c.comm.World().PutPayload(data, st)
	return DecodeNotice(data)
}

// Backoff computes jittered exponential retry delays, for loops that
// retry ErrUnavailable acquires without hammering the ARM in lockstep
// with every other waiter.
type Backoff struct {
	Base   sim.Duration // delay before the first retry
	Cap    sim.Duration // upper bound on the un-jittered delay
	Factor float64      // growth per attempt (e.g. 2.0)
	Jitter float64      // fraction of the delay randomized, in [0, 1]
}

// DefaultBackoff is proportioned for the simulated fabric's ARM round
// trip (~tens of microseconds): start at 1ms, double, cap at 16ms,
// randomize the last quarter.
func DefaultBackoff() Backoff {
	return Backoff{
		Base:   sim.Millisecond,
		Cap:    16 * sim.Millisecond,
		Factor: 2.0,
		Jitter: 0.25,
	}
}

// Delay returns the wait before retry number attempt (0-based). rng may
// be nil, which disables jitter.
func (b Backoff) Delay(attempt int, rng *rand.Rand) sim.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if sim.Duration(d) >= b.Cap {
			d = float64(b.Cap)
			break
		}
	}
	if d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 && rng != nil {
		// Full delay minus a random slice of the jitter band, so the
		// cap still bounds the result.
		d -= b.Jitter * d * rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}
