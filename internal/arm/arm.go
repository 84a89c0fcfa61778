// Package arm implements the paper's Accelerator Resource Manager: the
// service that tracks which network-attached accelerators are free or in
// use and assigns them exclusively to compute nodes on request.
//
// The ARM runs as one rank of a minimpi world and is driven entirely by
// messages, as in the paper's architecture (Figure 3): compute nodes use
// the resource-management API (the Client type) to acquire accelerators
// before or during a job and release them afterwards; every assignment is
// exclusive and is represented by a Handle the computation API uses to
// address the accelerator's back-end daemon.
//
// Both assignment strategies of the paper are supported: static (acquire
// before the compute phase, hold for the job lifetime) and dynamic
// (acquire and release at runtime, with optional blocking until
// accelerators free up). The paper defers the dynamic strategy to future
// work; here it is fully implemented, including FIFO and backfill
// queueing policies and accelerator failure handling (the paper's fault
// tolerance claim: a broken accelerator never takes a compute node down).
//
// On top of the passive bookkeeping sits an optional health subsystem
// (ConfigureHealth): daemons heartbeat the ARM, a threshold failure
// detector on the virtual clock marks silent nodes suspect and then
// dead, assignments become leases that expire when their holder stops
// renewing, and reclaimed accelerators are sanitized before re-entering
// the free pool. See health.go.
//
// A server is one process, its main loop (Server.Run): ticks drive the
// detector and gossip, and each call it makes, to a daemon (the one hook,
// SetDaemonCaller) or to a peer (recall), runs as legs of a minimpi.Call.
package arm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// Handle is an assignment of one accelerator: its pool id and the world
// rank its back-end daemon listens on. Shared marks a shared lease
// (AcquireShared) as opposed to an exclusive assignment; Epoch is the
// shard leadership epoch the lease was granted under (zero from a lone
// manager), which the cluster stamps into the computation API as a
// fencing token. Both are client-side bookkeeping: Shared echoes the
// request, and Epoch comes from the reply header, not the handle list.
type Handle struct {
	ID   int
	Rank int

	Shared bool
	Epoch  uint64

	// Cap is the accelerator's capability descriptor, carried by every
	// granted handle; zero on an untagged fleet.
	Cap Capability
}

// Control-plane tags. TagRequest carries client→ARM requests; replies use
// tagReplyBase plus the client's request sequence number, so delayed
// (blocking) replies never collide. TagNotify carries unsolicited
// ARM→client health notices (see Notice).
const (
	TagRequest   minimpi.Tag = 1 << 20
	tagReplyBase minimpi.Tag = TagRequest + 1
	TagNotify    minimpi.Tag = TagRequest - 1
	// TagReplicate carries a shard leader's log-shipping stream to its
	// follower replica (see replica.go).
	TagReplicate minimpi.Tag = TagRequest - 2
)

// Request op codes. Every request is op | reqID | epoch | body, the epoch
// being the sender's directory view of the receiving shard's leadership
// epoch; every reply is status | epoch | body, the epoch being the highest
// the answering server has proof of (DESIGN.md §11 has the per-op bodies).
const (
	opAcquire uint8 = iota + 1
	opRelease
	opStats
	opFail
	opRepair
	opShutdown
	opReplace
	opHeartbeat // daemon→ARM liveness beat; no reply
	_           // 9: a retired explicit renewal; held so later codes keep their values
	opMigrate   // swap a suspect assignment for a spare
	opDrain     // retire an accelerator gracefully
	opStatsEx   // opStats plus per-accelerator utilization
	opRegister  // admit a new accelerator into the live inventory
	opRetire    // drain an accelerator, then remove it from the inventory
	opForward   // peer→peer: a client request relayed to the owning shard
	opLoad      // peer→peer: per-class free/operational gossip for fallback placement
	opRecall    // peer→peer: dedup-cache query while serving a replay
)

// opAcquire flag bits.
const (
	flagBlocking uint8 = 1 << iota // queue at the server until grantable
	flagShared                     // capacity-N shared leases instead of exclusive
	flagReplay                     // a failover replay: recall the peers before executing
)

func flag(on bool, bit uint8) uint8 {
	if on {
		return bit
	}
	return 0
}

// Reply status codes.
const (
	statusOK uint8 = iota
	statusUnavailable
	statusImpossible
	statusBadRequest
	// statusFenced: the answering server has abdicated — a higher
	// leadership epoch exists for its shard. The client must re-resolve
	// the serving rank from the directory and replay (same reqID, so
	// the dedup cache absorbs double execution).
	statusFenced
	// statusNoCapable: a capability-constrained acquire that no device in
	// the live inventory can ever satisfy — distinct from
	// statusImpossible so clients can tell "wrong fleet" from "pool too
	// small" and stop retrying immediately.
	statusNoCapable
)

// Errors returned by the client API.
var (
	// ErrUnavailable: a non-blocking acquire found too few free
	// accelerators.
	ErrUnavailable = errors.New("arm: not enough free accelerators")
	// ErrImpossible: the request exceeds the number of operational
	// accelerators and can never be satisfied.
	ErrImpossible = errors.New("arm: request exceeds operational pool size")
	// ErrBadRequest: malformed or inconsistent request (e.g. releasing a
	// handle the caller does not own).
	ErrBadRequest = errors.New("arm: bad request")
	// ErrFenced: the operation carried (or was served under) a stale
	// leadership epoch. For a client this means the shard failed over
	// and even replaying at the new serving rank did not help; for the
	// ARM's own daemon-side reclaim calls it means a newer leader has
	// fenced the daemon and this server must step down.
	ErrFenced = errors.New("arm: fenced: leadership epoch is stale")
	// ErrAcquireTimeout: a blocking sharded acquire exhausted its retry
	// budget without a grant. Returned as *AcquireTimeoutError, which
	// reports the attempt count and elapsed virtual time.
	ErrAcquireTimeout = errors.New("arm: blocking acquire timed out")
	// ErrNoCapableDevice: a capability-constrained acquire names a
	// class or kernel no live accelerator can serve; waiting would
	// block forever, so both blocking and non-blocking acquires fail
	// immediately with this error.
	ErrNoCapableDevice = errors.New("arm: no capable device for constraint")
)

// AcquireTimeoutError reports a blocking acquire that gave up: how many
// jittered attempts were made and how much virtual time they spanned.
// It matches ErrAcquireTimeout under errors.Is.
type AcquireTimeoutError struct {
	Attempts int
	Elapsed  sim.Duration
}

func (e *AcquireTimeoutError) Error() string {
	return fmt.Sprintf("arm: blocking acquire timed out after %d attempts over %v", e.Attempts, e.Elapsed)
}

// Is makes errors.Is(err, ErrAcquireTimeout) true for this type.
func (e *AcquireTimeoutError) Is(target error) bool { return target == ErrAcquireTimeout }

// Policy selects how queued (blocking) acquires are granted.
type Policy int

// Queueing policies.
const (
	// FIFO grants strictly in arrival order; a large request at the head
	// blocks later smaller ones.
	FIFO Policy = iota
	// Backfill lets a later request proceed when the head request cannot
	// yet be satisfied but the later one can (improves utilization at the
	// cost of possible head starvation).
	Backfill
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Backfill:
		return "backfill"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PoolStats is a snapshot of the ARM's bookkeeping.
type PoolStats struct {
	Total    int
	Free     int
	Assigned int
	Failed   int
	// Suspect counts accelerators out of the free pool because their
	// daemon went silent (including those being sanitized after a
	// reclaim); Retired counts accelerators drained out of service.
	Suspect int
	Retired int
	Queued  int
	// Acquires and Releases count completed operations.
	Acquires int
	Releases int
	// Reclaimed counts leases the ARM revoked (expiry or forced drain);
	// Migrations counts suspect assignments swapped for a spare.
	Reclaimed  int
	Migrations int
	// BusySeconds integrates in-use accelerator time: one accelerator
	// assigned (or shared by at least one tenant) for one virtual second
	// contributes 1.0.
	BusySeconds float64
	// WaitSeconds integrates time acquire requests spent queued.
	WaitSeconds float64
	// Shared counts accelerators currently under shared leases (these are
	// also counted in Assigned: Free+Assigned+Failed+Suspect+Retired=Total);
	// Sessions counts the shared leases held across them. Both are zero in
	// exclusive-only operation.
	Shared   int
	Sessions int
	// PerAccel is per-accelerator utilization, populated only by
	// Client.StatsEx.
	PerAccel []AccelStats
}

// AccelStats is one accelerator's slice of the pool accounting, reported
// by Client.StatsEx.
type AccelStats struct {
	ID   int
	Rank int
	// State is the accelerator's lifecycle state ("free", "assigned",
	// "shared", "failed", "suspect", "reclaiming", "retired").
	State string
	// Class is the accelerator's device class ("c1060", "fermi", "fpga");
	// empty on an untagged (homogeneous legacy) fleet.
	Class string
	// Sessions counts current holders: the sharer count of a shared
	// accelerator, 1 when exclusively assigned, 0 otherwise.
	Sessions int
	// Grants counts leases ever granted on this accelerator.
	Grants int
	// BusySeconds integrates this accelerator's in-use time; WaitSeconds
	// sums the queue wait of the grants it served.
	BusySeconds float64
	WaitSeconds float64
}

// Utilization returns the mean fraction of the pool assigned over the
// elapsed virtual time.
func (ps PoolStats) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 || ps.Total == 0 {
		return 0
	}
	return ps.BusySeconds / (elapsed.Seconds() * float64(ps.Total))
}

// drainWait is a pending opDrain, or opRetire (remove): whom to answer
// once the accelerator is out of service. A follower's copy has no
// requester (src -1), as the client replays its request after a promotion.
type drainWait struct {
	src    int
	reqID  uint64
	remove bool
}

type accel struct {
	id    int
	rank  int
	state acState

	// holders lists the clients holding the accelerator by ascending world
	// rank, so loops over them are deterministic, each with its lease
	// expiry: one while acAssigned, up to ShareCapacity while acShared.
	// Empty in every other state, except that an administrative Fail
	// freezes the table so the holders can still release.
	holders []holder

	drain *drainWait // the pending drain; nil unless draining
	// notified keeps a suspect episode to one notice: the detector fires
	// beat lost every tick, and a held device stays held (and open to
	// sharers) while suspect, so the episode is no state of its own.
	notified bool

	// cap is the capability descriptor the accelerator registered with;
	// zero for legacy untagged inventory.
	cap Capability

	// Per-accelerator accounting (see AccelStats).
	busySeconds float64
	waitSeconds float64
	grants      int

	mark uint64 // the last replicated snapshot that listed it (follower only)
}

// holder is one client holding an accelerator, with its lease expiry (0 =
// no lease).
type holder struct {
	rank   int
	expiry sim.Time
}

// find returns where rank is, or would go, in a's holders, and whether it
// is there.
func (a *accel) find(rank int) (int, bool) {
	return slices.BinarySearchFunc(a.holders, rank, func(h holder, r int) int { return h.rank - r })
}

// holds reports whether client rank holds a.
func (a *accel) holds(rank int) bool { _, ok := a.find(rank); return ok }

// hold enters rank among a's holders, or renews it, with that expiry.
func (a *accel) hold(rank int, expiry sim.Time) {
	i, ok := a.find(rank)
	if !ok {
		a.holders = slices.Insert(a.holders, i, holder{rank: rank})
	}
	a.holders[i].expiry = expiry
}

// unhold drops rank from a's holders.
func (a *accel) unhold(rank int) {
	if i, ok := a.find(rank); ok {
		a.holders = slices.Delete(a.holders, i, i+1)
	}
}

// holderCount counts the clients currently using a: 1 for an exclusive
// assignment, the sharer count for a shared accelerator, 0 otherwise (a
// frozen table on a failed accelerator is nobody using it).
func (a *accel) holderCount() int {
	if !a.state.held() {
		return 0
	}
	return len(a.holders)
}

type pendingAcquire struct {
	src      int // communicator rank of requester
	reqID    uint64
	n        int
	shared   bool // capacity-N shared leases instead of exclusive
	enqueued sim.Time
	// forwarded marks a request relayed by a peer shard: it executes
	// non-blocking, never re-forwards (no routing loops), and the reply
	// goes straight to the original client at src.
	forwarded bool
	// constraint restricts the grant to matching devices (zero = any).
	constraint Constraint
	// replaces is the device whose resident state the grant takes over
	// (Replace, Migrate): only spares that can host it are eligible,
	// same-class ones first (migrationTarget).
	replaces *accel
}

// Options configures an ARM server beyond the queueing policy.
type Options struct {
	// Policy selects how queued (blocking) acquires are granted.
	Policy Policy
	// ShareCapacity is the maximum number of tenants AcquireShared may
	// place on one accelerator. Zero (the default) disables shared leases
	// entirely: AcquireShared fails with ErrBadRequest and the ARM behaves
	// exactly as the exclusive-only manager.
	ShareCapacity int
	// Shard is this server's shard index in the Directory.
	Shard int
	// Directory supplies the ownership ring and the leader/follower rank
	// table shared by every shard and client; nil is a lone manager,
	// SingleDirectory(comm.Rank()). Accelerator ownership is partitioned
	// by its consistent-hash ring: requests for accelerators owned
	// elsewhere are forwarded to the owning peer, acquires the local pool
	// cannot satisfy fall back to the least-loaded peer (shard.go), and a
	// follower rank receives the replication stream (replica.go).
	Directory *Directory
}

// peerLoad is one peer shard's last gossiped load: its per-class free
// and operational counts and their totals.
type peerLoad struct {
	seen                 bool
	free, oper           int
	classFree, classOper map[string]int
}

// Server is the ARM service state machine.
type Server struct {
	comm     *minimpi.Comm
	sim      *sim.Simulation
	policy   Policy
	shareCap int // tenants per accelerator for shared leases; 0 = disabled

	accels []*accel // pool order = grant order (lowest id first)
	byID   map[int]*accel
	queue  []*pendingAcquire

	// Health subsystem (health.go); healthOn only after ConfigureHealth.
	health   HealthConfig
	healthOn bool
	daemon   DaemonCaller     // the one hook to the daemons (SetDaemonCaller)
	lastBeat map[int]sim.Time // daemon rank → last heartbeat arrival
	closed   bool             // stops the detector tick after shutdown

	// Sharding and replication (shard.go, replica.go). A lone manager is
	// the one-shard directory with no follower: no peer to gossip with or
	// forward to, followerRank -1, and — the one thing computed from that,
	// Directory.replayable — no reply kept for a replay that cannot come.
	dir          *Directory
	shard        int
	followerRank int         // replication target; -1 when there is none
	peers        []peerLoad  // indexed by shard; this server's own entry is unused
	loads        []classLoad // classLoads scratch
	asker        *Client     // asks the peer shards (recall), made at first use
	replies      minimpi.ReplyCache
	repSeq       uint64
	repN         int         // replies recorded since the last ship, encoded in repW
	repW         wire.Writer // (dst, reqID, reply) entries for the next ship
	mark         uint64      // snapshots applied (follower only)
	mainProc     *sim.Proc
	recv         *minimpi.Request  // the main loop's posted request receive
	waits        []*minimpi.Waiter // in flight on the server's behalf: Kill cancels them

	// Scratch a request reuses: every message is encoded into scratch and
	// sent as a pool copy, a reply body into body; ids holds a decoded id
	// list, cand pick's candidates, acq an acquire that need not wait.
	scratch *wire.Writer
	body    wire.Writer
	ids     []int
	cand    byHolders
	acq     pendingAcquire

	// Epoch fencing (DESIGN.md §12). myEpoch is the leadership epoch this
	// server believes it serves under (directory epoch at construction,
	// re-read at promotion); seenEpoch is the highest epoch observed in
	// traffic. Observing seenEpoch > myEpoch means a newer leader exists
	// for this shard: the server abdicates — it answers ownership ops
	// with statusFenced, stops granting, gossiping, shipping, and
	// reclaiming, and only dedup-cache resends and read-only ops keep
	// working.
	myEpoch   uint64
	seenEpoch uint64
	abdicated bool
	// ledger records every grant and hold-end with its epoch and
	// virtual time; the split-brain checker replays merged ledgers
	// after chaos runs (ledger.go).
	ledger []GrantEvent

	// accounting
	lastChange     sim.Time
	busySeconds    float64
	waitSeconds    float64
	acquireCount   int
	releaseCount   int
	reclaimedCount int
	migrateCount   int
}

// NewServer creates a lone ARM serving the given accelerator inventory on
// the communicator. Inventory ids must be unique.
func NewServer(comm *minimpi.Comm, inventory []Handle, policy Policy) (*Server, error) {
	return NewServerOpts(comm, inventory, Options{Policy: policy})
}

// NewServerOpts is NewServer with full options.
func NewServerOpts(comm *minimpi.Comm, inventory []Handle, opts Options) (*Server, error) {
	if opts.ShareCapacity < 0 {
		return nil, fmt.Errorf("arm: negative share capacity %d", opts.ShareCapacity)
	}
	if opts.Directory == nil {
		opts.Directory = SingleDirectory(comm.Rank())
	}
	dir := opts.Directory
	if opts.Shard < 0 || opts.Shard >= dir.Shards() {
		return nil, fmt.Errorf("arm: shard index %d out of range [0,%d)", opts.Shard, dir.Shards())
	}
	// Every accelerator's holder list is carved from one array, room for
	// ShareCapacity holders (one exclusive) each, and the scratch writers are
	// sized for a snapshot of the inventory (some 96 bytes an accelerator
	// besides its holders): no grant grows either.
	per := max(1, opts.ShareCapacity)
	room, wireCap := make([]holder, len(inventory)*per), 64+len(inventory)*(96+8*per)
	s := &Server{
		comm:         comm,
		sim:          comm.World().Sim(),
		policy:       opts.Policy,
		shareCap:     opts.ShareCapacity,
		byID:         make(map[int]*accel),
		dir:          dir,
		shard:        opts.Shard,
		myEpoch:      dir.Epoch(opts.Shard),
		followerRank: dir.Follower(opts.Shard),
		peers:        make([]peerLoad, dir.Shards()),
		scratch:      wire.NewWriter(wireCap),
		body:         *wire.NewWriter(wireCap),
		repW:         *wire.NewWriter(wireCap),
		replies:      minimpi.NewReplyCache(dedupKeep * comm.Size()),
	}
	if s.followerRank == comm.Rank() {
		// The shard's follower itself (serving after a promotion) has
		// nobody to ship to.
		s.followerRank = -1
	}
	for sh := range s.peers {
		if sh != s.shard {
			s.peers[sh].classFree = make(map[string]int)
			s.peers[sh].classOper = make(map[string]int)
		}
	}
	for i, h := range inventory {
		if _, dup := s.byID[h.ID]; dup {
			return nil, fmt.Errorf("arm: duplicate accelerator id %d", h.ID)
		}
		if owner := dir.OwnerOf(h.ID); owner != s.shard {
			return nil, fmt.Errorf("arm: accelerator %d belongs to shard %d, not %d", h.ID, owner, s.shard)
		}
		a := &accel{id: h.ID, rank: h.Rank, cap: h.Cap, holders: room[i*per : i*per : (i+1)*per]}
		s.accels = append(s.accels, a)
		s.byID[h.ID] = a
	}
	return s, nil
}

func (s *Server) now() sim.Time { return s.sim.Now() }

// Run serves requests until a shutdown request arrives. It is typically
// spawned as the ARM rank's process.
func (s *Server) Run(p *sim.Proc) {
	s.mainProc = p
	s.lastChange = s.now()
	if s.healthOn {
		// Treat startup as one fresh beat from everyone: daemons get a
		// full silence budget before the detector may suspect them.
		if s.lastBeat == nil {
			s.lastBeat = make(map[int]sim.Time)
		}
		for _, a := range s.accels {
			s.lastBeat[a.rank] = s.now()
		}
		s.scheduleTick()
	}
	if s.dir.replayable(s.shard) {
		// Someone to gossip with or ship to: start the beat.
		s.scheduleShardTick()
	}
	for {
		s.recv = s.comm.Irecv(minimpi.AnySource, TagRequest)
		data, st := s.recv.Wait(p)
		s.recv = nil
		more := s.handle(st.Source, data)
		s.comm.World().PutPayload(data, st) // handle copied what it keeps
		if !more {
			s.closed = true
			return
		}
	}
}

// handle processes one request; it reports false on shutdown.
func (s *Server) handle(src int, data []byte) bool {
	r := wire.NewReader(data)
	op, reqID, claim := r.U8(), r.U64(), r.U64()
	forwarded := op == opForward
	if forwarded {
		// A peer relayed a client's request to us, the owner: execute it on
		// the original client's behalf. The reply goes straight back to
		// that client (its reply Irecv matches any source), so a forward
		// costs one extra hop, not two.
		src, op = r.Int(), r.U8()
	}
	if r.Err() != nil || src < 0 || src >= s.comm.Size() || tagReplyBase+minimpi.Tag(reqID) < tagReplyBase {
		// A truncated header, a forward on behalf of a rank outside the
		// world, or a request id whose reply tag wraps around: there is
		// nowhere to answer, and sending there would panic the transport.
		// Drop the frame.
		return true
	}
	// The header's epoch is the sender's directory view of this shard's
	// epoch; a claim above myEpoch means a newer leader exists and this
	// server must step down.
	s.observeEpoch(claim)
	switch op {
	case opLoad:
		s.handleLoad(src, r)
		return true
	case opRecall:
		s.handleRecall(src, reqID, r)
		return true
	}
	// Any request from a lease holder proves the client alive: renew its
	// leases implicitly (the front-end's piggybacked renewal).
	if op != opHeartbeat {
		s.touchClient(src)
		if cached := s.replies.Lookup(minimpi.ReplyKey{Src: src, ReqID: reqID}); cached != nil {
			// Failover replay of a request we already answered: resend
			// the recorded reply instead of executing twice.
			s.comm.SendCopy(src, tagReplyBase+minimpi.Tag(reqID), cached)
			s.ship()
			return true
		}
	}
	// After shutdown the follower is gone: nothing to ship to.
	if !s.dispatch(src, reqID, op, forwarded, data[len(data)-r.Remaining():]) {
		return false
	}
	s.ship()
	return true
}

// dispatch executes one unwrapped request; it reports false on shutdown.
func (s *Server) dispatch(src int, reqID uint64, op uint8, forwarded bool, body []byte) bool {
	r := wire.NewReader(body)
	if s.abdicated && op != opShutdown && op != opStats && op != opStatsEx {
		// A deposed leader serves nothing that touches ownership: the
		// client re-resolves the directory and replays at the real
		// leader. Read-only stats stay up for postmortems, shutdown
		// still works, and heartbeats are dropped on the floor.
		if op != opHeartbeat {
			s.reply(src, reqID, statusFenced, nil)
		}
		return true
	}
	switch op {
	case opAcquire:
		n, flags := r.Int(), r.U8()
		constraint := decodeConstraint(r)
		if r.Err() != nil || n <= 0 {
			s.reply(src, reqID, statusBadRequest, nil)
			return true
		}
		req := &s.acq
		*req = pendingAcquire{
			src: src, reqID: reqID, n: n, shared: flags&flagShared != 0,
			enqueued: s.now(), forwarded: forwarded, constraint: constraint,
		}
		blocking := flags&flagBlocking != 0 && !forwarded
		if flags&flagReplay != 0 && !forwarded {
			// A failover replay: a peer may have granted it (recall).
			s.recall(*req, blocking)
			return true
		}
		s.acquire(req, blocking)
	case opRelease:
		// AppendInts checks the count against the bytes left before
		// growing: a negative or absurd count off the wire is a bad request.
		if s.ids = r.AppendInts(s.ids[:0]); r.Err() != nil {
			s.reply(src, reqID, statusBadRequest, nil)
			return true
		}
		if owner, ok := s.foreignOwner(s.ids, forwarded); ok {
			s.forwardOp(owner, src, reqID, op, body)
			return true
		}
		s.release(src, reqID, s.ids)
	case opStats:
		s.reply(src, reqID, statusOK, s.encodeStats(s.now()))
	case opStatsEx:
		s.reply(src, reqID, statusOK, s.encodeStatsEx(s.now()))
	case opReplace, opMigrate:
		rank := r.Int()
		if r.Err() != nil {
			s.reply(src, reqID, statusBadRequest, nil)
			return true
		}
		if op == opReplace {
			s.replace(src, reqID, rank)
		} else {
			s.migrate(src, reqID, rank)
		}
	case opHeartbeat:
		if s.ids = r.AppendInts(s.ids[:0]); r.Err() == nil {
			s.heartbeat(src, s.ids)
		}
		// Beats are fire-and-forget: no reply.
	case opFail, opRepair, opDrain, opRetire, opRegister:
		// The ops naming one accelerator, which its owner serves.
		id, rank, deadline := r.Int(), 0, sim.Duration(0)
		var cap Capability
		var err error
		switch op {
		case opDrain, opRetire:
			deadline = sim.Duration(r.I64())
		case opRegister:
			rank = r.Int()
			cap, err = decodeCapability(r)
		}
		if r.Err() != nil || err != nil {
			s.reply(src, reqID, statusBadRequest, nil)
			return true
		}
		if owner, ok := s.foreignOwner([]int{id}, forwarded); ok {
			s.forwardOp(owner, src, reqID, op, body)
			return true
		}
		a := s.byID[id]
		switch {
		case op == opRegister && a == nil:
			// Elastic grow: the daemon gets a full silence budget from now.
			s.transition(&accel{id: id, rank: rank, cap: cap}, evRegister, -1)
		case a == nil || op == opRegister:
			s.reply(src, reqID, statusBadRequest, nil)
			return true
		case op == opDrain || op == opRetire:
			s.drain(src, reqID, a, deadline, op == opRetire)
			return true
		case op == opFail:
			// Failing a held accelerator keeps its holder table: the compute
			// nodes survive (the paper's fault tolerance) and still release.
			s.transition(a, evFail, -1)
		default:
			s.transition(a, evRepair, -1)
		}
		s.reply(src, reqID, statusOK, nil)
		s.drainQueue()
	case opShutdown:
		s.reply(src, reqID, statusOK, nil)
		return false
	default:
		s.reply(src, reqID, statusBadRequest, nil)
	}
	return true
}

// reply answers (dst, reqID) with status | epoch | body. The epoch is the
// one the request was served under, which clients stamp into grants as
// their fencing token; an abdicated server advertises the higher epoch it
// observed, steering the client to refresh.
func (s *Server) reply(dst int, reqID uint64, status uint8, body []byte) {
	msg := s.scratch.Reset().U8(status).U64(s.epochHint()).Raw(body).Bytes()
	if status != statusFenced && s.dir.replayable(s.shard) {
		// A replay can reach this server or its follower: record the reply
		// so the same (client, reqID) is resent instead of re-executed, and
		// ship it to the follower for the same reason. Fenced refusals are
		// deliberately not recorded: the replay must re-execute at
		// whichever server is actually serving. A lone manager records
		// nothing — clients on one rank may each count reqIDs from 1.
		s.replies.Record(minimpi.ReplyKey{Src: dst, ReqID: reqID}, msg)
		if s.followerRank >= 0 {
			s.repN++
			s.repW.Int(dst).U64(reqID).Blob(msg)
		}
	}
	s.comm.SendCopy(dst, tagReplyBase+minimpi.Tag(reqID), msg)
}

// decodeReply splits a reply into its status, the answering server's
// epoch hint and the body (aliasing data).
func decodeReply(data []byte) (status uint8, epoch uint64, body []byte, err error) {
	r := wire.NewReader(data)
	status, epoch = r.U8(), r.U64()
	return status, epoch, data[len(data)-r.Remaining():], r.Err()
}

// epochHint is the epoch a reply advertises: the highest this server has
// proof of (its own, or the newer one that deposed it).
func (s *Server) epochHint() uint64 {
	if s.seenEpoch > s.myEpoch {
		return s.seenEpoch
	}
	return s.myEpoch
}

// observeEpoch processes an epoch claim for this server's shard carried
// by incoming traffic. A claim above myEpoch is proof of a newer
// leader: step down.
func (s *Server) observeEpoch(claim uint64) {
	if claim > s.myEpoch {
		s.stepDown(claim)
	}
}

// stepDown moves the server into the abdicated state: queued acquires
// are refused with statusFenced (their clients re-resolve and replay at
// the real leader), and dispatch fences everything ownership-touching
// from here on. Detector, gossip, and replication ticks stop re-arming.
func (s *Server) stepDown(observed uint64) {
	if observed > s.seenEpoch {
		s.seenEpoch = observed
	}
	if s.abdicated {
		return
	}
	s.abdicated = true
	for _, req := range s.queue {
		s.reply(req.src, req.reqID, statusFenced, nil)
	}
	s.queue = nil
}

// Epoch returns the leadership epoch this server serves under (0 for a
// lone manager).
func (s *Server) Epoch() uint64 { return s.myEpoch }

// Snapshot returns the pool accounting Client.Stats would be answered
// with, read in place — the server's books once it has stopped.
func (s *Server) Snapshot() PoolStats { return s.snapshot(s.now()) }

// Abdicated reports whether the server has stepped down after observing
// a higher leadership epoch for its shard.
func (s *Server) Abdicated() bool { return s.abdicated }

// accrue charges the busy-time integral up to now: each accelerator with
// at least one holder adds the elapsed interval to its own busy time and
// to the pool's. (A shared accelerator is busy, not busy-per-tenant: the
// device is in use regardless of how many sessions share it.)
func (s *Server) accrue(now sim.Time) {
	dt := now.Sub(s.lastChange).Seconds()
	if dt > 0 {
		for _, a := range s.accels {
			if a.holderCount() > 0 {
				a.busySeconds += dt
				s.busySeconds += dt
			}
		}
	}
	s.lastChange = now
}

// sharedGrantable reports whether a can take one more sharer for client
// src: the table lets it share, it is not draining, below capacity, and src
// not already sharing it (one lease per tenant per accelerator).
func (s *Server) sharedGrantable(a *accel, src int) bool {
	return lifecycle[evShare][a.state].ok && a.drain == nil && len(a.holders) < s.shareCap && !a.holds(src)
}

// canGrant reports whether req is satisfiable right now. Shared and
// exclusive requests wait in the same FIFO queue; this is the single
// grant predicate both kinds are checked against.
func (s *Server) canGrant(req *pendingAcquire) bool {
	if req.shared {
		return s.countFor(req, func(a *accel) bool { return s.sharedGrantable(a, req.src) }) >= req.n
	}
	return s.freeCountFor(req) >= req.n
}

// acquire serves req. One that must wait is queued as a copy, so the
// caller may reuse req.
func (s *Server) acquire(req *pendingAcquire, blocking bool) {
	if req.shared && s.shareCap <= 0 {
		// Sharing disabled: exclusive-only operation.
		s.reply(req.src, req.reqID, statusBadRequest, nil)
		return
	}
	ceiling := s.operationalFor(req)
	if req.shared {
		// Accelerators this client already shares can never satisfy the
		// request (one lease per tenant per accelerator). One it holds
		// exclusively stays in the ceiling: releasing it makes it shareable.
		for _, a := range s.accels {
			if a.state == acShared && a.holds(req.src) && s.eligible(a, req) {
				ceiling--
			}
		}
	}
	if req.n > ceiling {
		switch {
		case req.forwarded:
			// Partial view: the forwarder saw a healthier cluster than
			// this shard's pool. Unavailable lets the client retry rather
			// than aborting on a wrongly-global "impossible".
			s.reply(req.src, req.reqID, statusUnavailable, nil)
		case s.forwardAcquire(req):
			// The local ceiling is one shard's, not the cluster's: the
			// least-loaded peer answers.
		case !s.gossipComplete() || req.n <= ceiling+s.peerOperationalFor(req.constraint):
			s.reply(req.src, req.reqID, statusUnavailable, nil)
		default:
			s.reply(req.src, req.reqID, exhaustedStatus(req), nil)
		}
		return
	}
	if s.canGrant(req) && (s.policy == Backfill || len(s.queue) == 0) {
		s.grant(req)
		return
	}
	if !req.forwarded && s.forwardAcquire(req) {
		return
	}
	if !blocking {
		s.reply(req.src, req.reqID, statusUnavailable, nil)
		return
	}
	queued := *req
	s.queue = append(s.queue, &queued)
}

// pick selects the accelerators a grantable request gets, eligible ones
// only: the lowest-id free ones for an exclusive request (a replacement's
// class first); for a shared request the least-loaded shareable ones
// (fewest current holders) so tenants spread across the pool, pool order
// breaking ties for determinism. The picks live in the server's scratch
// until the next pick.
func (s *Server) pick(req *pendingAcquire) []*accel {
	cand := s.cand[:0]
	if req.replaces != nil {
		s.cand = append(cand, s.migrationTarget(req.replaces))
		return s.cand
	}
	for _, a := range s.accels {
		grantable := a.state.grantable()
		if req.shared {
			grantable = s.sharedGrantable(a, req.src)
		}
		if grantable && s.eligible(a, req) {
			cand = append(cand, a)
			if !req.shared && len(cand) == req.n {
				break // pool order is the exclusive preference: done
			}
		}
	}
	s.cand = cand
	if req.shared {
		sort.Stable(&s.cand) // a pointer is a sort.Interface without allocating
	}
	if len(cand) < req.n {
		panic(fmt.Sprintf("arm: grant invariant broken: %d of %d", len(cand), req.n))
	}
	return cand[:req.n]
}

// byHolders orders accelerators by holder count.
type byHolders []*accel

func (b *byHolders) Len() int           { return len(*b) }
func (b *byHolders) Less(i, j int) bool { return len((*b)[i].holders) < len((*b)[j].holders) }
func (b *byHolders) Swap(i, j int)      { (*b)[i], (*b)[j] = (*b)[j], (*b)[i] }

// grant picks req.n accelerators, leases them to the requester and
// replies with their handles.
func (s *Server) grant(req *pendingAcquire) {
	ev, kind := evGrant, LedgerGrant
	if req.shared {
		ev, kind = evShare, LedgerGrantShared
	}
	picked, wait := s.pick(req), s.now().Sub(req.enqueued).Seconds()
	w := s.body.Reset().Int(len(picked))
	for _, a := range picked {
		s.transition(a, ev, req.src)
		a.grants++
		a.waitSeconds += wait
		encodeCapability(w.Int(a.id).Int(a.rank), a.cap)
		s.logHold(a, req.src, kind)
	}
	s.acquireCount++
	s.waitSeconds += wait
	s.reply(req.src, req.reqID, statusOK, w.Bytes())
}

func (s *Server) release(src int, reqID uint64, ids []int) {
	// Validate ownership first so a bad release changes nothing. Releasing
	// a failed (or suspect, reclaiming, retired) accelerator leaves it in
	// that state; only a frozen hold is dropped.
	for i, id := range ids {
		a, ok := s.byID[id]
		if !ok || !lifecycle[evRelease][a.state].ok || a.state.held() && !a.holds(src) || slices.Contains(ids[:i], id) {
			s.reply(src, reqID, statusBadRequest, nil)
			return
		}
	}
	for _, id := range ids {
		s.transition(s.byID[id], evRelease, src)
	}
	s.releaseCount++
	s.reply(src, reqID, statusOK, nil)
	s.drainQueue()
}

// drainQueue grants queued requests according to the policy and rejects
// requests that became impossible. Shared and exclusive requests share
// one queue, so FIFO head-of-line blocking holds across both kinds.
func (s *Server) drainQueue() {
	for {
		progressed := false
		kept := s.queue[:0]
		for i, req := range s.queue {
			switch {
			case req.n > s.operationalFor(req):
				s.reply(req.src, req.reqID, exhaustedStatus(req), nil)
				progressed = true
			case s.canGrant(req):
				s.grant(req)
				progressed = true
			default:
				kept = append(kept, req)
				if s.policy == FIFO {
					// Strict FIFO: nothing behind an unsatisfiable head.
					kept = append(kept, s.queue[i+1:]...)
					s.queue = kept
					return
				}
			}
		}
		s.queue = kept
		if !progressed {
			return
		}
	}
}

// heldAt finds the accelerator client src holds on daemon rank (what the
// computation API knows) in a state the table lets ev happen in.
func (s *Server) heldAt(src, rank int, ev event) *accel {
	for _, a := range s.accels {
		if a.rank == rank && lifecycle[ev][a.state].ok && a.holds(src) {
			return a
		}
	}
	return nil
}

// replace handles a compute node's failure report for an accelerator it
// holds: the accelerator fails, its other sharers are told so they can
// fail over too, and a replacement is granted from the free pool with the
// reply shape of a one-handle acquire. The grant is non-blocking — waiting
// for another job to release could deadlock the reporter, so an empty pool
// answers unavailable and the caller decides whether to retry.
func (s *Server) replace(src int, reqID uint64, rank int) {
	failed := s.heldAt(src, rank, evReplace)
	if failed == nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	req := &pendingAcquire{src: src, reqID: reqID, n: 1, shared: failed.state == acShared, enqueued: s.now()}
	if !req.shared {
		// The replacement is the job's failed device by another name: a
		// pool must not hand back just any device.
		req.replaces = failed
	}
	s.transition(failed, evReplace, src)
	// The shrunken pool may make queued requests impossible; settle them
	// before queueing the replacement acquire.
	s.drainQueue()
	s.acquire(req, false)
}

// migrate handles opMigrate: the client trades an accelerator it holds on
// a suspect (or otherwise unwanted) daemon for a spare that can host its
// resident state, same class first. The old one becomes a dirty suspect —
// its daemon's next beat sanitizes it back into the pool, continued silence
// kills it, and a pending drain sanitizes it into retirement at once — and
// the spare is granted non-blocking, with the reply shape of an acquire.
// When no spare can be granted right now the old assignment is kept:
// limping on a suspect node beats holding nothing. Migration is
// exclusive-only: a shared lease has no device state the ARM could hand
// over wholesale, so a tenant on a suspect shared accelerator releases and
// re-acquires instead (the client fails with ErrBadRequest here).
func (s *Server) migrate(src int, reqID uint64, rank int) {
	old := s.heldAt(src, rank, evMigrate)
	if old == nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	req := &pendingAcquire{src: src, reqID: reqID, n: 1, enqueued: s.now(), replaces: old}
	if !s.canGrant(req) || (s.policy == FIFO && len(s.queue) > 0) {
		s.reply(src, reqID, statusUnavailable, nil)
		return
	}
	s.transition(old, evMigrate, src)
	s.migrateCount++
	s.grant(req)
}

// snapshot accrues the time integrals and summarizes the pool: Total is
// free + assigned + failed + suspect + retired, shared accelerators under
// Assigned, reclaiming and dirty ones under Suspect.
func (s *Server) snapshot(now sim.Time) PoolStats {
	s.accrue(now)
	st := PoolStats{
		Total:      len(s.accels),
		Queued:     len(s.queue),
		Acquires:   s.acquireCount,
		Releases:   s.releaseCount,
		Reclaimed:  s.reclaimedCount,
		Migrations: s.migrateCount,

		BusySeconds: s.busySeconds,
		WaitSeconds: s.waitSeconds,
	}
	bucket := [nStates]*int{&st.Free, &st.Assigned, &st.Failed, &st.Suspect, &st.Suspect, &st.Retired, &st.Assigned, &st.Suspect}
	for _, a := range s.accels {
		*bucket[a.state]++
		if a.state == acShared {
			st.Shared++
			st.Sessions += len(a.holders)
		}
	}
	return st
}

// encodeStats writes the opStats reply body.
func (s *Server) encodeStats(now sim.Time) []byte {
	st := s.snapshot(now)
	w := s.body.Reset().Int(st.Total).Int(st.Free).Int(st.Assigned).Int(st.Failed).Int(st.Queued)
	w.Int(st.Acquires).Int(st.Releases).F64(st.BusySeconds).F64(st.WaitSeconds)
	w.Int(st.Suspect).Int(st.Retired).Int(st.Reclaimed).Int(st.Migrations)
	return w.Bytes()
}

// encodeStatsEx appends the sharing counters and the per-accelerator
// utilization table to the opStats layout.
func (s *Server) encodeStatsEx(now sim.Time) []byte {
	s.encodeStats(now)
	st, w := s.snapshot(now), &s.body
	w.Int(st.Shared).Int(st.Sessions)
	w.Int(len(s.accels))
	for _, a := range s.accels {
		w.Int(a.id).Int(a.rank).Str(a.state.String()).Str(a.cap.Class)
		w.Int(a.holderCount()).Int(a.grants)
		w.F64(a.busySeconds).F64(a.waitSeconds)
	}
	return w.Bytes()
}

func decodeLegacyStats(r *wire.Reader) PoolStats {
	st := PoolStats{
		Total:    r.Int(),
		Free:     r.Int(),
		Assigned: r.Int(),
		Failed:   r.Int(),
		Queued:   r.Int(),
		Acquires: r.Int(),
		Releases: r.Int(),
	}
	st.BusySeconds = r.F64()
	st.WaitSeconds = r.F64()
	st.Suspect = r.Int()
	st.Retired = r.Int()
	st.Reclaimed = r.Int()
	st.Migrations = r.Int()
	return st
}

func decodeStats(body []byte) (PoolStats, error) {
	r := wire.NewReader(body)
	st := decodeLegacyStats(r)
	return st, r.Err()
}

func decodeStatsEx(body []byte) (PoolStats, error) {
	r := wire.NewReader(body)
	st := decodeLegacyStats(r)
	st.Shared = r.Int()
	st.Sessions = r.Int()
	count := r.Int()
	if err := r.Err(); err != nil {
		return PoolStats{}, err
	}
	// A row is at least 56 bytes (six 8-byte fields and two string lengths).
	if count < 0 || count > r.Remaining()/56 {
		return PoolStats{}, fmt.Errorf("arm: malformed stats reply: %d rows in %d bytes", count, r.Remaining())
	}
	st.PerAccel = make([]AccelStats, 0, count)
	for i := 0; i < count; i++ {
		as := AccelStats{ID: r.Int(), Rank: r.Int(), State: r.Str(), Class: r.Str()}
		as.Sessions = r.Int()
		as.Grants = r.Int()
		as.BusySeconds = r.F64()
		as.WaitSeconds = r.F64()
		st.PerAccel = append(st.PerAccel, as)
	}
	return st, r.Err()
}
