// Package minimpi is an MPI-flavoured message-passing layer for programs
// running inside a dynacc discrete-event simulation.
//
// A World groups n ranks connected by one interconnect (described by a
// netmodel.Params). Each rank owns an endpoint with a full-duplex NIC,
// modelled as one transmit and one receive resource, so concurrent
// transfers touching the same node contend for that node's link — exactly
// the effect the paper cares about when host-device traffic and
// inter-node traffic share the fabric.
//
// The programming surface follows MPI: tagged point-to-point messages with
// blocking (Send/Recv) and nonblocking (Isend/Irecv + Wait) variants,
// wildcard receives (AnySource/AnyTag), Iprobe, Barrier, Bcast, Gather,
// Allgather, and communicator Split with isolated matching contexts. Message matching
// is non-overtaking per (source, destination, context): envelopes arrive
// in send order even when a rendezvous payload trails an eager one.
//
// Payloads are byte slices. A message may also be sent "sized" (metadata
// only): it costs the same virtual time but carries no bytes, which lets
// paper-scale benchmarks run without allocating gigabytes.
package minimpi

import (
	"fmt"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// Tag labels a message for matching. User tags must be non-negative;
// negative values are reserved for collectives.
type Tag int

// Wildcards for Recv/Irecv/Iprobe.
const (
	AnySource     = -1
	AnyTag    Tag = -1
)

// Status describes a completed request (or a probe): for a receive, the
// communicator rank it came from, its tag and its payload size in bytes; for
// a send, the destination, tag and size.
type Status struct {
	Source int
	Tag    Tag
	Size   int
	// Pooled: the payload is a pool buffer, the caller's to return
	// with World.PutPayload once consumed.
	Pooled bool
	// Canceled: the send was aborted by Cancel (MPI_Test_cancelled).
	Canceled bool
}

// World is a set of ranks sharing one interconnect.
type World struct {
	sim     *sim.Simulation
	params  netmodel.Params
	eps     []*endpoint
	nextCtx int
	// splitCtx memoizes context ids allocated by communicator splits so
	// that every member of a split arrives at the same new context.
	splitCtx map[splitKey]int
	// linkFilter, when set, decides the fate of every message (fault
	// injection). See SetLinkFilter.
	linkFilter LinkFilter
	freeReqs   sim.FreeList[Request] // recycled per-message records; see pool.go
	freeMsgs   sim.FreeList[Message]
	reqsOut    int // records handed out and not back (RecordsOut)
	msgsOut    int
	// transport carries every posted send. The default is the in-sim
	// backend (simTransport); SetTransport swaps in a socket-backed one.
	transport Transport
	inbound   inbound // frames from remote peers; see InjectRemote
}

type splitKey struct {
	parentCtx int
	gen       int
	color     int
}

// endpoint is the per-rank network attachment point. Posted receives are
// the Requests themselves (matching state lives on the Request), so
// posting a receive costs no allocation beyond its recycled Request.
type endpoint struct {
	world      *World
	rank       int // world rank
	tx, rx     *sim.Resource
	unexpected []*Message // oldest first; a window onto unexpBase's array
	unexpBase  []*Message // that array from its first slot, popped ones free
	posted     []*Request
	traffic    TrafficStats
}

// NewWorld creates a world of n ranks over the given interconnect.
func NewWorld(s *sim.Simulation, n int, params netmodel.Params) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("minimpi: world size must be positive, got %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		sim:      s,
		params:   params,
		nextCtx:  1,
		splitCtx: make(map[splitKey]int),
		freeReqs: sim.NewFreeList(&reqDepot),
		freeMsgs: sim.NewFreeList(&msgDepot),
	}
	w.transport = simTransport{w}
	w.inbound.land = w.landInbound
	for i := 0; i < n; i++ {
		w.eps = append(w.eps, &endpoint{
			world: w,
			rank:  i,
			tx:    sim.NewResource(s, fmt.Sprintf("nic%d.tx", i), 1),
			rx:    sim.NewResource(s, fmt.Sprintf("nic%d.rx", i), 1),
		})
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return len(w.eps) }

// Params returns the interconnect model.
func (w *World) Params() netmodel.Params { return w.params }

// Sim returns the simulation the world runs in.
func (w *World) Sim() *sim.Simulation { return w.sim }

// Comm attaches to the world communicator as the given rank. Multiple
// processes on one node may share a rank's Comm (all blocking calls take
// the calling process explicitly).
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= len(w.eps) {
		panic(fmt.Sprintf("minimpi: rank %d out of range [0,%d)", rank, len(w.eps)))
	}
	group := make([]int, len(w.eps))
	for i := range group {
		group[i] = i
	}
	return &Comm{world: w, ctx: 0, rank: rank, group: group}
}

// Group is a communicator context reserved at setup time for a fixed set
// of world ranks, without collective communication (the MPI analogue is
// MPI_Comm_create_group). A cluster builder uses it to give applications a
// compute-node-only communicator while daemon ranks keep serving.
type Group struct {
	world *World
	ctx   int
	ranks []int
}

// NewGroup reserves a context for the given world ranks (which must be
// distinct and valid). Call it during setup, before the simulation runs.
func (w *World) NewGroup(worldRanks []int) (*Group, error) {
	if len(worldRanks) == 0 {
		return nil, fmt.Errorf("minimpi: empty group")
	}
	seen := make(map[int]bool, len(worldRanks))
	for _, r := range worldRanks {
		if r < 0 || r >= len(w.eps) {
			return nil, fmt.Errorf("minimpi: group rank %d out of range [0,%d)", r, len(w.eps))
		}
		if seen[r] {
			return nil, fmt.Errorf("minimpi: duplicate rank %d in group", r)
		}
		seen[r] = true
	}
	g := &Group{world: w, ctx: w.nextCtx, ranks: append([]int(nil), worldRanks...)}
	w.nextCtx++
	return g, nil
}

// Comm attaches to the group's communicator as the member with the given
// world rank.
func (g *Group) Comm(worldRank int) *Comm {
	for i, r := range g.ranks {
		if r == worldRank {
			return &Comm{world: g.world, ctx: g.ctx, rank: i, group: append([]int(nil), g.ranks...)}
		}
	}
	panic(fmt.Sprintf("minimpi: world rank %d is not a member of the group", worldRank))
}

// Comm is a communicator endpoint: a (context, group, rank) triple. Ranks
// are indices into the communicator's group; the world communicator has
// context 0 and the identity group.
type Comm struct {
	world    *World
	ctx      int
	rank     int   // rank within this communicator
	group    []int // communicator rank -> world rank
	splitGen int   // per-comm Split invocation counter
	wire     WireStats
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.world }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank translates a communicator rank to its world rank.
func (c *Comm) WorldRank(rank int) int { return c.group[rank] }

// ep returns the caller's endpoint.
func (c *Comm) ep() *endpoint { return c.world.eps[c.group[c.rank]] }

// checkRank panics on an out-of-range peer rank.
func (c *Comm) checkRank(rank int, op string) {
	if rank < 0 || rank >= len(c.group) {
		panic(fmt.Sprintf("minimpi: %s: rank %d out of range [0,%d)", op, rank, len(c.group)))
	}
}
