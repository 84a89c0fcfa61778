package arm

// directory.go is the shard directory: the small piece of shared
// metadata that maps an accelerator id to the MPI rank currently serving
// its shard. Servers use it to forward requests to the owning peer;
// clients use it to pick a home shard and to re-resolve after a shard
// leader dies and its follower is promoted. In the simulator the
// directory is a single in-memory object shared by every participant
// (the moral equivalent of the paper's cluster frontend), so a promotion
// becomes visible to all clients at their next lookup — there is no
// directory replication protocol to model.

// Directory tracks, per shard, the leader rank, the optional follower
// rank, which of the two is currently serving, and the shard's
// leadership epoch. Epochs start at 1 (0 only in SingleDirectory, whose
// lone manager takes no part in fencing) and are bumped on every
// promotion; they are the fencing tokens the rest of the system carries
// (DESIGN.md §12): a server that observes an epoch above its own for
// its shard knows it has been deposed, and a daemon that observes an
// epoch above a request's token knows the requester's lease is stale.
type Directory struct {
	ring      *Ring
	leaders   []int
	followers []int // -1 when the shard has no replica
	serving   []int // leaders[i] until Promote(i)
	promoted  []bool
	epochs    []uint64 // leadership epoch per shard, starts at 1
}

// NewDirectory builds a directory over ring with the given leader ranks.
// followers may be nil (no replication) or must match len(leaders); a
// follower rank of -1 marks an unreplicated shard.
func NewDirectory(ring *Ring, leaders, followers []int) *Directory {
	if len(leaders) != ring.Shards() {
		panic("arm: directory leader count does not match ring shards")
	}
	if followers != nil && len(followers) != len(leaders) {
		panic("arm: directory follower count does not match leaders")
	}
	d := &Directory{
		ring:      ring,
		leaders:   leaders,
		followers: followers,
		serving:   make([]int, len(leaders)),
		promoted:  make([]bool, len(leaders)),
		epochs:    make([]uint64, len(leaders)),
	}
	for i := range d.epochs {
		d.epochs[i] = 1
	}
	if d.followers == nil {
		d.followers = make([]int, len(leaders))
		for i := range d.followers {
			d.followers[i] = -1
		}
	}
	copy(d.serving, leaders)
	return d
}

// SingleDirectory is the degenerate directory of a lone manager: one
// shard led by rank, no follower, and epoch 0 — its grants carry no
// fencing token, since nobody can succeed it. NewClient and NewServer
// build one each; the cluster shares one between its server, clients,
// daemons' heartbeat sinks and teardown.
func SingleDirectory(rank int) *Directory {
	d := NewDirectory(NewRing(1), []int{rank}, nil)
	d.epochs[0] = 0
	return d
}

// replayable reports whether a replay of a request sent to shard can
// reach a server: a peer that may have been forwarded the original, or a
// follower that may take over, exists. It is the one thing a lone manager
// is asked about itself, and it decides only what is *kept* — replies for
// dedup, a beat to send them on — never what a frame looks like. Where it
// is false the server executes every request (several clients on one rank
// may each count reqIDs from 1) and queues blocking acquires itself.
func (d *Directory) replayable(shard int) bool {
	return len(d.leaders) > 1 || d.followers[shard] >= 0
}

// Shards returns the shard count.
func (d *Directory) Shards() int { return len(d.leaders) }

// Ring returns the ownership ring.
func (d *Directory) Ring() *Ring { return d.ring }

// OwnerOf returns the shard index owning accelerator id. Allocation-free.
func (d *Directory) OwnerOf(id int) int { return d.ring.Owner(id) }

// RankFor returns the rank currently serving accelerator id's shard.
// Allocation-free: this is the client-side routing hot path.
func (d *Directory) RankFor(id int) int { return d.serving[d.ring.Owner(id)] }

// Leader returns shard's leader rank.
func (d *Directory) Leader(shard int) int { return d.leaders[shard] }

// Follower returns shard's follower rank, or -1.
func (d *Directory) Follower(shard int) int { return d.followers[shard] }

// Serving returns the rank currently serving shard.
func (d *Directory) Serving(shard int) int { return d.serving[shard] }

// Promoted reports whether shard has failed over to its follower.
func (d *Directory) Promoted(shard int) bool { return d.promoted[shard] }

// Epoch returns shard's current leadership epoch (1 until the first
// promotion, strictly increasing after).
func (d *Directory) Epoch(shard int) uint64 { return d.epochs[shard] }

// Promote switches shard's serving rank to its follower and mints the
// next leadership epoch. Idempotent in who serves but not in the epoch:
// every successful call bumps it, keeping the sequence strictly
// monotonic no matter how promotions interleave with partitions.
// Returns false if the shard has no follower to promote.
func (d *Directory) Promote(shard int) bool {
	if d.followers[shard] < 0 {
		return false
	}
	d.serving[shard] = d.followers[shard]
	d.promoted[shard] = true
	d.epochs[shard]++
	return true
}
