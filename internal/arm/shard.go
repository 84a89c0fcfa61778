package arm

// shard.go is the server side of the sharded ARM (ISSUE 6 tentpole):
// accelerator ownership is partitioned across N shard leaders by the
// consistent-hash ring in the shared Directory. A request that lands on
// the wrong shard is forwarded to the owner in one extra hop — the owner
// replies straight to the client, whose sharded reply Irecv matches any
// source, so there is no relay on the return path and a forwarder's
// crash can never swallow a reply. Acquires the local pool cannot
// satisfy fall back to the least-loaded peer, chosen from opLoad gossip
// (per-shard free/operational counts exchanged every tick).
//
// Failure handling rides on the reply-dedup cache: every reply is
// recorded by (client, reqID), so a client replaying an in-flight
// request after a leader death (see replica.go for promotion) gets the
// recorded answer instead of a second execution. A replayed acquire on a
// freshly promoted follower additionally recalls the peers (opRecall)
// before executing, closing the window where the dead leader had
// forwarded the original to a peer that granted it.
//
// A lone manager is the one-shard, no-follower directory: the peer loops
// below run zero times, and Directory.replayable says no replay can come,
// so nothing is recorded for one.

import (
	"fmt"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// shardTickInterval is the gossip/replication beat cadence when the
// health subsystem (whose HeartbeatInterval otherwise sets the pace) is
// off.
const shardTickInterval = sim.Millisecond

// dedupKeep is the reply cache's window per rank of the world: a server
// remembers its last dedupKeep × comm.Size() replies, FIFO (DESIGN.md §11
// says why that is enough).
const dedupKeep = 64

// spawnTracked spawns a helper process that is killed along with the
// server by Kill, so a simulated crash takes down the whole rank — main
// loop, sanitizers, reapers, recalls — exactly as a real process death
// would.
func (s *Server) spawnTracked(name string, fn func(p *sim.Proc)) {
	s.spawned = append(s.spawned, s.sim.Spawn(name, fn))
}

// Kill simulates a crash of this ARM rank: the server stops processing,
// its detector and gossip ticks go silent (which is what the follower's
// promotion timer and the clients' failover timeouts key on), and every
// helper process dies with it. Used by chaos tests via the cluster's
// KillARMShard.
func (s *Server) Kill() {
	s.closed = true
	for _, p := range s.spawned {
		if !p.Terminated() {
			p.Kill()
		}
	}
	if s.mainProc != nil && !s.mainProc.Terminated() {
		s.mainProc.Kill()
	}
}

// Closed reports whether the server has shut down or been killed.
func (s *Server) Closed() bool { return s.closed }

// tickInterval is the shard gossip/beat cadence.
func (s *Server) tickInterval() sim.Duration {
	if s.healthOn && s.health.HeartbeatInterval > 0 {
		return s.health.HeartbeatInterval
	}
	return shardTickInterval
}

// scheduleShardTick re-arms the gossip/replication beat until shutdown
// or step-down (an abdicated server neither gossips nor ships).
func (s *Server) scheduleShardTick() { s.sim.AfterCall(s.tickInterval(), shardTick, s) }

func shardTick(v any) {
	if s := v.(*Server); !s.closed && !s.abdicated {
		s.gossip()
		s.ship()
		s.scheduleShardTick()
	}
}

// encodeLoad builds one gossip message for a peer: the header's epoch
// is the sender's directory view of the *receiver's* shard epoch (the
// receiver steps down if it is serving under a lower one); the body is
// the sender's shard, the epoch it claims for itself (so the receiver can
// rebuff a deposed sender) and its per-class load table.
func (s *Server) encodeLoad(targetEpoch uint64) []byte {
	loads := s.classLoads()
	w := s.scratch.Reset()
	w.U8(opLoad).U64(0).U64(targetEpoch).Int(s.shard).U64(s.myEpoch).Int(len(loads))
	for _, l := range loads {
		w.Str(l.class).Int(l.free).Int(l.oper)
	}
	return w.Bytes()
}

// gossip broadcasts this shard's load to its peers (fire and forget).
func (s *Server) gossip() {
	for sh := 0; sh < s.dir.Shards(); sh++ {
		if sh != s.shard {
			s.comm.SendCopy(s.dir.Serving(sh), TagRequest, s.encodeLoad(s.dir.Epoch(sh)))
		}
	}
}

// handleLoad records one peer's gossiped load. A sender claiming an
// epoch below its shard's current one is a deposed leader that has not
// heard about its own succession (the partition healed, but nothing
// routes traffic to it anymore): rebuff it with one gossip message sent
// straight back at its rank, whose header carries the epoch it is missing
// so it steps down.
func (s *Server) handleLoad(src int, r *wire.Reader) {
	sh, senderEpoch, nc := r.Int(), r.U64(), r.Int()
	if r.Err() != nil || sh < 0 || sh >= len(s.peers) || sh == s.shard ||
		nc < 0 || nc > r.Remaining()/20 { // a row is >= 20 bytes
		return
	}
	peer := &s.peers[sh]
	peer.seen, peer.free, peer.oper = true, 0, 0
	clear(peer.classFree)
	clear(peer.classOper)
	for i := 0; i < nc && r.Err() == nil; i++ {
		cl, free, oper := r.Str(), r.Int(), r.Int()
		peer.classFree[cl], peer.classOper[cl] = free, oper
		peer.free += free
		peer.oper += oper
	}
	if !s.abdicated && senderEpoch < s.dir.Epoch(sh) {
		s.comm.SendCopy(src, TagRequest, s.encodeLoad(s.dir.Epoch(sh)))
	}
}

// gossipComplete reports whether every peer has gossiped at least once —
// the precondition for trusting a cluster-wide "impossible" verdict.
func (s *Server) gossipComplete() bool {
	for sh, peer := range s.peers {
		if sh != s.shard && !peer.seen {
			return false
		}
	}
	return true
}

// foreignOwner decides whether a request naming these accelerator ids
// must be forwarded: true with the owning shard when every id belongs to
// the same non-local shard. Mixed-shard batches are left to local
// validation (the sharded client splits batches per shard, so a mixed
// batch here is already a malformed request and fails on the unknown
// ids).
func (s *Server) foreignOwner(ids []int, forwarded bool) (int, bool) {
	if forwarded || len(ids) == 0 {
		return 0, false
	}
	owner := s.dir.OwnerOf(ids[0])
	for _, id := range ids[1:] {
		if s.dir.OwnerOf(id) != owner {
			return 0, false
		}
	}
	if owner == s.shard {
		return 0, false
	}
	return owner, true
}

// forwardOp relays a client's request to the owning shard. The owner
// executes it as if the client had sent it there (same client rank, same
// reqID) and replies straight to the client. The header's epoch is the
// forwarder's directory view of the owner's: a deposed owner that
// somehow still receives the forward steps down.
func (s *Server) forwardOp(owner int, src int, reqID uint64, op uint8, args func(w *wire.Writer)) {
	w := s.scratch.Reset()
	args(w.U8(opForward).U64(reqID).U64(s.dir.Epoch(owner)).Int(src).U8(op))
	s.comm.SendCopy(s.dir.Serving(owner), TagRequest, w.Bytes())
}

// forwardAcquire tries to hand an acquire the local pool cannot satisfy
// to the least-loaded peer (most gossiped free accelerators). Reports
// whether a forward was issued; the peer replies directly to the client.
func (s *Server) forwardAcquire(req *pendingAcquire) bool {
	// A class-constrained request judges peers by their gossiped per-class
	// free counts, and a replacement travels constrained to the replaced
	// device's class — the peer cannot see what it replaces. (A kernel-only
	// constraint cannot be evaluated remotely — gossip carries classes, not
	// kernel tables — so it goes by the total free count and the peer
	// gives the final verdict.)
	c := req.constraint
	if req.replaces != nil && c.Class == "" {
		c.Class = req.replaces.cap.Class
	}
	best, bestFree := -1, 0
	for sh, peer := range s.peers {
		free := peer.free
		if c.Class != "" {
			free = peer.classFree[c.Class]
		}
		if sh != s.shard && free > bestFree {
			best, bestFree = sh, free
		}
	}
	if best < 0 || bestFree < req.n {
		return false
	}
	// Optimistically decay the gossiped count so a burst of local misses
	// spreads across peers instead of dogpiling the same one until the
	// next gossip tick corrects it.
	s.peers[best].free -= req.n
	s.peers[best].classFree[c.Class] -= req.n
	s.forwardOp(best, req.src, req.reqID, opAcquire, func(w *wire.Writer) {
		encodeConstraint(w.Int(req.n).U8(flag(req.shared, flagShared)), c) // non-blocking at the peer
	})
	return true
}

// handleRecall answers a peer's dedup query: did this shard already
// answer (client, origReqID)? The cached reply travels back verbatim so
// the asking shard can relay it unchanged.
func (s *Server) handleRecall(src int, reqID uint64, r *wire.Reader) {
	client := r.Int()
	origReqID := r.U64()
	if r.Err() != nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	if cached := s.replies.Lookup(minimpi.ReplyKey{Src: client, ReqID: origReqID}); cached != nil {
		s.reply(src, reqID, statusOK, cached)
		return
	}
	s.reply(src, reqID, statusUnavailable, nil)
}

// recallThenAcquire serves a replayed acquire on a freshly promoted
// shard: the dead leader may have forwarded the original request to a
// peer that granted it, so ask every peer for a cached answer before
// executing. Without this, a replay could be granted twice (once by the
// peer, once here), stranding a lease the client never learns about.
// Runs in its own process — peers answer in bounded time, and the main
// loop keeps serving meanwhile.
func (s *Server) recallThenAcquire(req pendingAcquire, blocking bool) {
	s.spawnTracked(fmt.Sprintf("arm-recall-cn%d-req%d", req.src, req.reqID), func(p *sim.Proc) {
		timeout := 4 * s.tickInterval()
		for sh := 0; sh < s.dir.Shards(); sh++ {
			if sh == s.shard {
				continue
			}
			s.fwdSeq++
			id := s.fwdSeq
			peer := s.dir.Serving(sh)
			resp := s.comm.Irecv(peer, tagReplyBase+minimpi.Tag(id))
			w := s.scratch.Reset().U8(opRecall).U64(id).U64(s.dir.Epoch(sh)).Int(req.src).U64(req.reqID)
			s.comm.SendCopy(peer, TagRequest, w.Bytes())
			data, _, ok := resp.WaitTimeout(p, timeout)
			if !ok {
				resp.Cancel()
				continue // peer silent; it cannot have granted recently
			}
			status, _, cached, err := decodeReply(data)
			if err == nil && status == statusOK && len(cached) > 0 {
				// A peer already answered this request: relay its reply
				// verbatim and record it here for any further replays.
				cached = s.replies.Record(minimpi.ReplyKey{Src: req.src, ReqID: req.reqID}, cached)
				resp.Free()
				s.comm.SendCopy(req.src, tagReplyBase+minimpi.Tag(req.reqID), cached)
				s.ship()
				return
			}
			resp.Free()
		}
		if s.closed {
			return
		}
		// Nobody answered it before: execute fresh.
		s.acquire(&req, blocking)
		s.ship()
	})
}

// register admits a new accelerator into the live inventory (elastic
// grow). The daemon is granted a full heartbeat silence budget from now.
func (s *Server) register(src int, reqID uint64, id, rank int, cap Capability) {
	if _, dup := s.byID[id]; dup {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	a := &accel{id: id, rank: rank, state: acFree, cap: cap}
	s.accels = append(s.accels, a)
	s.byID[id] = a
	if s.lastBeat != nil {
		s.lastBeat[rank] = s.now()
	}
	s.reply(src, reqID, statusOK, nil)
	s.drainQueue()
}

// retireRemove drains an accelerator and removes it from the inventory
// (elastic shrink). The reply semantics are opDrain's — delayed until the
// accelerator is out of service — and the removal happens at that same
// moment, so a completed Retire guarantees zero stranded leases on the
// departed accelerator.
func (s *Server) retireRemove(src int, reqID uint64, id int, deadline sim.Duration) {
	a, ok := s.byID[id]
	if !ok || a.drainer != nil {
		s.reply(src, reqID, statusBadRequest, nil)
		return
	}
	a.removing = true
	s.drain(src, reqID, id, deadline)
	if a.state == acRetired {
		// Drain settled immediately (the accelerator was already idle or
		// out of service); the deferred paths remove via settleDrainer.
		s.removeAccel(a)
	}
}

// removeAccel drops an accelerator from the inventory. Copy-on-write:
// detector passes may be mid-iteration over the old slice, which stays
// valid (the removed accelerator is retired, so every lifecycle check
// treats it as a no-op).
func (s *Server) removeAccel(a *accel) {
	a.removing = false
	delete(s.byID, a.id)
	out := make([]*accel, 0, len(s.accels))
	for _, b := range s.accels {
		if b != a {
			out = append(out, b)
		}
	}
	s.accels = out
}
