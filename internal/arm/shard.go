package arm

// shard.go is the server side of the sharded ARM:
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
// recorded answer instead of a second execution; a replayed acquire asks
// the peers too (recall), in case the dead leader had forwarded it.
//
// A lone manager is the one-shard, no-follower directory: the peer loops
// below run zero times, and Directory.replayable says no replay can come,
// so nothing is recorded for one.

import (
	"slices"

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

// Kill simulates a crash of this ARM rank: the server stops processing,
// its detector and gossip ticks go silent (which is what the follower's
// promotion timer and the clients' failover timeouts key on), and every
// call in flight dies with it: no resend, no outcome, no deadline left.
func (s *Server) Kill() {
	s.closed = true
	for _, w := range s.waits {
		w.Cancel()
	}
	if s.mainProc != nil && !s.mainProc.Terminated() {
		s.mainProc.Kill()
	}
}

// untrack takes a wait that is over off the list Kill cancels.
func (s *Server) untrack(w *minimpi.Waiter) {
	s.waits = slices.DeleteFunc(s.waits, func(x *minimpi.Waiter) bool { return x == w })
}

// Closed reports whether the server has shut down or been killed.
func (s *Server) Closed() bool { return s.closed }

// EndRun hands the reply cache's ring and map to the OS process's depot
// once the simulation is over (see minimpi.World.Close). It stops nothing.
func (s *Server) EndRun() { s.replies.Close() }

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

// forwardOp relays a client's request, op and body, to the owning shard.
// The owner executes it as if the client had sent it there (same client
// rank, same reqID) and replies straight to the client. The header's epoch
// is the forwarder's directory view of the owner's: a deposed owner that
// somehow still receives the forward steps down.
func (s *Server) forwardOp(owner int, src int, reqID uint64, op uint8, body []byte) {
	w := s.scratch.Reset().U8(opForward).U64(reqID).U64(s.dir.Epoch(owner)).Int(src).U8(op).Raw(body)
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
	w := s.body.Reset().Int(req.n).U8(flag(req.shared, flagShared)) // non-blocking at the peer
	encodeConstraint(w, c)
	s.forwardOp(best, req.src, req.reqID, opAcquire, w.Bytes())
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

// recall serves a replayed acquire on a freshly promoted shard: the dead
// leader may have forwarded the original to a peer that granted it, so each
// peer is asked at once (opRecall, a call on the client engine) for a cached
// answer before anything executes, or a lease could be granted twice. A
// peer silent for 4 ticks cannot have granted recently. The calls start in a
// leg where the helper process they replaced started; after the last one, a
// cached answer is relayed and recorded for further replays, or else the
// acquire executes — unless the server stepped down meanwhile, which answers
// statusFenced as dispatch does.
func (s *Server) recall(req pendingAcquire, blocking bool) {
	left, relay := s.dir.Shards(), []byte(nil) // shards yet to count out, this one included
	recalled := func(cl *armCall) {
		if cl != nil { // a peer's answer (an asynchronous call's frame is kept), or its silence
			s.untrack(&cl.Waiter)
			cl.Cancel()
			if cached := cl.frame.Bytes(); cl.err == nil && len(cached) > 0 && relay == nil {
				relay = cached
			}
		}
		if left--; left > 0 || s.closed {
			return
		}
		switch {
		case relay != nil:
			cached := s.replies.Record(minimpi.ReplyKey{Src: req.src, ReqID: req.reqID}, relay)
			s.comm.SendCopy(req.src, tagReplyBase+minimpi.Tag(req.reqID), cached)
		case s.abdicated:
			s.reply(req.src, req.reqID, statusFenced, nil)
		default:
			s.acquire(&req, blocking)
		}
		s.ship()
	}
	s.sim.After(0, func() {
		if s.asker == nil {
			s.asker = NewDirectoryClient(s.comm, s.dir)
			s.asker.SetFailover(4*s.tickInterval(), 0)
			s.asker.nextReq = 1 << 32 // disjoint from a client's on this rank
		}
		for sh := 0; sh < s.dir.Shards() && !s.closed; sh++ {
			if sh != s.shard {
				args := func(w *wire.Writer) { w.Int(req.src).U64(req.reqID) }
				s.waits = append(s.waits, &s.asker.start(sh, opRecall, args, recalled).Waiter)
			}
		}
		recalled(nil) // this shard counts out
	})
}

// removeAccel drops an accelerator from the inventory. Copy-on-write:
// detector passes may be mid-iteration over the old slice, which stays
// valid (the removed accelerator is out of service, where the detector's
// events leave it be).
func (s *Server) removeAccel(a *accel) {
	delete(s.byID, a.id)
	out := make([]*accel, 0, len(s.accels))
	for _, b := range s.accels {
		if b != a {
			out = append(out, b)
		}
	}
	s.accels = out
}
