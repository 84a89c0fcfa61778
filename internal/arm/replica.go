package arm

// replica.go replicates a shard leader's lease/ownership/session table
// to a follower by log shipping over the existing wire protocol
// (TagReplicate), so an ARM crash no longer strands leases. The stream
// is simple effect-record shipping rather than an operation log: after
// every handled request and every detector tick the leader sends its
// full per-accelerator state (id, rank, accel.wire's state and drain,
// holder ranks, capability) plus the replies issued since the last
// shipment. At the simulated fleet's scale a shard owns a handful of
// accelerators, so a full snapshot costs less than the bookkeeping a
// diff protocol would need, and it is trivially idempotent.
//
// The follower applies the stream silently. Silence on the stream for
// PromoteAfter (the PR 2 failure detector threshold, DeadAfter by
// default) means the leader is dead: the follower flips the shared
// Directory to itself, re-arms every replicated lease with a fresh TTL
// (grace for holders to re-resolve and renew), grants every daemon a
// fresh heartbeat budget, and enters the normal Server loop. Clients
// re-resolve via the directory and replay in-flight requests with their
// original reqIDs; the shipped reply records let the promoted follower
// answer already-executed requests from cache instead of executing them
// twice.
//
// What is deliberately NOT replicated (documented in DESIGN.md §11):
// queued blocking acquires (clients replay them), lease expiry times
// (re-armed fresh on promotion), and the utilization counters
// (BusySeconds and friends restart from zero after a failover).

import (
	"cmp"
	"fmt"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// ship sends the current state snapshot and pending reply records to the
// follower. A no-op without one; called after every request, detector
// tick, and daemon call completion that can mutate state, and once per
// shard tick as a liveness beat even when idle.
func (s *Server) ship() {
	if s.followerRank < 0 || s.closed || s.abdicated {
		return
	}
	s.repSeq++
	w := s.scratch.Reset().U64(s.repSeq).Int(len(s.accels))
	for _, a := range s.accels {
		st, fl := a.wire()
		w.Int(a.id).Int(a.rank).U8(st).U8(fl).Int(len(a.holders))
		for _, h := range a.holders {
			w.Int(h.rank)
		}
		// The capability, so a promoted follower keeps making class-aware
		// placement and migration decisions.
		encodeCapability(w, a.cap)
	}
	// The replies recorded since the last shipment, encoded as they were.
	w.Int(s.repN).Raw(s.repW.Bytes())
	s.repN = 0
	s.repW.Reset()
	s.comm.SendCopy(s.followerRank, TagReplicate, w.Bytes())
}

// Replica is a shard follower: it applies the leader's replication
// stream and promotes itself into a serving Server when the stream goes
// silent.
type Replica struct {
	srv          *Server
	dir          *Directory
	shard        int
	promoteAfter sim.Duration
	promoted     bool
	stream       minimpi.Waiter // on Req: the stream receive, under the silence threshold
}

// ReplicaFor builds the follower replica for the given shard. The
// embedded server is constructed exactly as the leader's (same
// inventory, options, and directory) but stays passive until promotion.
// promoteAfter is the stream-silence threshold; <= 0 uses the health
// config's DeadAfter, falling back to the default health config's.
func ReplicaFor(comm *minimpi.Comm, dir *Directory, shard int, inventory []Handle, opts Options, promoteAfter sim.Duration) (*Replica, error) {
	opts.Directory = dir
	opts.Shard = shard
	if dir.Follower(shard) != comm.Rank() {
		return nil, fmt.Errorf("arm: replica rank %d is not shard %d's follower %d",
			comm.Rank(), shard, dir.Follower(shard))
	}
	srv, err := NewServerOpts(comm, inventory, opts)
	if err != nil {
		return nil, err
	}
	return &Replica{srv: srv, dir: dir, shard: shard, promoteAfter: max(promoteAfter, 0)}, nil
}

// Server exposes the embedded server so the cluster can configure health
// and the daemon hook on it before promotion ever happens.
func (rp *Replica) Server() *Server { return rp.srv }

// Promoted reports whether the replica has taken over its shard.
func (rp *Replica) Promoted() bool { return rp.promoted }

// Stop shuts down an un-promoted standby at teardown: its Kill cancels the
// stream wait, deadline and receive, so nothing can promote it or run the
// clock on. A promoted replica is shut down through the Shutdown op instead.
func (rp *Replica) Stop() {
	if !rp.promoted {
		rp.srv.Kill()
	}
}

// Run applies the replication stream until the leader goes silent, then
// promotes and serves. Spawn it as the follower rank's process, and Stop an
// un-promoted replica at teardown (the cluster does). Until the promotion p
// is suspended, and the legs of follow apply the snapshots.
func (rp *Replica) Run(p *sim.Proc) {
	s := rp.srv
	s.mainProc = p
	s.waits = append(s.waits, &rp.stream)
	// Health is off (a zero DeadAfter) unless ConfigureHealth ran.
	rp.promoteAfter = cmp.Or(rp.promoteAfter, s.health.DeadAfter, DefaultHealthConfig().DeadAfter)
	follow(rp)
	p.Suspend("following the leader's stream")
	rp.promoted = true
	rp.dir.Promote(rp.shard)
	// Serve under the epoch the promotion just minted: every grant,
	// gossip message, and fencer RPC from here on carries it.
	s.myEpoch = rp.dir.Epoch(rp.shard)
	rp.rearm()
	rp.promoteAfter = 0 // a deposed leader ships until it learns: read it all
	follow(rp)
	s.Run(p)
	rp.stream.Cancel()
}

// follow is the wait on the stream, a leg per snapshot: apply the one in and
// wait for the next under the silence threshold — or, the leader silent past
// it, withdraw the receive and resume Run to take over. Once promoted, it
// drops what comes in and waits with no threshold.
func follow(v any) {
	rp := v.(*Replica)
	if req := rp.stream.Req; req != nil {
		if !req.Completed() {
			rp.stream.Cancel()
			rp.srv.mainProc.Resume()
			return
		}
		data, st := req.Result()
		if !rp.promoted {
			rp.apply(data)
		}
		rp.srv.comm.World().PutPayload(data, st) // apply copied what it keeps
	}
	rp.stream.Req = rp.srv.comm.Irecv(rp.dir.Leader(rp.shard), TagReplicate)
	if rp.stream.Await(rp.promoteAfter, follow, rp) {
		follow(rp)
	}
}

// apply replays one shipped snapshot into the passive server state, in
// place: each listed accelerator is updated where it stands and marked with
// the snapshot, and the unmarked ones are swept out. Nothing iterates the
// inventory of a follower that has not promoted, so the sweep needs no copy.
func (rp *Replica) apply(data []byte) {
	s := rp.srv
	r := wire.NewReader(data)
	r.U64() // seq: the stream is ordered and complete in-sim; kept for debugging
	n := r.Int()
	if r.Err() != nil {
		return
	}
	s.mark++
	for i := 0; i < n; i++ {
		id := r.Int()
		rank := r.Int()
		code, fl := r.U8(), r.U8()
		s.ids = r.AppendInts(s.ids[:0])
		cap, err := decodeCapability(r)
		if err != nil {
			return
		}
		state, ok := unwire(code, fl)
		if !ok {
			if strict {
				panic(fmt.Sprintf("arm: snapshot names state %d, flags %d for accelerator %d", code, fl, id))
			}
			return
		}
		a := s.byID[id]
		if a == nil {
			// Elastic grow on the leader: mirror the registration.
			a = &accel{id: id}
			s.accels = append(s.accels, a)
			s.byID[id] = a
		}
		a.rank = rank
		a.state = state
		a.cap = cap
		switch {
		case fl&1 == 0:
			a.drain = nil
		case a.drain == nil:
			a.drain = &drainWait{src: -1, remove: fl&2 != 0}
		default:
			a.drain.remove = fl&2 != 0
		}
		a.holders = a.holders[:0]
		for _, rk := range s.ids {
			a.hold(rk, 0) // leases re-arm at promotion
		}
		a.mark = s.mark
	}
	// Elastic shrink on the leader: drop accelerators it no longer has.
	kept := s.accels[:0]
	for _, a := range s.accels {
		if a.mark == s.mark {
			kept = append(kept, a)
		} else {
			delete(s.byID, a.id)
		}
	}
	clear(s.accels[len(kept):])
	s.accels = kept
	nr := r.Int()
	for i := 0; i < nr; i++ {
		dst := r.Int()
		reqID := r.U64()
		msg := r.Blob()
		if r.Err() != nil {
			return
		}
		s.replies.Record(minimpi.ReplyKey{Src: dst, ReqID: reqID}, msg) // the cache copies msg
	}
}

// rearm gives the replicated leases a fresh TTL so surviving holders get
// a full budget to re-resolve and renew after the failover, and fences
// the shard's daemons under the new epoch (DESIGN.md §12).
//
// Fencing happens on two paths, both before the promoted leader can
// grant anything from the free pool:
//   - every daemon rank the shard knows gets a fencer RPC carrying the
//     new epoch, so tokens minted by the deposed leader are rejected
//     from the moment the RPC lands;
//   - every free accelerator is marked dirty and routed through
//     sanitize-before-reuse, so it re-enters the pool only after a
//     fence-tokened device reset completes. A grant therefore cannot
//     precede the fence on its own daemon even if the broadcast RPC to
//     that rank is still in flight.
//
// Carried-over assigned/shared holds are re-opened in the grant ledger
// under the new epoch: the holder kept the device across the failover,
// and the checker must see the continuation rather than an unexplained
// live hold from a dead epoch.
func (rp *Replica) rearm() {
	s := rp.srv
	lease := s.leaseExpiry()
	fenced := make(map[int]bool)
	for _, a := range s.accels {
		if s.daemon != nil && !fenced[a.rank] {
			fenced[a.rank] = true
			s.callDaemon(DaemonFence, a.rank, s.comm.Rank(), nil)
		}
		kind := LedgerGrant
		if a.state != acAssigned {
			kind = LedgerGrantShared
		}
		for i := range a.holders {
			a.holders[i].expiry = lease
			s.logHold(a, a.holders[i].rank, kind)
		}
		// A sanitize that was in flight on the dead leader is lost with
		// it: restart it. The free pool waits behind a fence-tokened reset
		// when sanitize-before-reuse is available, and returns to service
		// once its daemon provably rejects stale tokens.
		if a.state == acReclaiming || a.state == acFree && s.healthOn && s.daemon != nil {
			s.transition(a, evPromote, -1)
		}
	}
}
