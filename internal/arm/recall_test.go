package arm

// recall_test.go pins the ARM as one process: a replayed acquire's recall
// asks every peer at once, a server that steps down meanwhile grants
// nothing, and a killed server's calls in flight — a sanitize through the
// daemon hook, a recall — die with it.

import (
	"testing"

	"dynacc/internal/core"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// replayedAcquire is the frame of a client's failover replay of a
// non-blocking acquire of one accelerator.
func replayedAcquire(reqID, epoch uint64) []byte {
	w := wire.NewWriter(64).U8(opAcquire).U64(reqID).U64(epoch).Int(1).U8(flagReplay)
	encodeConstraint(w, Constraint{})
	return w.Bytes()
}

// replyStatus waits at comm's rank for the answer to reqID and returns its
// status.
func replyStatus(t *testing.T, p *sim.Proc, comm *minimpi.Comm, reqID uint64) uint8 {
	t.Helper()
	data, _ := comm.Recv(p, minimpi.AnySource, tagReplyBase+minimpi.Tag(reqID))
	status, _, _, err := decodeReply(data)
	if err != nil {
		t.Fatalf("reply to %d: %v", reqID, err)
	}
	return status
}

// twoShards runs the leaders of a two-shard fleet without followers: rank 0
// is a client, ranks 1 and 2 the leaders, rank 3 the daemon of every
// accelerator. Shard 1 gets no accelerator.
func twoShards(t *testing.T) (*sim.Simulation, *minimpi.World, *Directory, []*Server) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 4, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(2), []int{1, 2}, nil)
	var inv []Handle
	for id := 0; id < 8; id++ {
		if dir.OwnerOf(id) == 0 {
			inv = append(inv, Handle{ID: id, Rank: 3})
		}
	}
	var srvs []*Server
	for sh, own := range [][]Handle{inv, nil} {
		srv, err := NewServerOpts(w.Comm(1+sh), own, Options{Shard: sh, Directory: dir})
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	return s, w, dir, srvs
}

// TestAbdicatedRecallGrantsNothing: a server that steps down while its
// recall is out answers the replay statusFenced, as dispatch would, and logs
// no grant under its stale epoch.
func TestAbdicatedRecallGrantsNothing(t *testing.T) {
	s, w, dir, srvs := twoShards(t)
	w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		return minimpi.LinkVerdict{Drop: src == 1 && dst == 2} // the peer is silent to shard 0
	})
	for _, srv := range srvs {
		s.Spawn("arm", srv.Run)
	}
	const replay, claim = 1 << 30, 1<<30 + 1
	s.Spawn("cn0", func(p *sim.Proc) {
		comm := w.Comm(0)
		comm.SendCopy(1, TagRequest, replayedAcquire(replay, dir.Epoch(0)))
		p.Wait(sim.Millisecond) // the recall is out
		comm.SendCopy(1, TagRequest, wire.NewWriter(32).U8(opRelease).U64(claim).U64(dir.Epoch(0)+1).Ints(nil).Bytes())
		if st := replyStatus(t, p, comm, claim); st != statusFenced {
			t.Errorf("a higher-epoch claim answered with status %d, want statusFenced", st)
		}
		if st := replyStatus(t, p, comm, replay); st != statusFenced {
			t.Errorf("the abdicated server answered the recalled acquire with status %d, want statusFenced", st)
		}
		for sh := range srvs {
			if err := NewDirectoryClient(comm, dir).ShutdownShard(p, sh); err != nil {
				t.Errorf("shutdown shard %d: %v", sh, err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !srvs[0].Abdicated() {
		t.Fatal("the claim did not depose shard 0")
	}
	for _, e := range srvs[0].GrantLedger() {
		if e.Kind == LedgerGrant {
			t.Errorf("the abdicated server logged %v", e)
		}
	}
}

// TestRecallAsksPeersAtOnce: with both peers of a three-shard ARM silent, a
// replayed acquire at shard 0's promoted follower is answered 4 ticks after
// it arrives — one recall timeout, not one per peer.
func TestRecallAsksPeersAtOnce(t *testing.T) {
	sp := newShardPool(t, 6, 1, 3, true)
	follower := sp.dir.Follower(0)
	silent := false
	sp.w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		return minimpi.LinkVerdict{Drop: silent && src == follower && tag == TagRequest}
	})
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(sim.Millisecond)
		sp.srvs[0].Kill()
		p.Wait(30 * sim.Millisecond) // past the 20 ms promotion threshold
		if !sp.reps[0].Promoted() {
			t.Fatal("shard 0's follower did not promote")
		}
		silent = true
		const replay = 1 << 30
		start := p.Now()
		sp.w.Comm(0).SendCopy(follower, TagRequest, replayedAcquire(replay, sp.dir.Epoch(0)))
		if st := replyStatus(t, p, sp.w.Comm(0), replay); st != statusOK {
			t.Errorf("replayed acquire answered with status %d, want a grant", st)
		}
		silent = false
		if took, tick := p.Now().Sub(start), sp.reps[0].Server().tickInterval(); took < 4*tick || took > 4*tick+50*sim.Microsecond {
			t.Errorf("replayed acquire answered after %v, want 4 ticks (%v) and a round trip", took, 4*tick)
		}
	})
}

// TestKilledServerLeavesNothingBehind kills a server while a sanitize
// (daemon silent, two retries) and a recall (peer silent) are both out: the
// rank sends nothing after the kill, the calls give their records back at
// once, and the run ends without running the clock on to a deadline either
// call had armed.
func TestKilledServerLeavesNothingBehind(t *testing.T) {
	s, w, dir, srvs := twoShards(t)
	killed := false
	w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		// The daemon is dead, the peer silent to shard 0, and the killed
		// rank's host gone.
		return minimpi.LinkVerdict{Drop: dst == 3 || src == 1 && dst == 2 || killed && dst == 1}
	})
	victim := srvs[0]
	if err := victim.ConfigureHealth(HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: 4 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Timeout, opts.Retries = 10*sim.Millisecond, 2
	fe, err := core.NewClient(w.Comm(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	resets := 0
	victim.SetDaemonCaller(func(op DaemonOp, rank, client int, epoch uint64, done func(error)) *minimpi.Call {
		ac := fe.Attach(rank)
		ac.SetFence(epoch)
		if op != DaemonReset {
			return ac.ReapSessionsAsync(client, done)
		}
		resets++
		return ac.ResetAsync(done)
	})
	for _, srv := range srvs {
		s.Spawn("arm", srv.Run)
	}
	const acquire, replay = 1 << 30, 1<<30 + 1
	var killAt, recallAt sim.Time
	var sent int64
	s.Spawn("cn0", func(p *sim.Proc) {
		comm := w.Comm(0)
		frame := wire.NewWriter(64).U8(opAcquire).U64(acquire).U64(dir.Epoch(0)).Int(1).U8(0)
		encodeConstraint(frame, Constraint{})
		comm.SendCopy(1, TagRequest, frame.Bytes())
		if st := replyStatus(t, p, comm, acquire); st != statusOK {
			t.Fatalf("acquire answered with status %d", st)
		}
		p.Wait(100 * sim.Microsecond) // the reply's flight is over
		baseReqs, baseMsgs := w.RecordsOut()
		comm.Recv(p, 1, TagNotify) // the lease lapses: revoked, then sanitized
		p.Wait(200 * sim.Microsecond)
		recallAt = p.Now()
		comm.SendCopy(1, TagRequest, replayedAcquire(replay, dir.Epoch(0)))
		p.Wait(300 * sim.Microsecond)
		if reqs, _ := w.RecordsOut(); resets != 1 || reqs != baseReqs+2 {
			t.Fatalf("%d resets and %d requests out (%d before), want a sanitize and a recall in flight", resets, reqs, baseReqs)
		}
		sent = w.Traffic(1).MsgsSent
		killed, killAt = true, p.Now()
		victim.Kill()
		// As before the calls, less the killed server's own posted receive.
		if reqs, msgs := w.RecordsOut(); reqs != baseReqs-1 || msgs != baseMsgs {
			t.Errorf("records out after the kill: %d requests, %d messages; want %d and %d, as before the calls less the server's receive", reqs, msgs, baseReqs-1, baseMsgs)
		}
		if err := NewDirectoryClient(comm, dir).ShutdownShard(p, 1); err != nil {
			t.Errorf("shutdown shard 1: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.Traffic(1).MsgsSent; n != sent {
		t.Errorf("the killed rank sent %d messages after the kill", n-sent)
	}
	// The last events are the ticks the shards had queued before they
	// stopped; the recall's deadline, the earliest the calls had armed,
	// is 4 ticks after it was issued.
	if end := s.Now(); end > killAt.Add(2*sim.Millisecond) || end >= recallAt.Add(4*sim.Millisecond) {
		t.Errorf("run ended at %v, %v after the kill: a deadline of the killed server's calls ran the clock on", sim.Duration(end), end.Sub(killAt))
	}
}
