package faults_test

// Split-brain chaos: the replication link between one shard's leader and
// its follower is severed mid-storm — not killed, severed, so BOTH
// servers stay alive and both believe they lead. The follower promotes
// off the silent stream and fences every daemon of the shard; the old
// leader keeps granting into the partition until a fenced daemon RPC
// (sanitize or session reap under a stale token) forces it to step
// down. After the run the test merges the grant ledgers of every server
// that ever led — including the deposed one — and replays them against
// the daemons' fencing logs: the checker must prove that no accelerator
// was exclusively usable by two holders over overlapping virtual-time
// intervals. CHAOS_PARTITION picks the partition shape (sym: both
// directions cut; asym: only leader→follower cut, so the follower's
// packets still reach the deposed leader) and CI sweeps it alongside
// ARM_SHARDS and CHAOS_SEED.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/sim"
)

// chaosPartition returns the partition shape, from CHAOS_PARTITION when
// set: "sym" severs both directions of the leader↔follower link, "asym"
// only the leader→follower direction.
func chaosPartition(t *testing.T) string {
	switch v := os.Getenv("CHAOS_PARTITION"); v {
	case "", "sym":
		return "sym"
	case "asym":
		return "asym"
	default:
		t.Fatalf("bad CHAOS_PARTITION %q (want sym or asym)", v)
		return ""
	}
}

// leaseLost reports whether err is one of the expected casualties of
// the partition: a fenced token, an acquire that timed out while the
// pool was split, or device/session state yanked by a quarantine reset
// (the promoted leader's fence-tokened sanitize wipes device memory
// under holders whose leases were minted by the deposed leader, so
// their pointers dangle).
func leaseLost(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, arm.ErrFenced) ||
		errors.Is(err, arm.ErrAcquireTimeout) ||
		errors.Is(err, arm.ErrUnavailable) ||
		errors.Is(err, arm.ErrBadRequest) ||
		errors.Is(err, core.ErrFenced) ||
		errors.Is(err, core.ErrNoSession) ||
		errors.Is(err, core.ErrNotOwner) ||
		strings.Contains(err.Error(), "invalid device pointer")
}

func TestChaosPartitionSplitBrain(t *testing.T) {
	const (
		tenants      = 6
		accelerators = 6
		rounds       = 14
		partitionAt  = 15 * sim.Millisecond
		healAt       = 45 * sim.Millisecond
		promoteAfter = 10 * sim.Millisecond
		leaseTTL     = 30 * sim.Millisecond
	)
	shards := armShards(t)
	mode := chaosPartition(t)
	opts := chaosOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	// SuspectAfter/DeadAfter stay zero: the deposed leader must discover
	// its deposition through a *fenced* daemon RPC, and the lease-expiry
	// path (reclaim → sanitize / reap under a stale token) is the one
	// that guarantees such an RPC. A silence-based dead-marking would
	// let it park failed accelerators without ever touching a daemon.
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		LeaseTTL:          leaseTTL,
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:    tenants,
		Accelerators:    accelerators,
		Fleet:           chaosFleet(accelerators),
		Execute:         true,
		Options:         &opts,
		Health:          &hc,
		ShareCapacity:   2,
		ARMShards:       shards,
		ARMReplicas:     true,
		ARMPromoteAfter: promoteAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.Directory().OwnerOf(0)
	leader, follower := cl.Directory().Leader(victim), cl.Directory().Follower(victim)
	oneWay := mode == "asym"
	// Tenant 1 additionally loses its link to the victim's old leader
	// for the same window, so at least one client rides the partition
	// purely on request timeouts and directory-refresh replays.
	pl := faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{
		{At: partitionAt, Verb: faults.Link, A: leader, B: follower, OneWay: oneWay, Drop: 1},
		{At: healAt, Verb: faults.Link, A: leader, B: follower, OneWay: oneWay},
		{At: partitionAt, Verb: faults.Link, A: leader, B: 1, Drop: 1},
		{At: healAt, Verb: faults.Link, A: leader, B: 1},
	}}
	pl.Arm(cl)

	// The storm: shared acquires with live sessions, an exclusive
	// acquire every fourth round. Errors are expected casualties while
	// the shard has two would-be leaders — each phase cleans up best-
	// effort and moves on; the end-state audit and the split-brain
	// checker are the real assertions.
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		okRounds := 0
		for round := 0; round < rounds; round++ {
			exclusive := round%4 == 3
			var handles []arm.Handle
			var err error
			if exclusive {
				handles, err = node.ARM.Acquire(p, 1, true)
			} else {
				handles, err = node.ARM.AcquireShared(p, 1, true)
			}
			if err != nil {
				if !leaseLost(err) {
					t.Errorf("cn%d round %d acquire: %v", node.Rank, round, err)
				}
				continue
			}
			survived := true
			if !exclusive {
				a, err := node.AttachSession(p, handles[0])
				if err != nil {
					if !leaseLost(err) {
						t.Errorf("cn%d round %d session: %v", node.Rank, round, err)
					}
					survived = false
				} else {
					ptr, err := a.MemAlloc(p, 4096)
					if err == nil {
						err = a.Memset(p, ptr, 0, 4096, byte(round))
					}
					if cErr := a.CloseSession(p); err == nil {
						err = cErr
					}
					if err != nil {
						if !leaseLost(err) {
							t.Errorf("cn%d round %d work: %v", node.Rank, round, err)
						}
						survived = false
					}
				}
			}
			if err := node.ARM.Release(p, handles); err != nil {
				if !leaseLost(err) {
					t.Errorf("cn%d round %d release: %v", node.Rank, round, err)
				}
				survived = false
			}
			if survived {
				okRounds++
			}
			p.Wait(sim.Duration(1+node.Rank%3) * sim.Millisecond)
		}
		if okRounds == 0 {
			t.Errorf("cn%d: no round survived the partition storm", node.Rank)
		}

		// Everyone synchronizes, then tenant 0 audits the books.
		node.App.Barrier(p)
		if node.Rank != 0 {
			return
		}
		if rp := cl.ARMShardReplica(victim); rp == nil || !rp.Promoted() {
			t.Errorf("shard %d follower not promoted after partition", victim)
		}
		if e := cl.Directory().Epoch(victim); e < 2 {
			t.Errorf("shard %d epoch not bumped by promotion: %d", victim, e)
		}
		// The deposed leader must discover the new epoch — through a
		// fenced sanitize/reap or a gossip rebuff — and step down. Its
		// trigger is lease expiry, so allow a few TTLs.
		deposed := cl.ARMShardServer(victim)
		deadline := p.Now().Add(8 * leaseTTL)
		for !deposed.Abdicated() && !deposed.Closed() {
			if p.Now().Sub(deadline) >= 0 {
				t.Errorf("deposed leader of shard %d never stepped down (epoch %d, dir epoch %d)",
					victim, deposed.Epoch(), cl.Directory().Epoch(victim))
				break
			}
			p.Wait(2 * sim.Millisecond)
		}
		// Books must balance exactly once the dust settles: grants made
		// into the partition are fenced and reclaimed, everything ends
		// free, no daemon holds a tenant session.
		for {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				t.Errorf("final stats: %v", err)
				return
			}
			open := 0
			for _, d := range cl.Daemons {
				open += d.OpenSessions()
			}
			if st.Assigned == 0 && st.Sessions == 0 && open == 0 &&
				st.Free == accelerators && st.Total == accelerators {
				return
			}
			if p.Now().Sub(deadline) >= 0 {
				t.Errorf("books did not settle: %+v, %d daemon sessions open", st, open)
				return
			}
			p.Wait(2 * sim.Millisecond)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}

	// The split-brain proof: merge the ledgers of every server that
	// ever led this cluster — original leaders (including the deposed
	// one) and promoted followers — and replay them against the
	// daemons' fence logs.
	var events []arm.GrantEvent
	for sh := 0; sh < shards; sh++ {
		events = append(events, cl.ARMShardServer(sh).GrantLedger()...)
		if rp := cl.ARMShardReplica(sh); rp != nil && rp.Promoted() {
			events = append(events, rp.Server().GrantLedger()...)
		}
	}
	fences := make(map[int][]arm.FenceMark)
	for i, d := range cl.Daemons {
		for _, m := range d.FenceMarks() {
			fences[i] = append(fences[i], arm.FenceMark{Epoch: m.Epoch, Time: m.Time})
		}
	}
	violations := arm.CheckSplitBrain(events, fences)
	if len(violations) == 0 {
		return
	}
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		name := fmt.Sprintf("ledger-partition-%s-shards%d-seed%d.txt", mode, shards, chaosSeed(t))
		// The schedule leads the file, one fault a line, so the failing
		// cell can be replayed from its artifact alone.
		var sched strings.Builder
		for _, f := range pl.Faults {
			fmt.Fprintf(&sched, "%v %s\n", f.At, f)
		}
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(filepath.Join(dir, name),
				[]byte(sched.String()+arm.FormatLedger(events, fences)), 0o644)
		}
	}
	for _, v := range violations {
		t.Errorf("split brain: %s", v)
	}
}
