// Dynamic assignment: the paper's Figure 3(b) execution model, plus the
// fault-tolerance claim of Section III. Three compute nodes with phases
// of differing accelerator demand share a pool of three network-attached
// GPUs: they acquire at runtime, block while the pool is drained, release
// early when a phase ends, and keep running when an accelerator breaks —
// both when an administrator fails, retires or drains one and when a
// fault-injection plan crash-kills a daemon under a job that then fails
// over to a spare the administrator registered mid-run.
package main

import (
	"errors"
	"fmt"
	"log"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/sim"
)

func main() {
	// Fault-aware protocol settings: requests time out instead of waiting
	// forever on a dead daemon, and are retried twice before giving up.
	opts := core.DefaultOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	dcfg := core.DefaultDaemonConfig()
	dcfg.PayloadTimeout = 20 * sim.Millisecond
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:      3,
		Accelerators:      3,
		SpareAccelerators: 1, // running, but outside the pool until registered
		Policy:            arm.Backfill,
		Options:           &opts,
		Daemon:            &dcfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The chaos schedule: accelerator 0's daemon is crash-killed at
	// t=200ms, while node 0's last phase is holding it.
	plan := faults.Plan{Faults: []faults.Fault{{At: 200 * sim.Millisecond, Verb: faults.KillDaemon, A: 0}}}
	plan.Log = func(s string) { fmt.Println(s) }
	plan.Arm(cl)

	say := func(p *sim.Proc, rank int, format string, args ...any) {
		fmt.Printf("[t=%8v] node %d: %s\n", sim.Duration(p.Now()), rank, fmt.Sprintf(format, args...))
	}

	// usePhase acquires k accelerators, does `work` of virtual compute on
	// them, and releases them — one demand phase of a job.
	usePhase := func(p *sim.Proc, node *cluster.Node, k int, work sim.Duration) {
		handles, err := node.ARM.Acquire(p, k, true)
		if err != nil {
			if errors.Is(err, arm.ErrImpossible) {
				say(p, node.Rank, "phase needs %d accelerators but the pool shrank — degrading to 1", k)
				handles, err = node.ARM.Acquire(p, 1, true)
			}
			if err != nil {
				log.Fatalf("node %d: %v", node.Rank, err)
			}
		}
		ids := make([]int, len(handles))
		for i, h := range handles {
			ids[i] = h.ID
		}
		say(p, node.Rank, "acquired accelerators %v", ids)
		// Touch every accelerator so the assignment is exercised
		// end-to-end, then model the compute phase.
		for _, h := range handles {
			ac := node.Attach(h)
			ptr, err := ac.MemAlloc(p, 1<<20)
			if err != nil {
				log.Fatal(err)
			}
			if err := ac.MemcpyH2D(p, ptr, 0, nil, 1<<20); err != nil {
				log.Fatal(err)
			}
			if err := ac.MemFree(p, ptr); err != nil {
				log.Fatal(err)
			}
		}
		p.Wait(work)
		if err := node.ARM.Release(p, handles); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "released %v", ids)
	}

	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		// Node 0: a greedy job — all three accelerators, then none.
		usePhase(p, node, 3, 40*sim.Millisecond)
		p.Wait(30 * sim.Millisecond) // accelerator-free phase
		usePhase(p, node, 2, 20*sim.Millisecond)

		// Final phase: ride out an injected daemon crash. Node 0 is
		// holding two accelerators when the chaos plan kills one at
		// t=200ms; the stuck request surfaces as a typed timeout, the
		// client reports the failure and fails over to the spare, and the
		// job finishes on the replacement.
		if d := sim.Time(0).Add(180 * sim.Millisecond).Sub(p.Now()); d > 0 {
			p.Wait(d)
		}
		handles, err := node.ARM.Acquire(p, 2, true)
		if err != nil {
			log.Fatal(err)
		}
		accels := make([]*core.Accel, len(handles))
		for i, h := range handles {
			accels[i] = node.Attach(h)
			if _, err := accels[i].MemAlloc(p, 1<<20); err != nil {
				log.Fatal(err)
			}
		}
		say(p, node.Rank, "resilient phase holding %v, compute in progress", handles)
		p.Wait(40 * sim.Millisecond) // the crash lands here
		for i, ac := range accels {
			err := ac.Sync(p)
			if err == nil {
				continue
			}
			if !errors.Is(err, core.ErrTimeout) {
				log.Fatalf("accelerator %d: %v", i, err)
			}
			say(p, node.Rank, "accelerator on rank %d stopped answering: %v", ac.Rank(), err)
			if err := ac.Failover(p); err != nil {
				log.Fatalf("failover: %v", err)
			}
			say(p, node.Rank, "failed over to rank %d, allocations replayed from the host shadow", ac.Rank())
		}
		// Prove the replacement serves requests, then hand everything back.
		for _, ac := range accels {
			if err := ac.Sync(p); err != nil {
				log.Fatal(err)
			}
		}
		if err := node.ARM.Release(p, node.ARM.Held()); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "resilient phase done — job survived the crash")
	})
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		// Node 1: modest, repeated single-GPU phases; blocks while node 0
		// hogs the pool.
		p.Wait(5 * sim.Millisecond)
		for i := 0; i < 3; i++ {
			usePhase(p, node, 1, 15*sim.Millisecond)
			p.Wait(5 * sim.Millisecond)
		}
	})
	cl.Spawn(2, func(p *sim.Proc, node *cluster.Node) {
		// Node 2: an administrator breaks accelerator 2 mid-run; the
		// cluster keeps operating with a smaller pool (fault tolerance:
		// broken accelerators never take compute nodes down). Then the
		// pool changes shape under the running jobs: a spare joins,
		// accelerator 2 is retired for good once its holder lets go, and
		// after the crash accelerator 1 is drained out of service.
		p.Wait(60 * sim.Millisecond)
		if err := node.ARM.Fail(p, 2); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "accelerator 2 marked FAILED — pool shrinks, nodes keep running")
		usePhase(p, node, 2, 25*sim.Millisecond)
		if err := node.ARM.Repair(p, 2); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "accelerator 2 repaired and returned to the pool")
		h, err := cl.RegisterSpare(p, node, 0)
		if err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "spare accelerator %d on rank %d registered — the pool grows", h.ID, h.Rank)
		if err := cl.RetireDaemon(p, node, 2, 0); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "accelerator 2 retired once released, its daemon shut down")
		if d := sim.Time(0).Add(400 * sim.Millisecond).Sub(p.Now()); d > 0 {
			p.Wait(d)
		}
		if err := cl.DrainDaemon(p, node, 1, 10*sim.Millisecond); err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "accelerator 1 drained out of service, its daemon shut down")
		st, err := node.ARM.Stats(p)
		if err != nil {
			log.Fatal(err)
		}
		say(p, node.Rank, "final pool: %d free, %d failed, %d acquisitions served, %.1f%% mean utilization",
			st.Free, st.Failed, st.Acquires, st.Utilization(p.Now().Sub(0))*100)
	})

	if _, err := cl.Run(); err != nil {
		log.Fatal(err)
	}
}
