// Package faults injects failures into a simulated accelerator cluster:
// daemon crashes and reboots, GPU hardware failures, and interconnect
// faults (severed, lossy, or slow links). A Plan is data, a seed and a
// list of Fault values; arming it spawns a chaos process that applies
// each fault at its virtual instant. The same plan armed on the same
// cluster gives bit-identical runs: probabilistic drops draw, in the
// simulation's deterministic message-arrival order, from a generator
// seeded afresh at every Arm, so one plan value can drive many clusters.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"dynacc/internal/cluster"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// Verb names what a Fault does.
type Verb int

const (
	// KillDaemon crash-kills accelerator daemon A (cluster.KillDaemon).
	KillDaemon Verb = iota
	// RestartDaemon reboots killed daemon A (cluster.RestartDaemon).
	RestartDaemon
	// KillClient crash-kills compute node A's main process
	// (cluster.KillClient), leaving its accelerators held.
	KillClient
	// KillARMShard crash-kills ARM shard A's leader (cluster.KillARMShard).
	KillARMShard
	// FailGPU breaks accelerator A's GPU: every device operation from then
	// on, kernels already executing included, returns gpu.ErrDeviceFailed.
	FailGPU
	// RepairGPU undoes FailGPU on accelerator A and releases engines
	// stranded by operations that died mid-flight.
	RepairGPU
	// Link sets the state of the link between world ranks A and B, both
	// directions or, with OneWay, only A→B: each message is dropped with
	// probability Drop (1 severs it, drawing nothing from the generator)
	// and otherwise delayed by Delay. Zero in both heals the link;
	// messages lost while it was down stay lost, as on a real network.
	Link
)

// Fault is one scheduled event: Verb applied with its arguments at
// virtual time At from simulation start.
type Fault struct {
	At     sim.Duration
	Verb   Verb
	A, B   int
	OneWay bool
	Drop   float64
	Delay  sim.Duration
}

// String is the fault's chaos log line.
func (f Fault) String() string {
	switch f.Verb {
	case KillDaemon:
		return fmt.Sprintf("kill daemon ac%d", f.A)
	case RestartDaemon:
		return fmt.Sprintf("restart daemon ac%d", f.A)
	case KillClient:
		return fmt.Sprintf("kill client cn%d", f.A)
	case KillARMShard:
		return fmt.Sprintf("kill ARM shard %d leader", f.A)
	case FailGPU:
		return fmt.Sprintf("fail gpu ac%d", f.A)
	case RepairGPU:
		return fmt.Sprintf("repair gpu ac%d", f.A)
	case Link:
		arrow := "<->"
		if f.OneWay {
			arrow = "->"
		}
		link := fmt.Sprintf("link %d%s%d", f.A, arrow, f.B)
		switch {
		case f.Drop >= 1:
			return "sever " + link
		case f.Drop > 0 && f.Delay > 0:
			return fmt.Sprintf("drop %s p=%g, delay %v", link, f.Drop, f.Delay)
		case f.Drop > 0:
			return fmt.Sprintf("drop %s p=%g", link, f.Drop)
		case f.Delay > 0:
			return "delay " + link
		}
		return "heal " + link
	}
	return fmt.Sprintf("verb %d", int(f.Verb))
}

// Plan is a fault schedule. Faults at the same instant apply in list
// order. Seed drives probabilistic drops; plans without them are
// seed-independent.
type Plan struct {
	Seed   int64
	Faults []Fault
	// Log, when set, receives a line per applied fault.
	Log func(string)
}

// Arm installs the plan on a cluster: the interconnect filter goes live
// immediately, over a fresh link table and a freshly seeded generator, and
// a "chaos" process applies each fault at its virtual time. Call between
// cluster.New and cluster.Run; the plan itself is not changed, so it can
// arm any number of clusters.
func (pl Plan) Arm(cl *cluster.Cluster) {
	// links holds the last Link fault applied to each direction, keyed by
	// ordered (src, dst).
	links := make(map[[2]int]Fault)
	rng := rand.New(rand.NewSource(pl.Seed))
	cl.World.SetLinkFilter(func(src, dst int, _ minimpi.Tag, _ int) minimpi.LinkVerdict {
		l := links[[2]int{src, dst}]
		if l.Drop >= 1 || l.Drop > 0 && rng.Float64() < l.Drop {
			return minimpi.LinkVerdict{Drop: true}
		}
		return minimpi.LinkVerdict{Delay: l.Delay}
	})
	if len(pl.Faults) == 0 {
		return
	}
	fs := append([]Fault(nil), pl.Faults...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].At < fs[j].At })
	start := cl.Sim.Now()
	cl.Sim.Spawn("chaos", func(p *sim.Proc) {
		for _, f := range fs {
			if d := start.Add(f.At).Sub(p.Now()); d > 0 {
				p.Wait(d)
			}
			switch f.Verb {
			case KillDaemon:
				cl.KillDaemon(f.A)
			case RestartDaemon:
				cl.RestartDaemon(p, f.A)
			case KillClient:
				cl.KillClient(f.A)
			case KillARMShard:
				cl.KillARMShard(f.A)
			case FailGPU:
				cl.Daemons[f.A].Device().Fail("")
			case RepairGPU:
				dev := cl.Daemons[f.A].Device()
				dev.Repair()
				dev.ResetEngines()
			case Link:
				links[[2]int{f.A, f.B}] = f
				if !f.OneWay {
					links[[2]int{f.B, f.A}] = f
				}
			default:
				panic(fmt.Sprintf("faults: unknown verb %d", int(f.Verb)))
			}
			if pl.Log != nil {
				pl.Log(fmt.Sprintf("[%v] chaos: %s", p.Now(), f))
			}
		}
	})
}
