package bench

// Fleet-scale engine benchmark: one simulation hosting a full rack — 32
// accelerator daemons time-shared by 96 tenant compute nodes running a
// mixed workload (pipelined memcpys, kernel launches, session traffic).
// Unlike the figure generators, which measure the *simulated* system,
// this measures the *simulator*: host wall-clock and host allocations
// for a fixed amount of virtual work, which is what the hot-path pooling
// work (pooled events, payload buffers, pipeline scratch, encoder reuse)
// is meant to improve. The root BenchmarkFleetScale* benchmarks drive it.

import (
	"fmt"
	"runtime"
	"time"

	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// FleetConfig sizes the fleet benchmark.
type FleetConfig struct {
	// Daemons and Tenants size the machine; tenants share accelerators
	// through sessions (ShareCapacity = ceil(Tenants/Daemons) + 1).
	Daemons int
	Tenants int
	// Rounds is how many (upload, launch, download) rounds each tenant
	// drives through its session.
	Rounds int
	// CopyBytes is the payload of each direction of a round's copies,
	// moved with the paper's pipelined protocols (model mode: sized
	// messages, no real bytes).
	CopyBytes int
	// Shards partitions the ARM into this many shards (<2 runs the
	// legacy single server); Replicas adds a log-shipping follower per
	// shard. Both add the shard fleet's own ranks and traffic to the
	// measured engine cost.
	Shards   int
	Replicas bool
}

// DefaultFleetConfig returns the CI configuration: a 32-daemon rack
// under 96 tenants.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Daemons: 32, Tenants: 96, Rounds: 4, CopyBytes: 512 * netmodel.KiB}
}

// Fleet256Config scales the rack to 256 daemons under 512 tenants with
// a lighter per-tenant workload, keeping one -benchtime=1x iteration
// tractable in CI while exercising the engine at 8x the default rank
// count (BenchmarkFleetScale256).
func Fleet256Config() FleetConfig {
	return FleetConfig{Daemons: 256, Tenants: 512, Rounds: 2, CopyBytes: 128 * netmodel.KiB}
}

// FleetResult is one measured fleet run.
type FleetResult struct {
	Daemons int
	Tenants int
	Shards  int
	// Ops counts completed operations (alloc/copy/launch/free/session
	// calls) across all tenants; BytesMoved is the total payload.
	Ops        int
	BytesMoved int64
	// Host-side cost of simulating the fleet.
	WallNS  int64
	Mallocs uint64
	PerOp   float64
	// Virtual-time results.
	VirtualSecs      float64
	OpsPerVirtualSec float64
}

// MeasureFleet simulates the fleet once and reports host cost and
// virtual throughput.
func MeasureFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Daemons <= 0 || cfg.Tenants <= 0 || cfg.Rounds <= 0 || cfg.CopyBytes <= 0 {
		return FleetResult{}, fmt.Errorf("bench: invalid fleet config %+v", cfg)
	}
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "fleet.gemm",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 250 * sim.Microsecond },
	})
	share := (cfg.Tenants+cfg.Daemons-1)/cfg.Daemons + 1
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  cfg.Tenants,
		Accelerators:  cfg.Daemons,
		Registry:      reg,
		ShareCapacity: share,
		ARMShards:     cfg.Shards,
		ARMReplicas:   cfg.Replicas,
	})
	if err != nil {
		return FleetResult{}, err
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	res := FleetResult{Daemons: cfg.Daemons, Tenants: cfg.Tenants, Shards: shards}
	ops := 0
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, true)
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d acquire: %v", node.Rank, err))
		}
		ac, err := node.AttachSession(p, handles[0])
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d session: %v", node.Rank, err))
		}
		ptr, err := ac.MemAlloc(p, cfg.CopyBytes)
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d alloc: %v", node.Rank, err))
		}
		ops += 2
		k := ac.KernelCreate("fleet.gemm").SetArgs(gpu.PtrArg(ptr), gpu.IntArg(int64(cfg.CopyBytes/8)))
		for r := 0; r < cfg.Rounds; r++ {
			if err := ac.MemcpyH2D(p, ptr, 0, nil, cfg.CopyBytes); err != nil {
				panic(fmt.Sprintf("fleet cn%d h2d: %v", node.Rank, err))
			}
			if err := k.Run(p, gpu.Dim3{X: 64}, gpu.Dim3{X: 256}); err != nil {
				panic(fmt.Sprintf("fleet cn%d launch: %v", node.Rank, err))
			}
			if err := ac.MemcpyD2H(p, nil, ptr, 0, cfg.CopyBytes); err != nil {
				panic(fmt.Sprintf("fleet cn%d d2h: %v", node.Rank, err))
			}
			ops += 3
			res.BytesMoved += 2 * int64(cfg.CopyBytes)
		}
		if err := ac.MemFree(p, ptr); err != nil {
			panic(fmt.Sprintf("fleet cn%d free: %v", node.Rank, err))
		}
		if err := ac.CloseSession(p); err != nil {
			panic(fmt.Sprintf("fleet cn%d close: %v", node.Rank, err))
		}
		if err := node.ARM.Release(p, handles); err != nil {
			panic(fmt.Sprintf("fleet cn%d release: %v", node.Rank, err))
		}
		ops += 3
	})
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	end, err := cl.Run()
	res.WallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return res, err
	}
	res.Ops = ops
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	if ops > 0 {
		res.PerOp = float64(res.Mallocs) / float64(ops)
	}
	res.VirtualSecs = end.Sub(sim.Time(0)).Seconds()
	if res.VirtualSecs > 0 {
		res.OpsPerVirtualSec = float64(ops) / res.VirtualSecs
	}
	return res, nil
}
