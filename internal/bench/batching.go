package bench

// Launch-storm microbenchmark for the stream-ordered command buffers: a
// burst of small kernel launches against one network-attached
// accelerator, with batching off (one wire message per launch, the
// paper's baseline) and on (launches coalesced into opBatch command
// buffers). Wire-message counts come from the client communicator's
// post-time counters; throughput is launches over virtual time.

import (
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// LaunchStormResult summarizes one launch-storm run.
type LaunchStormResult struct {
	Batched     bool
	Launches    int
	WireMsgs    int64
	WireBytes   int64
	VirtualSecs float64
	OpsPerSec   float64
}

// stormKernelCost is the modelled execution time of the storm's kernel:
// small enough that wire overhead, not compute, dominates — the regime
// command batching exists for.
const stormKernelCost = 2 * sim.Microsecond

// LaunchStorm issues `launches` asynchronous small-kernel launches on one
// stream followed by a Sync, over QDR InfiniBand, and reports wire
// traffic and throughput. batched selects core.BatchedOptions.
func LaunchStorm(launches int, batched bool) LaunchStormResult {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		panic(err)
	}
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "storm.small",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return stormKernelCost },
	})
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060(), Registry: reg})
	if err != nil {
		panic(err)
	}
	daemon := core.NewDaemon(w.Comm(1), dev, core.DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	opts := core.DefaultOptions()
	if batched {
		opts = core.BatchedOptions()
	}
	res := LaunchStormResult{Batched: batched, Launches: launches}
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := core.NewClient(w.Comm(0), opts)
		if err != nil {
			panic(err)
		}
		ac := client.Attach(1)
		k := ac.KernelCreate("storm.small")
		before := client.Comm().WireStats()
		start := p.Now()
		for i := 0; i < launches; i++ {
			k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 64}, 0)
		}
		if err := ac.Sync(p); err != nil {
			panic(err)
		}
		elapsed := p.Now().Sub(start)
		after := client.Comm().WireStats()
		res.WireMsgs = after.Msgs - before.Msgs
		res.WireBytes = after.Bytes - before.Bytes
		res.VirtualSecs = elapsed.Seconds()
		if elapsed > 0 {
			res.OpsPerSec = float64(launches) / elapsed.Seconds()
		}
		if err := ac.Shutdown(p); err != nil {
			panic(err)
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return res
}

// BatchingReport pairs the two launch-storm modes.
type BatchingReport struct {
	Launches  int
	Unbatched LaunchStormResult
	Batched   LaunchStormResult
	// MsgRatio is unbatched/batched wire messages; Speedup is the
	// batched/unbatched ops-per-second ratio.
	MsgRatio float64
	Speedup  float64
}

// MeasureBatching runs the launch storm in both modes.
func MeasureBatching(launches int) BatchingReport {
	r := BatchingReport{
		Launches:  launches,
		Unbatched: LaunchStorm(launches, false),
		Batched:   LaunchStorm(launches, true),
	}
	if r.Batched.WireMsgs > 0 {
		r.MsgRatio = float64(r.Unbatched.WireMsgs) / float64(r.Batched.WireMsgs)
	}
	if r.Unbatched.OpsPerSec > 0 {
		r.Speedup = r.Batched.OpsPerSec / r.Unbatched.OpsPerSec
	}
	return r
}
