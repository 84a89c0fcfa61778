package dynacc_test

import (
	"testing"

	"dynacc/internal/bench"
	"dynacc/internal/core"
	"dynacc/internal/magma"
	"dynacc/internal/netmodel"
)

// One benchmark per experiment of the paper's evaluation section. Each
// iteration regenerates the complete figure (quick grids keep -bench
// runs tractable; cmd/acbench produces the full-resolution tables). The
// reported wall time is the cost of simulating the experiment, not the
// experiment's own virtual time — the latter is what the figure reports.

func benchFigure(b *testing.B, gen bench.Generator) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f := gen(bench.Options{Quick: true})
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: host-to-device bandwidth of the
// naive and pipeline copy protocols against the MPI PingPong bound.
func BenchmarkFig5HostToDeviceBandwidth(b *testing.B) { benchFigure(b, bench.Fig5) }

// BenchmarkFig6 regenerates Figure 6: device-to-host bandwidth.
func BenchmarkFig6DeviceToHostBandwidth(b *testing.B) { benchFigure(b, bench.Fig6) }

// BenchmarkFig7 regenerates Figure 7: node-attached vs network-attached
// host-to-device comparison.
func BenchmarkFig7LocalVsRemoteH2D(b *testing.B) { benchFigure(b, bench.Fig7) }

// BenchmarkFig8 regenerates Figure 8: the device-to-host comparison.
func BenchmarkFig8LocalVsRemoteD2H(b *testing.B) { benchFigure(b, bench.Fig8) }

// BenchmarkFig9 regenerates Figure 9: MAGMA QR on a local GPU vs 1-3
// network-attached GPUs.
func BenchmarkFig9MagmaQR(b *testing.B) { benchFigure(b, bench.Fig9) }

// BenchmarkFig10 regenerates Figure 10: MAGMA Cholesky.
func BenchmarkFig10MagmaCholesky(b *testing.B) { benchFigure(b, bench.Fig10) }

// BenchmarkFig11 regenerates Figure 11: the MP2C application study.
func BenchmarkFig11MP2C(b *testing.B) { benchFigure(b, bench.Fig11) }

// BenchmarkExtA regenerates the pool-utilization extension experiment.
func BenchmarkExtAPoolUtilization(b *testing.B) { benchFigure(b, bench.ExtA) }

// BenchmarkExtB regenerates the protocol/lookahead ablations.
func BenchmarkExtBAblations(b *testing.B) { benchFigure(b, bench.ExtB) }

// BenchmarkLaunchStorm measures a burst of 1000 small kernel launches
// against one network-attached accelerator, with the wire protocol's
// command batching off and on. The virtops/s metric is the simulated
// launch throughput (virtual ops per virtual second); wiremsgs is how
// many wire messages the storm cost. Batched must show >= 3x fewer
// messages and higher throughput (pinned by internal/bench's
// TestLaunchStormBatchingWins).
func BenchmarkLaunchStorm(b *testing.B) {
	for _, mode := range []struct {
		name    string
		batched bool
	}{{"unbatched", false}, {"batched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var r bench.LaunchStormResult
			for i := 0; i < b.N; i++ {
				r = bench.LaunchStorm(1000, mode.batched)
			}
			b.ReportMetric(r.OpsPerSec, "virtops/s")
			b.ReportMetric(float64(r.WireMsgs), "wiremsgs")
		})
	}
}

// Micro-benchmarks of individual simulated operations, useful when
// tuning the simulator itself.

func BenchmarkSimPipelineCopy16MiB(b *testing.B) {
	opts := core.Options{H2D: core.PaperAdaptive(), D2H: core.PaperNaive()}
	for i := 0; i < b.N; i++ {
		bench.MeasureRemoteCopy(16*netmodel.MiB, true, opts)
	}
}

func BenchmarkSimNaiveCopy16MiB(b *testing.B) {
	opts := core.Options{H2D: core.PaperNaive(), D2H: core.PaperNaive()}
	for i := 0; i < b.N; i++ {
		bench.MeasureRemoteCopy(16*netmodel.MiB, true, opts)
	}
}

func BenchmarkSimPingPong1MiB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.MeasurePingPong(netmodel.MiB)
	}
}

func BenchmarkSimQRThreeGPUsN2048(b *testing.B) {
	cfg := magma.DefaultConfig()
	for i := 0; i < b.N; i++ {
		bench.RunFactorizationQR(3, 2048, cfg)
	}
}

// BenchmarkFleetScale simulates the full CI rack — 32 network-attached
// accelerator daemons time-shared by 96 tenants running a mixed
// session/copy/launch workload — and reports the engine's own cost per
// completed virtual operation.
func BenchmarkFleetScale(b *testing.B) {
	var r bench.FleetResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.MeasureFleet(bench.DefaultFleetConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerOp, "allocs/virtop")
	b.ReportMetric(r.OpsPerVirtualSec, "virtops/s")
}

// BenchmarkFleetScale256 scales the rack to 256 daemons under 512
// tenants (bench.Fleet256Config): the same mixed workload at 8x the
// rank count, pinning the engine's per-op cost at the fleet size the
// elastic-pool work targets.
func BenchmarkFleetScale256(b *testing.B) {
	var r bench.FleetResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.MeasureFleet(bench.Fleet256Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerOp, "allocs/virtop")
	b.ReportMetric(r.OpsPerVirtualSec, "virtops/s")
}

// BenchmarkFleetScaleSharded is the same rack with the ARM split into 3
// replicated shards: the 96 tenants route through the shard directory,
// acquires forward across shards, and every mutation is log-shipped to
// a follower — measuring what the sharded control plane costs the
// engine at fleet scale.
func BenchmarkFleetScaleSharded(b *testing.B) {
	cfg := bench.DefaultFleetConfig()
	cfg.Shards = 3
	cfg.Replicas = true
	var r bench.FleetResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.MeasureFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerOp, "allocs/virtop")
	b.ReportMetric(r.OpsPerVirtualSec, "virtops/s")
}
