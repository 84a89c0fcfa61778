package bench

import (
	"fmt"

	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// copySizes returns the bandwidthTest payload grid: 1 KiB to 64 MiB, the
// paper's Figure 5-8 x-axis.
func copySizes(quick bool) []int {
	step := 2
	if quick {
		step = 8
	}
	var sizes []int
	for n := 1 * netmodel.KiB; n <= 64*netmodel.MiB; n *= step {
		sizes = append(sizes, n)
	}
	return sizes
}

func mibPerSec(n int, t sim.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(n) / t.Seconds() / netmodel.MiB
}

// measureRemoteCopy times one acMemCpy of n bytes between a compute node
// and a network-attached accelerator using the given protocol options.
// It reproduces the paper's port of the CUDA SDK bandwidthTest.
func measureRemoteCopy(n int, toDevice bool, opts core.Options) sim.Duration {
	return measureRemoteCopyNet(n, toDevice, opts, netmodel.QDRInfiniBand())
}

// measureRemoteCopyNet selects the interconnect explicitly.
func measureRemoteCopyNet(n int, toDevice bool, opts core.Options, net netmodel.Params) sim.Duration {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, net)
	if err != nil {
		panic(err)
	}
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060(), Registry: gpu.NewRegistry()})
	if err != nil {
		panic(err)
	}
	daemon := core.NewDaemon(w.Comm(1), dev, core.DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	var elapsed sim.Duration
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := core.NewClient(w.Comm(0), opts)
		if err != nil {
			panic(err)
		}
		ac := client.Attach(1)
		ptr, err := ac.MemAlloc(p, n)
		if err != nil {
			panic(err)
		}
		start := p.Now()
		if toDevice {
			err = ac.MemcpyH2D(p, ptr, 0, nil, n)
		} else {
			err = ac.MemcpyD2H(p, nil, ptr, 0, n)
		}
		if err != nil {
			panic(err)
		}
		elapsed = p.Now().Sub(start)
		if err := ac.Shutdown(p); err != nil {
			panic(err)
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// measurePingPong times the IMB PingPong one-way latency for n-byte
// messages over the simulated fabric (the paper's MPI upper bound).
func measurePingPong(n int) sim.Duration {
	const reps = 4
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		panic(err)
	}
	var elapsed sim.Duration
	s.Spawn("rank0", func(p *sim.Proc) {
		c := w.Comm(0)
		start := p.Now()
		for i := 0; i < reps; i++ {
			c.SendSized(p, 1, 0, n)
			c.Recv(p, 1, 0)
		}
		elapsed = p.Now().Sub(start)
	})
	s.Spawn("rank1", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < reps; i++ {
			c.Recv(p, 0, 0)
			c.SendSized(p, 0, 0, n)
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return elapsed / (2 * reps)
}

// measureLocalCopy times one cudaMemcpy on a node-local GPU.
func measureLocalCopy(n int, toDevice, pinned bool) sim.Duration {
	s := sim.New()
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060()})
	if err != nil {
		panic(err)
	}
	var elapsed sim.Duration
	s.Spawn("host", func(p *sim.Proc) {
		ptr, err := dev.MemAlloc(p, n)
		if err != nil {
			panic(err)
		}
		start := p.Now()
		if toDevice {
			err = dev.CopyH2D(p, ptr, 0, nil, n, pinned)
		} else {
			err = dev.CopyD2H(p, nil, ptr, 0, n, pinned)
		}
		if err != nil {
			panic(err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

const kib = netmodel.KiB

// bandwidthSeries sweeps one protocol configuration over the size grid.
func bandwidthSeries(label string, sizes []int, measure func(n int) sim.Duration) Series {
	ys := make([]float64, len(sizes))
	for i, n := range sizes {
		ys[i] = mibPerSec(n, measure(n))
	}
	return Series{Label: label, Y: ys}
}

func h2dOpts(cfg core.CopyConfig) core.Options {
	return core.Options{H2D: cfg, D2H: core.PaperNaive()}
}

func d2hOpts(cfg core.CopyConfig) core.Options {
	return core.Options{H2D: core.PaperNaive(), D2H: cfg}
}

// Fig5 reproduces Figure 5: host-to-device bandwidth of the naive and
// pipeline protocols (block sizes 128K/256K/512K and the adaptive
// 128-512K scheme) against the MPI PingPong bound.
func Fig5(o Options) *Figure {
	sizes := copySizes(o.Quick)
	f := &Figure{
		ID:     "fig5",
		Title:  "Host-to-device bandwidth, pipeline protocol vs naive and MPI bound",
		XLabel: "KiB",
		YLabel: "Bandwidth [MiB/s]",
		Notes: []string{
			"paper: naive plateaus well below the pipeline; 128K blocks best below ~9 MiB,",
			"512K best above; adaptive 128-512K tracks the max; MPI peak ~2660 MiB/s",
		},
	}
	for _, n := range sizes {
		f.X = append(f.X, float64(n)/kib)
	}
	f.Series = append(f.Series,
		bandwidthSeries("naive", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperNaive()))
		}),
		bandwidthSeries("pipeline-128K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperPipeline(128*kib)))
		}),
		bandwidthSeries("pipeline-256K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperPipeline(256*kib)))
		}),
		bandwidthSeries("pipeline-512K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperPipeline(512*kib)))
		}),
		bandwidthSeries("pipeline-128-512K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperAdaptive()))
		}),
		bandwidthSeries("MPI-PingPong", sizes, measurePingPong),
	)
	return f
}

// Fig6 reproduces Figure 6: device-to-host bandwidth for block sizes
// 64K-512K against the MPI bound.
func Fig6(o Options) *Figure {
	sizes := copySizes(o.Quick)
	f := &Figure{
		ID:     "fig6",
		Title:  "Device-to-host bandwidth, pipeline protocol vs naive and MPI bound",
		XLabel: "KiB",
		YLabel: "Bandwidth [MiB/s]",
		Notes: []string{
			"paper: a single 128K block size is best in this direction",
		},
	}
	for _, n := range sizes {
		f.X = append(f.X, float64(n)/kib)
	}
	blocks := []int{64, 128, 256, 512}
	f.Series = append(f.Series, bandwidthSeries("naive", sizes, func(n int) sim.Duration {
		return measureRemoteCopy(n, false, d2hOpts(core.PaperNaive()))
	}))
	for _, b := range blocks {
		b := b
		f.Series = append(f.Series, bandwidthSeries(fmt.Sprintf("pipeline-%dK", b), sizes,
			func(n int) sim.Duration {
				return measureRemoteCopy(n, false, d2hOpts(core.PaperPipeline(b*kib)))
			}))
	}
	f.Series = append(f.Series, bandwidthSeries("MPI-PingPong", sizes, measurePingPong))
	return f
}

// Fig7 reproduces Figure 7: host-to-device comparison between the
// node-attached GPU (pinned DMA and pageable PIO) and the network-
// attached GPU running the adaptive pipeline.
func Fig7(o Options) *Figure {
	sizes := copySizes(o.Quick)
	f := &Figure{
		ID:     "fig7",
		Title:  "Host-to-device: node-attached vs network-attached GPU",
		XLabel: "KiB",
		YLabel: "Bandwidth [MiB/s]",
		Notes: []string{
			"paper: local pinned ~5700 MiB/s, local pageable ~4700 MiB/s,",
			"network-attached pipeline tracks the ~2660 MiB/s MPI bound",
		},
	}
	for _, n := range sizes {
		f.X = append(f.X, float64(n)/kib)
	}
	f.Series = append(f.Series,
		bandwidthSeries("CUDA-local-pinned", sizes, func(n int) sim.Duration {
			return measureLocalCopy(n, true, true)
		}),
		bandwidthSeries("CUDA-local-pageable", sizes, func(n int) sim.Duration {
			return measureLocalCopy(n, true, false)
		}),
		bandwidthSeries("MPI-PingPong", sizes, measurePingPong),
		bandwidthSeries("dyn-pipeline-128-512K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, true, h2dOpts(core.PaperAdaptive()))
		}),
	)
	return f
}

// Fig8 reproduces Figure 8: the device-to-host version of Figure 7 with
// the 128K pipeline.
func Fig8(o Options) *Figure {
	sizes := copySizes(o.Quick)
	f := &Figure{
		ID:     "fig8",
		Title:  "Device-to-host: node-attached vs network-attached GPU",
		XLabel: "KiB",
		YLabel: "Bandwidth [MiB/s]",
	}
	for _, n := range sizes {
		f.X = append(f.X, float64(n)/kib)
	}
	f.Series = append(f.Series,
		bandwidthSeries("CUDA-local-pinned", sizes, func(n int) sim.Duration {
			return measureLocalCopy(n, false, true)
		}),
		bandwidthSeries("CUDA-local-pageable", sizes, func(n int) sim.Duration {
			return measureLocalCopy(n, false, false)
		}),
		bandwidthSeries("MPI-PingPong", sizes, measurePingPong),
		bandwidthSeries("dyn-pipeline-128K", sizes, func(n int) sim.Duration {
			return measureRemoteCopy(n, false, d2hOpts(core.PaperPipeline(128*kib)))
		}),
	)
	return f
}
