package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// testbed wires one compute node (rank 0) to nAC accelerator daemons
// (ranks 1..nAC) over the given fabric and runs fn as the compute-node
// process; daemons are shut down afterwards.
type testbed struct {
	sim     *sim.Simulation
	client  *Client
	accels  []*Accel
	daemons []*Daemon
}

func runTestbed(t *testing.T, nAC int, exec bool, params netmodel.Params, opts Options, fn func(p *sim.Proc, tb *testbed)) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, nAC+1, params)
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{sim: s}
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	reg := gpu.NewRegistry()
	registerTestKernels(reg)
	for i := 0; i < nAC; i++ {
		dev, err := gpu.NewDevice(s, gpu.Config{
			Name: fmt.Sprintf("ac%d", i), Model: model, Registry: reg, Execute: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDaemon(w.Comm(i+1), dev, DefaultDaemonConfig())
		tb.daemons = append(tb.daemons, d)
		s.Spawn(fmt.Sprintf("daemon%d", i), d.Run)
	}
	tb.client, err = NewClient(w.Comm(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nAC; i++ {
		tb.accels = append(tb.accels, tb.client.Attach(i+1))
	}
	s.Spawn("cn", func(p *sim.Proc) {
		fn(p, tb)
		for _, a := range tb.accels {
			if err := a.Shutdown(p); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func registerTestKernels(reg *gpu.Registry) {
	reg.Register(gpu.FuncKernel{
		KernelName: "vadd",
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			n := l.Arg(3).Int
			return sim.Duration(float64(3*8*n) / m.MemBandwidth * 1e9)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			a, b, c := l.Arg(0).Ptr, l.Arg(1).Ptr, l.Arg(2).Ptr
			n := int(l.Arg(3).Int)
			av, err := dev.ReadFloat64s(a, 0, n)
			if err != nil {
				return err
			}
			bv, err := dev.ReadFloat64s(b, 0, n)
			if err != nil {
				return err
			}
			out := make([]float64, n)
			for i := range out {
				out[i] = av[i] + bv[i]
			}
			return dev.WriteFloat64s(c, 0, out)
		},
	})
	reg.Register(gpu.FuncKernel{
		KernelName: "slow",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return sim.Millisecond },
	})
}

func fastNet() netmodel.Params {
	return netmodel.Params{
		Name:           "test",
		Latency:        1 * sim.Microsecond,
		Bandwidth:      1e9,
		SendOverhead:   100 * sim.Nanosecond,
		RecvOverhead:   100 * sim.Nanosecond,
		EagerThreshold: 4 * netmodel.KiB,
		RendezvousRTT:  2 * sim.Microsecond,
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Options{H2D: CopyConfig{Kind: Pipeline}, D2H: PaperNaive()}
	if err := bad.Validate(); err == nil {
		t.Error("zero-block pipeline accepted")
	}
	bad = Options{H2D: PaperNaive(), D2H: CopyConfig{Kind: 99}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = Options{H2D: CopyConfig{Kind: Naive, Depth: -1}, D2H: PaperNaive()}
	if err := bad.Validate(); err == nil {
		t.Error("negative depth accepted")
	}
	bad = Options{H2D: CopyConfig{Kind: Adaptive}, D2H: PaperNaive()}
	if err := bad.Validate(); err == nil {
		t.Error("empty adaptive accepted")
	}
}

func TestResolveBlockSizes(t *testing.T) {
	cfg := PaperAdaptive()
	if b, _ := cfg.resolve(1 << 20); b != 128*1024 {
		t.Errorf("small payload block = %d", b)
	}
	if b, _ := cfg.resolve(16 << 20); b != 512*1024 {
		t.Errorf("large payload block = %d", b)
	}
	if b, d := PaperNaive().resolve(5 << 20); b != 5<<20 || d != 1 {
		t.Errorf("naive resolve = %d,%d", b, d)
	}
	if b, _ := PaperPipeline(256 * 1024).resolve(1000); b != 1000 {
		t.Errorf("block larger than payload not clamped: %d", b)
	}
	if n := numBlocks(0, 128); n != 0 {
		t.Errorf("numBlocks(0) = %d", n)
	}
	if n := numBlocks(129, 128); n != 2 {
		t.Errorf("numBlocks = %d", n)
	}
}

func TestProtocolKindString(t *testing.T) {
	for k, want := range map[ProtocolKind]string{Naive: "naive", Pipeline: "pipeline", Adaptive: "adaptive"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if ProtocolKind(42).String() == "" {
		t.Error("unknown kind empty string")
	}
}

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*request{
		{op: OpMemAlloc, reqID: 9, size: 4096},
		{op: OpMemFree, reqID: 10, ptr: 512},
		{op: OpMemcpyH2D, reqID: 11, stream: 3, ptr: 256, off: 64, size: 1 << 20, block: 128 * 1024, depth: 4},
		{op: OpMemcpyD2H, reqID: 12, ptr: 256, off: 0, size: 99, block: 99, depth: 1},
		{op: OpSync, reqID: 13},
		{op: OpDeviceInfo, reqID: 14},
		{op: OpShutdown, reqID: 15},
		{op: OpD2DSend, reqID: 16, peer: 7, xferID: 44, ptr: 1024, off: 8, size: 555, block: 128, depth: 2},
		{op: OpKernelRun, reqID: 17, stream: 1, kernel: "dgemm",
			launch: gpu.Launch{Grid: gpu.Dim3{X: 2, Y: 3, Z: 1}, Block: gpu.Dim3{X: 16, Y: 16, Z: 1},
				Args: []gpu.Value{gpu.PtrArg(77), gpu.IntArg(-5), gpu.FloatArg(1.5)}}},
	}
	for _, q := range cases {
		got, err := decodeRequest(encodeRequest(q))
		if err != nil {
			t.Fatalf("op %d: %v", q.op, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", q) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, q)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := decodeRequest(encodeRequest(&request{op: 99})); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := decodeRequest([]byte{OpMemAlloc}); err == nil {
		t.Error("truncated request accepted")
	}
}

// TestDecodeRequestRejectsBadWindows: a strided window whose size is not a
// multiple of its column count, or whose pitch is below a column, used to
// decode and then fail the copy at its last block. All five ops that carry
// a window must refuse it in the decoder; the well-formed window beside
// each must keep decoding to the same request.
func TestDecodeRequestRejectsBadWindows(t *testing.T) {
	for _, op := range []uint8{OpMemcpyH2D, OpMemcpyD2H, OpD2DSend, OpD2DRecv, OpWriteInline} {
		for _, tc := range []struct {
			size, cols, pitch int
			block, depth      int // 0: the 64-byte, depth-2 default
			ok, streamedOnly  bool
		}{
			{size: 96, cols: 3, pitch: 64, ok: true},
			{size: 96, cols: 3, pitch: 0, ok: true}, // pitch 0: columns back to back
			{size: 100, cols: 1, pitch: 8, ok: true},
			{size: 100, cols: 3, pitch: 64},
			{size: 96, cols: 3, pitch: 31},
			// A streamed copy allocates a record per block and a slot per
			// unit of depth before any byte moves: both are bounded.
			{size: maxBlocks, cols: 1, block: 1, depth: maxBlocks, ok: true},
			{size: maxBlocks + 1, cols: 1, block: 1, streamedOnly: true},
			{size: maxPayload, cols: 1, block: 1, streamedOnly: true},
			{size: 96, cols: 1, depth: maxBlocks + 1, streamedOnly: true},
			{size: 96, cols: 1, block: maxPayload + 1, streamedOnly: true},
		} {
			q := &request{op: op, reqID: 7, ptr: 1, size: tc.size, cols: tc.cols, pitch: tc.pitch, block: 64, depth: 2}
			if tc.block != 0 {
				q.block = tc.block
			}
			if tc.depth != 0 {
				q.depth = tc.depth
			}
			if op == OpWriteInline {
				if tc.streamedOnly {
					continue
				}
				q.block, q.depth = 0, 0
			}
			got, err := decodeRequest(encodeRequest(q))
			if (err == nil) != tc.ok {
				t.Errorf("op %d size=%d cols=%d pitch=%d block=%d depth=%d: err = %v, want ok=%v",
					op, tc.size, tc.cols, tc.pitch, q.block, q.depth, err, tc.ok)
			}
			if tc.ok && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", q) {
				t.Errorf("op %d: round trip mismatch:\n got %+v\nwant %+v", op, got, q)
			}
		}
	}
}

func TestMemAllocFreeRemote(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if ptr.IsNull() {
			t.Fatal("null ptr")
		}
		info, err := a.Info(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.MemUsed != 1<<20 {
			t.Errorf("MemUsed = %d", info.MemUsed)
		}
		if !info.Execute || info.ModelName != "tesla-c1060" {
			t.Errorf("info = %+v", info)
		}
		if err := a.MemFree(p, ptr); err != nil {
			t.Fatal(err)
		}
		if err := a.MemFree(p, ptr); err == nil {
			t.Error("double free not reported")
		}
	})
}

func TestRemoteAllocOOMPropagates(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		_, err := tb.accels[0].MemAlloc(p, 1<<30)
		if err == nil || !strings.Contains(err.Error(), "out of device memory") {
			t.Errorf("err = %v", err)
		}
	})
}

// Round-trip through every protocol in execute mode: the payload must
// arrive intact regardless of blocking.
func TestCopyRoundTripAllProtocols(t *testing.T) {
	protos := map[string]Options{
		"naive":    {H2D: PaperNaive(), D2H: PaperNaive()},
		"pipe-64k": {H2D: PaperPipeline(64 * 1024), D2H: PaperPipeline(64 * 1024)},
		"adaptive": DefaultOptions(),
		"depth1":   {H2D: CopyConfig{Kind: Pipeline, Block: 32 * 1024, Depth: 1}, D2H: PaperNaive()},
	}
	for name, opts := range protos {
		t.Run(name, func(t *testing.T) {
			runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
				a := tb.accels[0]
				const n = 1<<20 + 777 // deliberately not block aligned
				src := make([]byte, n)
				rng := rand.New(rand.NewSource(42))
				rng.Read(src)
				ptr, err := a.MemAlloc(p, n)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.MemcpyH2D(p, ptr, 0, src, n); err != nil {
					t.Fatal(err)
				}
				dst := make([]byte, n)
				if err := a.MemcpyD2H(p, dst, ptr, 0, n); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(src, dst) {
					t.Error("payload corrupted in round trip")
				}
			})
		})
	}
}

func TestZeroByteCopy(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, _ := a.MemAlloc(p, 64)
		if err := a.MemcpyH2D(p, ptr, 0, nil, 0); err != nil {
			t.Errorf("zero H2D: %v", err)
		}
		if err := a.MemcpyD2H(p, nil, ptr, 0, 0); err != nil {
			t.Errorf("zero D2H: %v", err)
		}
	})
}

func TestCopySizeMismatchRejected(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, _ := a.MemAlloc(p, 64)
		if err := a.MemcpyH2D(p, ptr, 0, []byte{1, 2}, 3); err == nil {
			t.Error("mismatched H2D accepted")
		}
		if err := a.MemcpyD2H(p, make([]byte, 2), ptr, 0, 3); err == nil {
			t.Error("mismatched D2H accepted")
		}
		if err := a.MemcpyH2D(p, ptr, 0, nil, -1); err == nil {
			t.Error("negative size accepted")
		}
	})
}

func TestCopyToInvalidPointerReportsError(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		err := a.MemcpyH2D(p, gpu.Ptr(999), 0, make([]byte, 4096), 4096)
		if err == nil {
			t.Error("H2D to invalid pointer succeeded")
		}
		err = a.MemcpyD2H(p, make([]byte, 4096), gpu.Ptr(999), 0, 4096)
		if err == nil {
			t.Error("D2H from invalid pointer succeeded")
		}
		// The daemon must stay usable afterwards.
		ptr, err := a.MemAlloc(p, 128)
		if err != nil || ptr.IsNull() {
			t.Errorf("daemon unusable after error: %v", err)
		}
	})
}

func TestKernelLaunchRemote(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		const n = 1024
		mk := func(vals []float64) gpu.Ptr {
			ptr, err := a.MemAlloc(p, 8*n)
			if err != nil {
				t.Fatal(err)
			}
			if vals != nil {
				if err := a.MemcpyH2D(p, ptr, 0, minimpi.F64Bytes(vals), 8*n); err != nil {
					t.Fatal(err)
				}
			}
			return ptr
		}
		av := make([]float64, n)
		bv := make([]float64, n)
		for i := range av {
			av[i] = float64(i)
			bv[i] = 2 * float64(i)
		}
		pa, pb, pc := mk(av), mk(bv), mk(nil)
		k := a.KernelCreate("vadd").SetArgs(gpu.PtrArg(pa), gpu.PtrArg(pb), gpu.PtrArg(pc), gpu.IntArg(n))
		if err := k.Run(p, gpu.Dim3{X: n / 128}, gpu.Dim3{X: 128}); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 8*n)
		if err := a.MemcpyD2H(p, out, pc, 0, len(out)); err != nil {
			t.Fatal(err)
		}
		vals := minimpi.BytesF64(out)
		for i := range vals {
			if vals[i] != 3*float64(i) {
				t.Fatalf("c[%d] = %v, want %v", i, vals[i], 3*float64(i))
			}
		}
	})
}

func TestUnknownKernelError(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		err := tb.accels[0].KernelCreate("bogus").Run(p, gpu.Dim3{X: 1}, gpu.Dim3{X: 1})
		if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
			t.Errorf("err = %v", err)
		}
	})
}

// Streams: a copy on stream 1 must overlap a slow kernel on stream 0.
func TestStreamsOverlapKernelAndCopy(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, _ := a.MemAlloc(p, 1<<20)
		start := p.Now()
		kpd := a.KernelCreate("slow").RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 0)
		cpd := a.MemcpyH2DAsync(ptr, 0, nil, 1<<20, 1)
		if err := kpd.Wait(p); err != nil {
			t.Fatal(err)
		}
		if err := cpd.Wait(p); err != nil {
			t.Fatal(err)
		}
		elapsed := p.Now().Sub(start)
		// Serial execution would be ~1ms (kernel) + ~1.1ms (copy at 1GB/s).
		if elapsed > 1600*sim.Microsecond {
			t.Errorf("stream overlap missing: elapsed %v", elapsed)
		}
		// Same stream must serialize.
		start = p.Now()
		kpd = a.KernelCreate("slow").RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 0)
		cpd = a.MemcpyH2DAsync(ptr, 0, nil, 1<<20, 0)
		kpd.Wait(p)
		cpd.Wait(p)
		if serial := p.Now().Sub(start); serial < 2*sim.Millisecond {
			t.Errorf("same-stream ops overlapped: %v", serial)
		}
	})
}

func TestSyncDrainsAllStreams(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		var pds []*Pending
		for s := uint8(0); s < 3; s++ {
			pds = append(pds, a.KernelCreate("slow").RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, s))
		}
		if err := a.Sync(p); err != nil {
			t.Fatal(err)
		}
		for i, pd := range pds {
			if !pd.Done().Triggered() {
				t.Errorf("kernel %d not finished at Sync return", i)
			}
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestSyncOnIdleAccelerator(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		if err := tb.accels[0].Sync(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDirectCopyBetweenAccelerators(t *testing.T) {
	runTestbed(t, 2, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a0, a1 := tb.accels[0], tb.accels[1]
		const n = 300 * 1024
		payload := bytes.Repeat([]byte{0xAB}, n)
		src, err := a0.MemAlloc(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := a0.MemcpyH2D(p, src, 0, payload, n); err != nil {
			t.Fatal(err)
		}
		dst, err := a1.MemAlloc(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.client.CopyD2D(p, a0, src, 0, n, 1, n, a1, dst, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, n)
		if err := a1.MemcpyD2H(p, back, dst, 0, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			t.Error("direct copy corrupted payload")
		}
	})
}

func TestDirectCopyBadSourceReportsError(t *testing.T) {
	runTestbed(t, 2, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a0, a1 := tb.accels[0], tb.accels[1]
		dst, _ := a1.MemAlloc(p, 4096)
		err := tb.client.CopyD2D(p, a0, gpu.Ptr(777), 0, 4096, 1, 4096, a1, dst, 0, 0, 0)
		if err == nil {
			t.Error("bad-source direct copy succeeded")
		}
	})
}

// The pipeline must beat the naive protocol for large transfers — the
// paper's central Figure 5 claim — and stay within the MPI bound.
func TestPipelineBeatsNaive(t *testing.T) {
	const n = 16 << 20
	params := netmodel.QDRInfiniBand()
	measure := func(opts Options) sim.Duration {
		var elapsed sim.Duration
		runTestbed(t, 1, false, params, opts, func(p *sim.Proc, tb *testbed) {
			a := tb.accels[0]
			ptr, err := a.MemAlloc(p, n)
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now().Sub(start)
		})
		return elapsed
	}
	tNaive := measure(Options{H2D: PaperNaive(), D2H: PaperNaive()})
	tPipe := measure(Options{H2D: PaperPipeline(512 * 1024), D2H: PaperNaive()})
	if tPipe >= tNaive {
		t.Errorf("pipeline (%v) not faster than naive (%v)", tPipe, tNaive)
	}
	// Naive ≈ network + full PCIe copy; pipeline hides most of the copy.
	netOnly := params.OneWayTime(n)
	if tPipe > netOnly+netOnly/4 {
		t.Errorf("pipeline %v too far above network bound %v", tPipe, netOnly)
	}
	if ratio := float64(tNaive) / float64(tPipe); ratio < 1.2 {
		t.Errorf("pipeline speedup over naive only %.2fx", ratio)
	}
}

// Per the paper, staging memory is bounded by depth*block for the
// pipeline but equals the payload for the naive protocol.
func TestStagingFootprint(t *testing.T) {
	const n = 8 << 20
	runTestbed(t, 1, false, fastNet(),
		Options{H2D: CopyConfig{Kind: Pipeline, Block: 128 * 1024, Depth: 4}, D2H: PaperNaive()},
		func(p *sim.Proc, tb *testbed) {
			a := tb.accels[0]
			ptr, _ := a.MemAlloc(p, n)
			if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
				t.Fatal(err)
			}
			if peak := tb.daemons[0].Stats().StagingPeak; peak != 4*128*1024 {
				t.Errorf("pipeline staging peak = %d, want %d", peak, 4*128*1024)
			}
		})
	runTestbed(t, 1, false, fastNet(), Options{H2D: PaperNaive(), D2H: PaperNaive()},
		func(p *sim.Proc, tb *testbed) {
			a := tb.accels[0]
			ptr, _ := a.MemAlloc(p, n)
			if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
				t.Fatal(err)
			}
			if peak := tb.daemons[0].Stats().StagingPeak; peak != n {
				t.Errorf("naive staging peak = %d, want %d", peak, n)
			}
		})
}

func TestTwoAcceleratorsConcurrentCopies(t *testing.T) {
	// Copies from one compute node to two accelerators share the CN's
	// transmit link and must take about twice the single-copy time.
	const n = 8 << 20
	params := netmodel.QDRInfiniBand()
	var tOne, tTwo sim.Duration
	runTestbed(t, 2, false, params, DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		ptrs := make([]gpu.Ptr, 2)
		for i, a := range tb.accels {
			ptr, err := a.MemAlloc(p, n)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[i] = ptr
		}
		start := p.Now()
		if err := tb.accels[0].MemcpyH2D(p, ptrs[0], 0, nil, n); err != nil {
			t.Fatal(err)
		}
		tOne = p.Now().Sub(start)
		start = p.Now()
		pd0 := tb.accels[0].MemcpyH2DAsync(ptrs[0], 0, nil, n, 0)
		pd1 := tb.accels[1].MemcpyH2DAsync(ptrs[1], 0, nil, n, 0)
		if err := pd0.Wait(p); err != nil {
			t.Fatal(err)
		}
		if err := pd1.Wait(p); err != nil {
			t.Fatal(err)
		}
		tTwo = p.Now().Sub(start)
	})
	lo, hi := 17*tOne/10, 23*tOne/10
	if tTwo < lo || tTwo > hi {
		t.Errorf("two concurrent copies took %v, want ~2x single %v", tTwo, tOne)
	}
}

func TestPendingErrorsSurfaceOnWait(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		pd := a.MemcpyH2DAsync(gpu.Ptr(42), 0, nil, 4096, 0)
		if err := pd.Wait(p); err == nil {
			t.Error("async copy to invalid ptr reported no error")
		}
		pd = a.MemcpyH2DAsync(0, 0, []byte{1}, 2, 0)
		if err := pd.Wait(p); err == nil {
			t.Error("size mismatch not caught")
		}
	})
}

// Property: random sequences of remote alloc/copy/kernel/free operations
// leave device contents consistent with a host-side shadow model, for
// random copy-protocol configurations.
func TestPropertyRemoteDeviceMatchesShadow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randCfg := func() CopyConfig {
			switch rng.Intn(3) {
			case 0:
				return PaperNaive()
			case 1:
				return CopyConfig{Kind: Pipeline, Block: 1 << (9 + rng.Intn(9)), Depth: 1 + rng.Intn(6)}
			default:
				return CopyConfig{Kind: Adaptive,
					SmallBlock: 1 << (9 + rng.Intn(6)),
					LargeBlock: 1 << (14 + rng.Intn(5)),
					Threshold:  1 << (12 + rng.Intn(8))}
			}
		}
		opts := Options{H2D: randCfg(), D2H: randCfg()}
		ok := true
		runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
			a := tb.accels[0]
			type buf struct {
				ptr    gpu.Ptr
				shadow []byte
			}
			var bufs []*buf
			for op := 0; op < 20 && ok; op++ {
				switch {
				case len(bufs) == 0 || rng.Intn(4) == 0: // alloc
					n := 1 + rng.Intn(64*1024)
					ptr, err := a.MemAlloc(p, n)
					if err != nil {
						ok = false
						return
					}
					bufs = append(bufs, &buf{ptr: ptr, shadow: make([]byte, n)})
				case rng.Intn(3) == 0 && len(bufs) > 1: // free one
					i := rng.Intn(len(bufs))
					if err := a.MemFree(p, bufs[i].ptr); err != nil {
						ok = false
						return
					}
					bufs = append(bufs[:i], bufs[i+1:]...)
				case rng.Intn(2) == 0: // H2D at random offset
					b := bufs[rng.Intn(len(bufs))]
					if len(b.shadow) == 0 {
						continue
					}
					off := rng.Intn(len(b.shadow))
					n := 1 + rng.Intn(len(b.shadow)-off)
					data := make([]byte, n)
					rng.Read(data)
					if err := a.MemcpyH2D(p, b.ptr, off, data, n); err != nil {
						ok = false
						return
					}
					copy(b.shadow[off:], data)
				default: // D2H and compare
					b := bufs[rng.Intn(len(bufs))]
					got := make([]byte, len(b.shadow))
					if err := a.MemcpyD2H(p, got, b.ptr, 0, len(got)); err != nil {
						ok = false
						return
					}
					if !bytes.Equal(got, b.shadow) {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelFaultDoesNotKillDaemon(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		// vadd launched with no arguments faults inside the kernel body;
		// the daemon must report an error and keep serving.
		err := a.KernelCreate("vadd").Run(p, gpu.Dim3{X: 1}, gpu.Dim3{X: 1})
		if err == nil || !strings.Contains(err.Error(), "faulted") {
			t.Errorf("err = %v, want kernel fault", err)
		}
		if _, err := a.MemAlloc(p, 128); err != nil {
			t.Errorf("daemon unusable after kernel fault: %v", err)
		}
	})
}

// Two independent front-ends (different compute nodes) share one daemon:
// requests interleave but data and responses must stay isolated.
func TestTwoClientsOneDaemon(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 3, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 32 << 20
	dev, err := gpu.NewDevice(s, gpu.Config{Model: model, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	daemon := NewDaemon(w.Comm(2), dev, DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	done := make([]*sim.Proc, 2)
	for cn := 0; cn < 2; cn++ {
		cn := cn
		done[cn] = s.Spawn(fmt.Sprintf("cn%d", cn), func(p *sim.Proc) {
			client, err := NewClient(w.Comm(cn), DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			ac := client.Attach(2)
			const n = 256 * 1024
			payload := bytes.Repeat([]byte{byte(0x10 + cn)}, n)
			ptr, err := ac.MemAlloc(p, n)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				if err := ac.MemcpyH2D(p, ptr, 0, payload, n); err != nil {
					t.Error(err)
					return
				}
				back := make([]byte, n)
				if err := ac.MemcpyD2H(p, back, ptr, 0, n); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(back, payload) {
					t.Errorf("client %d round %d: payload cross-contaminated", cn, round)
					return
				}
			}
		})
	}
	s.Spawn("closer", func(p *sim.Proc) {
		for _, d := range done {
			d.Done().Await(p)
		}
		client, _ := NewClient(w.Comm(0), DefaultOptions())
		if err := client.Attach(2).Shutdown(p); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Sync must drain copies still flowing through the pipeline, not just
// kernels.
func TestSyncDrainsInFlightCopies(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, _ := a.MemAlloc(p, 8<<20)
		pd := a.MemcpyH2DAsync(ptr, 0, nil, 8<<20, 1)
		if err := a.Sync(p); err != nil {
			t.Fatal(err)
		}
		if !pd.Done().Triggered() {
			t.Error("Sync returned while a pipelined copy was still in flight")
		}
		if err := pd.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMemsetRemote(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, _ := a.MemAlloc(p, 1024)
		if err := a.Memset(p, ptr, 0, 1024, 0xEE); err != nil {
			t.Fatal(err)
		}
		if err := a.Memset(p, ptr, 100, 50, 0x11); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1024)
		if err := a.MemcpyD2H(p, got, ptr, 0, 1024); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			want := byte(0xEE)
			if i >= 100 && i < 150 {
				want = 0x11
			}
			if b != want {
				t.Fatalf("byte %d = %#x, want %#x", i, b, want)
			}
		}
		if err := a.Memset(p, ptr, 1000, 100, 0); err == nil {
			t.Error("out-of-range memset accepted")
		}
		if err := a.Memset(p, ptr, 0, -1, 0); err == nil {
			t.Error("negative memset accepted")
		}
	})
}

// Failure injection: a daemon that stopped serving must produce
// ErrTimeout instead of hanging the compute node.
func TestTimeoutOnDeadAccelerator(t *testing.T) {
	opts := DefaultOptions()
	opts.Timeout = 5 * sim.Millisecond
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060()})
	daemon := NewDaemon(w.Comm(1), dev, DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := NewClient(w.Comm(0), opts)
		if err != nil {
			t.Error(err)
			return
		}
		ac := client.Attach(1)
		ptr, err := ac.MemAlloc(p, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		// Kill the daemon, then exercise every request class.
		if err := ac.Shutdown(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := ac.MemAlloc(p, 64); !errors.Is(err, ErrTimeout) {
			t.Errorf("MemAlloc: %v, want ErrTimeout", err)
		}
		if err := ac.MemcpyH2D(p, ptr, 0, nil, 1<<20); !errors.Is(err, ErrTimeout) {
			t.Errorf("H2D: %v, want ErrTimeout", err)
		}
		if err := ac.MemcpyD2H(p, nil, ptr, 0, 1<<20); !errors.Is(err, ErrTimeout) {
			t.Errorf("D2H: %v, want ErrTimeout", err)
		}
		if err := ac.KernelCreate("vadd").Run(p, gpu.Dim3{X: 1}, gpu.Dim3{X: 1}); !errors.Is(err, ErrTimeout) {
			t.Errorf("KernelRun: %v, want ErrTimeout", err)
		}
		if err := ac.Memset(p, ptr, 0, 64, 1); !errors.Is(err, ErrTimeout) {
			t.Errorf("Memset: %v, want ErrTimeout", err)
		}
		if err := ac.Sync(p); !errors.Is(err, ErrTimeout) {
			t.Errorf("Sync: %v, want ErrTimeout", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// With a live daemon the timeout must never fire, even for transfers that
// take longer than a naive guess (the timeout bounds unresponsiveness,
// not total transfer time — so it must be chosen above the largest
// expected round trip; here we just verify normal operation under a
// generous timeout).
func TestTimeoutDoesNotFireOnHealthyAccelerator(t *testing.T) {
	opts := DefaultOptions()
	opts.Timeout = sim.Second
	runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{3}, 1<<20)
		if err := a.MemcpyH2D(p, ptr, 0, payload, len(payload)); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, 1<<20)
		if err := a.MemcpyD2H(p, back, ptr, 0, len(back)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, back) {
			t.Error("round trip corrupted")
		}
	})
}

func TestResetClearsDeviceBetweenHolders(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Reset(p); err != nil {
			t.Fatal(err)
		}
		info, err := a.Info(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.MemUsed != 0 {
			t.Errorf("MemUsed = %d after reset", info.MemUsed)
		}
		// The old pointer is dead.
		if err := a.MemcpyH2D(p, ptr, 0, nil, 64); err == nil {
			t.Error("stale pointer survived reset")
		}
		// And the full capacity is available again.
		if _, err := a.MemAlloc(p, 1<<20); err != nil {
			t.Errorf("alloc after reset: %v", err)
		}
	})
}

// The daemon must survive malformed request bytes on the wire.
func TestDaemonSurvivesGarbageRequests(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		// Garbage behind a whole header gets an error response; a cut header
		// is dropped. Either way the daemon keeps serving.
		alloc := encodeRequest(&request{op: OpMemAlloc, reqID: 1, size: 4096})
		tb.client.comm.Send(p, 1, TagRequest, alloc[:requestHeaderSize+1]) // truncated size
		tb.client.comm.Send(p, 1, TagRequest, alloc[:10])                  // cut in the session field
		tb.client.comm.Send(p, 1, TagRequest, []byte{0xFF})
		// A header that decodes but asks for 2^40 one-byte blocks: it used
		// to pass validate() and kill the stream worker in make().
		tb.client.comm.Send(p, 1, TagRequest, encodeRequest(&request{op: OpMemcpyD2H, reqID: 2, size: 1 << 40, cols: 1, block: 1, depth: 1}))
		if _, err := a.MemAlloc(p, 128); err != nil {
			t.Errorf("daemon unusable after garbage: %v", err)
		}
	})
}
