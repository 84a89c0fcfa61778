package magma

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"dynacc/internal/accel"
	"dynacc/internal/blas"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// Every MAGMA kernel computes on windows decoded into the device's launch
// arena and on Scratch workspaces, so a warm launch allocates nothing.
func TestWarmKernelLaunchAllocatesNothing(t *testing.T) {
	const n, k = 48, 16
	s := sim.New()
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060(), Registry: reg, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("test", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(3))
		mat := func() gpu.Ptr {
			ptr, _ := dev.MemAlloc(p, 8*n*n)
			vals := make([]float64, n*n)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				vals[i+i*n] += n // well conditioned for the solve
			}
			dev.WriteFloat64s(ptr, 0, vals)
			return ptr
		}
		a, b, c, piv := mat(), mat(), mat(), mat()
		dev.WriteFloat64s(piv, 0, []float64{3, 1, 7, 3})
		launches := []struct {
			name string
			l    gpu.Launch
		}{
			{KernelGemm, gemmArgs(nil, blas.NoTrans, blas.Trans, n, n, k, -1, a, 0, n, b, 0, n, 1, c, 0, n)},
			{KernelSyrk, syrkArgs(nil, blas.Lower, blas.NoTrans, n, k, -1, a, 0, n, 1, c, 0, n)},
			{KernelTrsm, trsmArgs(nil, blas.Right, blas.Lower, blas.Trans, blas.NonUnit, n, n, 1, a, 0, n, b, 0, n)},
			{KernelLarfb, larfbArgs(nil, n, n, k, a, 0, n, b, 0, n, c, 0, n)},
			{KernelLaswp, laswpArgs(nil, n, c, 0, n, piv, 0, 4)},
		}
		for _, ln := range launches {
			launch := func() {
				if err := dev.LaunchKernel(p, ln.name, ln.l); err != nil {
					t.Fatalf("%s: %v", ln.name, err)
				}
			}
			launch()
			if allocs := testing.AllocsPerRun(10, launch); allocs != 0 {
				t.Errorf("%s: %.1f allocations a warm launch, want 0", ln.name, allocs)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// A warm execute-mode QR round shaped like sock_soak's, in the simulator,
// where allocation counts repeat: acquire two GPUs, lay out, upload, factor,
// download, free, release.
func TestWarmQRRoundAllocs(t *testing.T) {
	const (
		n, nb, rounds, attempts = 96, 16, 5, 3
		// Measured 68 allocations and 98 710 bytes a round, 54 of them the
		// asynchronous calls' records; the ceilings are 2 % above. It read 176
		// and 184 KiB while launch arguments were copied three times, staged
		// transfers were boxed, and host staging, workspaces, ledger records
		// and barriers were made per operation; and 318 and 839 KiB while
		// every kernel window and workspace, device allocation, host shadow
		// and broadcast staging buffer was made afresh, and every staged
		// transfer took a closure.
		maxAllocs = 69
		maxBytes  = 100684
	)
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 2, Execute: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	matrix, got, tau := make([]float64, n*n), make([]float64, n*n), make([]float64, n)
	for i := range matrix {
		matrix[i] = rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.NB = nb
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		devs := make([]Device, 2)
		round := func() {
			handles, err := node.ARM.Acquire(p, 2, true)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			for i, h := range handles {
				devs[i] = accel.Remote(node.Attach(h))
			}
			dist, err := NewDist(p, devs, n, n, nb, true)
			if err == nil {
				err = dist.Upload(p, matrix)
			}
			if err == nil {
				err = Dgeqrf(p, dist, tau, cfg)
			}
			if err == nil {
				err = dist.Download(p, got)
			}
			if err != nil {
				t.Fatalf("qr: %v", err)
			}
			dist.Free(p)
			if err := node.ARM.Release(p, handles); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			round()
		}
		allocs, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < attempts; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < rounds; j++ {
				round()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/rounds)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		t.Logf("a warm QR round: %d allocations, %d bytes", allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("a warm QR round: %d allocations and %d bytes, want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A warm larfb launch through accel.Remote, issued and waited for.
func TestWarmRemoteLaunchAllocs(t *testing.T) {
	const (
		n, k = 48, 16
		// Measured 1 allocation, the call's record, and 1 057 bytes a
		// launch; the ceilings are 2 % above. It read 3 and 1 825 while the
		// arguments were copied by Kernel.SetArgs and again into the call.
		maxAllocs = 1
		maxBytes  = 1078
	)
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 1, Execute: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 1, true)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		dev := accel.Remote(node.Attach(handles[0]))
		var ptrs [3]gpu.Ptr
		for i := range ptrs {
			if ptrs[i], err = dev.MemAlloc(p, 8*n*n); err != nil {
				t.Fatalf("alloc: %v", err)
			}
		}
		l := larfbArgs(nil, n, n, k, ptrs[0], 0, n, ptrs[1], 0, n, ptrs[2], 0, n)
		launch := func() {
			if err := dev.LaunchAsync(KernelLarfb, l, 0).Wait(p); err != nil {
				t.Fatalf("launch: %v", err)
			}
		}
		var before, after runtime.MemStats
		allocs, bytes := ^uint64(0), ^uint64(0)
		launch()
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			for j := 0; j < 20; j++ {
				launch()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/20)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/20)
		}
		t.Logf("a warm remote launch: %d allocations, %d bytes", allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("a warm remote launch: %d allocations and %d bytes, want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// warmQRRound measures TestWarmQRRoundAllocs' round — acquire two GPUs, lay
// out, upload, factor, download, free, release — three rounds warm: the
// fewest allocations and bytes a round took over three runs of five.
func warmQRRound(t *testing.T) (allocs, bytes uint64) {
	const n, nb = 96, 16
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 2, Execute: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	matrix, got, tau := make([]float64, n*n), make([]float64, n*n), make([]float64, n)
	for i := range matrix {
		matrix[i] = rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.NB = nb
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		devs := make([]Device, 2)
		round := func() {
			handles, err := node.ARM.Acquire(p, 2, true)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			for i, h := range handles {
				devs[i] = accel.Remote(node.Attach(h))
			}
			dist, err := NewDist(p, devs, n, n, nb, true)
			if err == nil {
				err = dist.Upload(p, matrix)
			}
			if err == nil {
				err = Dgeqrf(p, dist, tau, cfg)
			}
			if err == nil {
				err = dist.Download(p, got)
			}
			if err != nil {
				t.Fatalf("qr: %v", err)
			}
			dist.Free(p)
			if err := node.ARM.Release(p, handles); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			round()
		}
		allocs, bytes = ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < 5; j++ {
				round()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/5)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/5)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs, bytes
}

// A warm QR round once every Pending's Wait hands its call record back.
func TestWarmQRRoundRecyclesCalls(t *testing.T) {
	const (
		// Measured 14 allocations and 50 224 bytes a round; the ceilings are
		// 2 % above. It read 68 and 98 710 while the 54 asynchronous copies'
		// and launches' call records were made afresh.
		maxAllocs = 14
		maxBytes  = 51228
	)
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	allocs, bytes := warmQRRound(t)
	t.Logf("a warm QR round: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a warm QR round: %d allocations and %d bytes, want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// A warm larfb launch through accel.Remote, issued and waited for, past the
// daemon's reply-cache window: the Wait hands the call record back for the
// next launch, so none allocates.
func TestWarmRemoteLaunchAllocatesNothing(t *testing.T) {
	const n, k, launches = 48, 16, 50
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 1, Execute: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 1, true)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		dev := accel.Remote(node.Attach(handles[0]))
		var ptrs [3]gpu.Ptr
		for i := range ptrs {
			if ptrs[i], err = dev.MemAlloc(p, 8*n*n); err != nil {
				t.Fatalf("alloc: %v", err)
			}
		}
		l := larfbArgs(nil, n, n, k, ptrs[0], 0, n, ptrs[1], 0, n, ptrs[2], 0, n)
		launch := func() {
			if err := dev.LaunchAsync(KernelLarfb, l, 0).Wait(p); err != nil {
				t.Fatalf("launch: %v", err)
			}
		}
		// The daemon's reply cache fills its 512 slots before it recycles them.
		for i := 0; i < 600; i++ {
			launch()
		}
		allocs, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < launches; j++ {
				launch()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d warm remote launches: %d allocations, %d bytes", launches, allocs, bytes)
		if allocs != 0 {
			t.Errorf("%d warm remote launches: %d allocations and %d bytes, want none", launches, allocs, bytes)
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
