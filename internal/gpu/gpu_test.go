package gpu

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dynacc/internal/sim"
)

// testDevice builds a small execute-mode device with a fast test model.
func testDevice(t *testing.T, s *sim.Simulation, exec bool) *Device {
	t.Helper()
	m := TeslaC1060()
	m.MemBytes = 1 << 20 // 1 MiB keeps OOM paths testable
	d, err := NewDevice(s, Config{Model: m, Registry: NewRegistry(), Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// inProc runs fn inside a single simulation process and completes the sim.
func inProc(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	s := sim.New()
	s.Spawn("test", fn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidate(t *testing.T) {
	if err := TeslaC1060().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TeslaC1060()
	bad.PeakDP = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero peak accepted")
	}
	bad = TeslaC1060()
	bad.MemBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory accepted")
	}
	bad = TeslaC1060()
	bad.H2DPinned.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero copy bandwidth accepted")
	}
}

func TestCopyModelTime(t *testing.T) {
	cm := CopyModel{Overhead: 10 * sim.Microsecond, Bandwidth: 1e9}
	if got := cm.Time(0); got != 10*sim.Microsecond {
		t.Errorf("Time(0) = %v", got)
	}
	if got := cm.Time(1000); got != 11*sim.Microsecond {
		t.Errorf("Time(1000) = %v", got)
	}
}

func TestC1060CalibrationAnchors(t *testing.T) {
	m := TeslaC1060()
	const n = 64 << 20
	// Paper Fig. 7: ~5700 MiB/s pinned, ~4700 MiB/s pageable H2D at 64 MiB.
	pinned := float64(n) / m.H2DPinned.Time(n).Seconds() / (1 << 20)
	pageable := float64(n) / m.H2DPageable.Time(n).Seconds() / (1 << 20)
	if pinned < 5600 || pinned > 5800 {
		t.Errorf("pinned H2D = %.0f MiB/s, want ~5700", pinned)
	}
	if pageable < 4600 || pageable > 4800 {
		t.Errorf("pageable H2D = %.0f MiB/s, want ~4700", pageable)
	}
	if m.PeakDP != 78e9 {
		t.Errorf("C1060 DP peak = %g", m.PeakDP)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, err := d.MemAlloc(p, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if ptr.IsNull() {
			t.Fatal("null pointer from alloc")
		}
		if d.MemUsed() != 1024 { // rounded to 256
			t.Errorf("MemUsed = %d, want 1024", d.MemUsed())
		}
		if err := d.MemFree(p, ptr); err != nil {
			t.Fatal(err)
		}
		if d.MemUsed() != 0 {
			t.Errorf("MemUsed after free = %d", d.MemUsed())
		}
	})
}

func TestAllocOOMAndRecovery(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		big, err := d.MemAlloc(p, 900*1024)
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.MemAlloc(p, 200*1024)
		if err == nil {
			t.Fatal("expected OOM")
		}
		if _, ok := err.(*oomError); !ok {
			t.Fatalf("error is not OOM: %v", err)
		}
		if err := d.MemFree(p, big); err != nil {
			t.Fatal(err)
		}
		if _, err := d.MemAlloc(p, 200*1024); err != nil {
			t.Fatalf("alloc after free: %v", err)
		}
	})
}

func TestFreeInvalidPointer(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		if err := d.MemFree(p, Ptr(12345)); err == nil {
			t.Error("free of bogus pointer succeeded")
		}
		if err := d.MemFree(p, 0); err == nil {
			t.Error("free of null pointer succeeded")
		}
	})
}

func TestAllocRejectsNonPositive(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		if _, err := d.MemAlloc(p, 0); err == nil {
			t.Error("zero-size alloc succeeded")
		}
		if _, err := d.MemAlloc(p, -4); err == nil {
			t.Error("negative alloc succeeded")
		}
	})
}

func TestCoalescingAllowsFullReuse(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		var ptrs []Ptr
		for i := 0; i < 3; i++ {
			ptr, err := d.MemAlloc(p, 256*1024)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, ptr)
		}
		// Free out of order; the three regions must coalesce back into one
		// block big enough for a 768 KiB allocation.
		for _, i := range []int{1, 0, 2} {
			if err := d.MemFree(p, ptrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.MemAlloc(p, 768*1024); err != nil {
			t.Fatalf("coalesced alloc failed: %v", err)
		}
	})
}

func TestCopyRoundTripExecuteMode(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, err := d.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 4096)
		for i := range src {
			src[i] = byte(i * 7)
		}
		if err := d.CopyH2D(p, ptr, 0, src, len(src), true); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 4096)
		if err := d.CopyD2H(p, dst, ptr, 0, len(dst), true); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("byte %d: got %d want %d", i, dst[i], src[i])
			}
		}
	})
}

func TestCopyWithOffsets(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, _ := d.MemAlloc(p, 1024)
		if err := d.CopyH2D(p, ptr, 100, []byte("abc"), 3, false); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 3)
		if err := d.CopyD2H(p, got, ptr, 100, 3, false); err != nil {
			t.Fatal(err)
		}
		if string(got) != "abc" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestCopyBoundsChecked(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, _ := d.MemAlloc(p, 256)
		if err := d.CopyH2D(p, ptr, 200, nil, 100, true); err == nil {
			t.Error("out-of-bounds H2D succeeded")
		}
		if err := d.CopyD2H(p, nil, ptr, 0, 999, true); err == nil {
			t.Error("out-of-bounds D2H succeeded")
		}
		if err := d.CopyH2D(p, Ptr(555), 0, nil, 1, true); err == nil {
			t.Error("copy to invalid pointer succeeded")
		}
		if err := d.CopyH2D(p, ptr, 0, []byte{1, 2}, 5, true); err == nil {
			t.Error("mismatched src length accepted")
		}
	})
}

func TestCopyTimingPinnedVsPageable(t *testing.T) {
	// Pinned copies must be faster than pageable for the same size, and
	// the charged time must equal the model's closed form.
	s := sim.New()
	d := testDevice(t, s, false)
	const n = 512 * 1024
	var tPinned, tPageable sim.Duration
	s.Spawn("test", func(p *sim.Proc) {
		ptr, _ := d.MemAlloc(p, n)
		start := p.Now()
		if err := d.CopyH2D(p, ptr, 0, nil, n, true); err != nil {
			t.Error(err)
		}
		tPinned = p.Now().Sub(start)
		start = p.Now()
		if err := d.CopyH2D(p, ptr, 0, nil, n, false); err != nil {
			t.Error(err)
		}
		tPageable = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tPinned >= tPageable {
		t.Errorf("pinned %v not faster than pageable %v", tPinned, tPageable)
	}
	if want := d.Model().H2DPinned.Time(n); tPinned != want {
		t.Errorf("pinned copy took %v, model says %v", tPinned, want)
	}
}

func TestDMAEngineSerializesPinnedCopies(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, false)
	const n = 256 * 1024
	var done sim.Time
	var ptr Ptr
	s.Spawn("setup", func(p *sim.Proc) {
		ptr, _ = d.MemAlloc(p, n)
		for i := 0; i < 2; i++ {
			p.Spawn("copier", func(cp *sim.Proc) {
				if err := d.CopyH2D(cp, ptr, 0, nil, n, true); err != nil {
					t.Error(err)
				}
				if cp.Now() > done {
					done = cp.Now()
				}
			})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	single := d.Model().H2DPinned.Time(n)
	if done.Sub(0) < 2*single {
		t.Errorf("two pinned copies finished at %v, want >= %v (serialized on DMA engine)", done, 2*single)
	}
}

func TestCopyD2D(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		a, _ := d.MemAlloc(p, 256)
		b, _ := d.MemAlloc(p, 256)
		if err := d.CopyH2D(p, a, 0, []byte("data!"), 5, true); err != nil {
			t.Fatal(err)
		}
		if err := d.CopyD2D(p, b, 10, a, 0, 5); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5)
		if err := d.CopyD2H(p, got, b, 10, 5, true); err != nil {
			t.Fatal(err)
		}
		if string(got) != "data!" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestLaunchKernelExecutesAndCharges(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, true)
	d.Registry().Register(FuncKernel{
		KernelName: "scale",
		CostFn: func(l Launch, m Model) sim.Duration {
			return 50 * sim.Microsecond
		},
		ExecFn: func(l Launch, dev *Device) error {
			ptr := l.Arg(0).Ptr
			n := int(l.Arg(1).Int)
			f := l.Arg(2).F64
			vals, err := dev.ReadFloat64s(ptr, 0, n)
			if err != nil {
				return err
			}
			for i := range vals {
				vals[i] *= f
			}
			return dev.WriteFloat64s(ptr, 0, vals)
		},
	})
	var elapsed sim.Duration
	s.Spawn("test", func(p *sim.Proc) {
		ptr, _ := d.MemAlloc(p, 8*4)
		if err := d.WriteFloat64s(ptr, 0, []float64{1, 2, 3, 4}); err != nil {
			t.Error(err)
		}
		start := p.Now()
		err := d.LaunchKernel(p, "scale", Launch{
			Grid: Dim3{X: 1}, Block: Dim3{X: 4},
			Args: []Value{PtrArg(ptr), IntArg(4), FloatArg(2.5)},
		})
		if err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(start)
		got, _ := d.ReadFloat64s(ptr, 0, 4)
		want := []float64{2.5, 5, 7.5, 10}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("val[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := d.Model().LaunchOverhead + 50*sim.Microsecond
	if elapsed != want {
		t.Errorf("launch took %v, want %v", elapsed, want)
	}
	if st := d.Stats(); st.Launches != 1 {
		t.Errorf("launches = %d", st.Launches)
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		err := d.LaunchKernel(p, "nope", Launch{})
		if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestKernelsSerializeOnComputeEngine(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, false)
	d.Registry().Register(FuncKernel{
		KernelName: "busy",
		CostFn:     func(Launch, Model) sim.Duration { return 100 * sim.Microsecond },
	})
	var last sim.Time
	for i := 0; i < 3; i++ {
		s.Spawn("launcher", func(p *sim.Proc) {
			if err := d.LaunchKernel(p, "busy", Launch{}); err != nil {
				t.Error(err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	minTotal := 3 * (100*sim.Microsecond + d.Model().LaunchOverhead)
	if sim.Duration(last) < minTotal {
		t.Errorf("3 kernels done at %v, want >= %v (serialized)", last, minTotal)
	}
}

func TestModelModeRejectsDataAccess(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		ptr, _ := d.MemAlloc(p, 64)
		if _, err := d.ReadFloat64s(ptr, 0, 4); err == nil {
			t.Error("ReadFloat64s succeeded in model mode")
		}
		// Sized copies must still work and charge time.
		if err := d.CopyH2D(p, ptr, 0, nil, 64, true); err != nil {
			t.Errorf("sized copy failed: %v", err)
		}
	})
}

func TestDeviceStatsCountBytes(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		ptr, _ := d.MemAlloc(p, 1024)
		_ = d.CopyH2D(p, ptr, 0, nil, 1024, true)
		_ = d.CopyD2H(p, nil, ptr, 0, 512, false)
		st := d.Stats()
		if st.BytesIn != 1024 || st.BytesOut != 512 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestValueStringAndArgPanic(t *testing.T) {
	for _, v := range []Value{PtrArg(16), IntArg(-3), FloatArg(2.5), {}} {
		if v.String() == "" {
			t.Error("empty String()")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Arg out of range did not panic")
		}
	}()
	Launch{}.Arg(0)
}

// TestDim3Count: a kernel's cost model and body see the grid and block
// extents it was launched with, zero components included.
func TestDim3Count(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, true)
	want := Launch{Grid: Dim3{X: 4, Y: 2, Z: 3}, Block: Dim3{X: 5}}
	var costSaw, execSaw Launch
	d.Registry().Register(FuncKernel{
		KernelName: "dims",
		CostFn:     func(l Launch, m Model) sim.Duration { costSaw = l; return sim.Microsecond },
		ExecFn:     func(l Launch, dev *Device) error { execSaw = l; return nil },
	})
	s.Spawn("test", func(p *sim.Proc) {
		if err := d.LaunchKernel(p, "dims", want); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, got := range []Launch{costSaw, execSaw} {
		if got.Grid != want.Grid || got.Block != want.Block {
			t.Errorf("kernel saw grid %+v block %+v, want %+v and %+v", got.Grid, got.Block, want.Grid, want.Block)
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Register(FuncKernel{KernelName: "zeta"})
	r.Register(FuncKernel{KernelName: "alpha"})
	names := r.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names = %v", names)
	}
	if _, ok := r.Lookup("alpha"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("Lookup of missing kernel succeeded")
	}
}

// Property: the allocator never hands out overlapping regions and frees
// restore all capacity, for arbitrary alloc/free sequences.
func TestPropertyAllocatorNoOverlapFullRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newAllocator(1<<20, false)
		type live struct {
			ptr  Ptr
			size uint64
		}
		var lives []live
		overlap := func(x live, y live) bool {
			return uint64(x.ptr) < uint64(y.ptr)+y.size && uint64(y.ptr) < uint64(x.ptr)+x.size
		}
		for op := 0; op < 100; op++ {
			if len(lives) == 0 || rng.Intn(2) == 0 {
				n := 1 + rng.Intn(64*1024)
				ptr, err := a.alloc(n)
				if err != nil {
					continue // OOM is legal
				}
				nl := live{ptr: ptr, size: roundUp(uint64(n))}
				for _, l := range lives {
					if overlap(nl, l) {
						return false
					}
				}
				lives = append(lives, nl)
			} else {
				i := rng.Intn(len(lives))
				if err := a.freePtr(lives[i].ptr); err != nil {
					return false
				}
				lives = append(lives[:i], lives[i+1:]...)
			}
		}
		for _, l := range lives {
			if err := a.freePtr(l.ptr); err != nil {
				return false
			}
		}
		// After freeing everything the allocator must satisfy a maximal
		// request again.
		_, err := a.alloc(1<<20 - allocAlign)
		return err == nil && a.used == roundUp(1<<20-allocAlign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: H2D then D2H round-trips arbitrary payloads bit-exactly in
// execute mode.
func TestPropertyCopyRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if len(payload) > 32*1024 {
			payload = payload[:32*1024]
		}
		ok := true
		s := sim.New()
		m := TeslaC1060()
		m.MemBytes = 1 << 20
		d, err := NewDevice(s, Config{Model: m, Execute: true})
		if err != nil {
			return false
		}
		s.Spawn("rt", func(p *sim.Proc) {
			ptr, err := d.MemAlloc(p, len(payload))
			if err != nil {
				ok = false
				return
			}
			if err := d.CopyH2D(p, ptr, 0, payload, len(payload), true); err != nil {
				ok = false
				return
			}
			back := make([]byte, len(payload))
			if err := d.CopyD2H(p, back, ptr, 0, len(back), false); err != nil {
				ok = false
				return
			}
			for i := range back {
				if back[i] != payload[i] {
					ok = false
					return
				}
			}
		})
		return s.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultingKernelReturnsError(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, true)
	d.Registry().Register(FuncKernel{
		KernelName: "bad-arity",
		ExecFn: func(l Launch, dev *Device) error {
			_ = l.Arg(5) // panics: launched without enough arguments
			return nil
		},
	})
	s.Spawn("test", func(p *sim.Proc) {
		err := d.LaunchKernel(p, "bad-arity", Launch{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
		if err == nil || !strings.Contains(err.Error(), "faulted") {
			t.Errorf("err = %v, want kernel fault", err)
		}
		// The device must stay usable afterwards.
		if _, err := d.MemAlloc(p, 64); err != nil {
			t.Errorf("device unusable after kernel fault: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemsetDevice(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, _ := d.MemAlloc(p, 256)
		if err := d.Memset(p, ptr, 0, 256, 0xAB); err != nil {
			t.Fatal(err)
		}
		if err := d.Memset(p, ptr, 64, 16, 0x01); err != nil {
			t.Fatal(err)
		}
		buf, err := d.Bytes(ptr, 0, 256)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			want := byte(0xAB)
			if i >= 64 && i < 80 {
				want = 0x01
			}
			if b != want {
				t.Fatalf("byte %d = %#x, want %#x", i, b, want)
			}
		}
		if err := d.Memset(p, ptr, 200, 100, 0); err == nil {
			t.Error("out-of-range memset accepted")
		}
	})
}

func TestDeviceResetClearsEverything(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		p1, _ := d.MemAlloc(p, 1024)
		p2, _ := d.MemAlloc(p, 2048)
		d.Reset(p)
		if d.MemUsed() != 0 {
			t.Errorf("MemUsed = %d after reset", d.MemUsed())
		}
		if err := d.ValidRange(p1, 0, 1); err == nil {
			t.Error("stale pointer valid after reset")
		}
		if err := d.ValidRange(p2, 0, 1); err == nil {
			t.Error("stale pointer valid after reset")
		}
		// Full capacity available again.
		if _, err := d.MemAlloc(p, 1<<20-512); err != nil {
			t.Errorf("alloc after reset: %v", err)
		}
	})
}

func TestCopyEngineTransferTiming(t *testing.T) {
	s := sim.New()
	d := testDevice(t, s, false)
	var pinnedT, pioT sim.Duration
	s.Spawn("test", func(p *sim.Proc) {
		const n = 1 << 20
		start := p.Now()
		d.CopyEngineTransfer(p, n, true, true)
		pinnedT = p.Now().Sub(start)
		start = p.Now()
		d.CopyEngineTransfer(p, n, false, false)
		pioT = p.Now().Sub(start)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := d.Model().H2DPinned.Time(1 << 20); pinnedT != want {
		t.Errorf("pinned engine transfer %v, want %v", pinnedT, want)
	}
	if want := d.Model().D2HPageable.Time(1 << 20); pioT != want {
		t.Errorf("pageable engine transfer %v, want %v", pioT, want)
	}
	st := d.Stats()
	if st.BytesIn != 1<<20 || st.BytesOut != 1<<20 {
		t.Errorf("stats after engine transfers: %+v", st)
	}
}

func TestScatterGatherColumnsDirect(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		ptr, _ := d.MemAlloc(p, 1024)
		packed := []byte("aaaabbbbcccc") // 3 columns of 4 bytes
		if err := d.ScatterColumns(ptr, 8, 4, 3, 32, packed); err != nil {
			t.Fatal(err)
		}
		got, err := d.GatherColumns(ptr, 8, 4, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(packed) {
			t.Errorf("gather = %q", got)
		}
		// Geometry and range validation.
		if err := d.ScatterColumns(ptr, 0, 8, 2, 4, nil); err == nil {
			t.Error("pitch < colBytes accepted")
		}
		if err := d.ScatterColumns(ptr, 1000, 64, 3, 64, nil); err == nil {
			t.Error("out-of-range scatter accepted")
		}
		if _, err := d.GatherColumns(ptr, 0, -1, 1, 1); err == nil {
			t.Error("negative colBytes accepted")
		}
		if err := d.ScatterColumns(ptr, 0, 4, 2, 8, []byte("xyz")); err == nil {
			t.Error("mismatched scatter payload accepted")
		}
		// Zero columns is a no-op.
		if err := d.ScatterColumns(ptr, 0, 4, 0, 8, nil); err != nil {
			t.Errorf("zero-column scatter: %v", err)
		}
	})
}

func TestModelModeScatterGatherSkipData(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), false)
		ptr, _ := d.MemAlloc(p, 256)
		if err := d.ScatterColumns(ptr, 0, 8, 2, 16, nil); err != nil {
			t.Errorf("model-mode scatter: %v", err)
		}
		data, err := d.GatherColumns(ptr, 0, 8, 2, 16)
		if err != nil || data != nil {
			t.Errorf("model-mode gather = %v, %v", data, err)
		}
	})
}

func TestDeviceAccessors(t *testing.T) {
	s := sim.New()
	d, err := NewDevice(s, Config{Name: "mygpu", Model: TeslaC1060(), Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "mygpu" {
		t.Errorf("Name = %q", d.Name())
	}
	if !d.ExecuteMode() {
		t.Error("ExecuteMode false")
	}
	if d.AsyncSetupCost() != d.Model().AsyncSetup {
		t.Error("AsyncSetupCost mismatch")
	}
	// Default name falls back to the model name.
	d2, _ := NewDevice(s, Config{Model: TeslaC1060()})
	if d2.Name() != "tesla-c1060" {
		t.Errorf("default name = %q", d2.Name())
	}
	// OOM error message mentions the sizes.
	err = &oomError{want: 100, free: 50}
	if !strings.Contains(err.Error(), "100") || !strings.Contains(err.Error(), "50") {
		t.Errorf("oom message: %v", err)
	}
}

func TestCopyD2DErrorPaths(t *testing.T) {
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		a, _ := d.MemAlloc(p, 64)
		if err := d.CopyD2D(p, a, 0, Ptr(999), 0, 8); err == nil {
			t.Error("invalid src accepted")
		}
		if err := d.CopyD2D(p, Ptr(999), 0, a, 0, 8); err == nil {
			t.Error("invalid dst accepted")
		}
		if err := d.CopyD2D(p, a, 60, a, 0, 16); err == nil {
			t.Error("out-of-range dst accepted")
		}
	})
}

// FillBytes backs Memset and the front-end's memset shadow: every length
// around the doubling steps, zero and non-zero, and nothing outside the
// slice.
func TestFillBytes(t *testing.T) {
	for _, v := range []byte{0, 0xA5} {
		for n := 0; n <= 67; n++ {
			b := bytes.Repeat([]byte{0x3C}, n+2)
			FillBytes(b[1:n+1], v)
			want := append(append([]byte{0x3C}, bytes.Repeat([]byte{v}, n)...), 0x3C)
			if !bytes.Equal(b, want) {
				t.Fatalf("FillBytes(%d bytes, %#x) = %x", n, v, b)
			}
		}
	}
}
