package gpu

import (
	"math"
	"strings"
	"testing"

	"dynacc/internal/sim"
)

// A copy past the requested size of an allocation fails the same way in
// both modes, before any engine time or byte is charged: the 256-byte
// rounding is the allocator's, not the caller's.
func TestCopyBoundIsTheRequestedSize(t *testing.T) {
	for _, exec := range []bool{false, true} {
		inProc(t, func(p *sim.Proc) {
			d := testDevice(t, p.Sim(), exec)
			ptr, _ := d.MemAlloc(p, 100)
			var src, dst []byte
			if exec {
				src, dst = make([]byte, 50), make([]byte, 50)
			}
			t0 := p.Now()
			errIn := d.CopyH2D(p, ptr, 100, src, 50, true)
			errOut := d.CopyD2H(p, dst, ptr, 100, 50, false)
			for _, err := range []error{errIn, errOut} {
				if err == nil || !strings.Contains(err.Error(), "beyond allocation of 100 bytes") {
					t.Errorf("execute=%v: copy into [100,150) of 100 bytes: %v", exec, err)
				}
			}
			if st := d.Stats(); st.BytesIn != 0 || st.BytesOut != 0 || st.Busy != 0 || p.Now() != t0 {
				t.Errorf("execute=%v: a refused copy was charged: %+v, %v", exec, st, p.Now().Sub(t0))
			}
			if err := d.CopyH2D(p, ptr, 50, src, 50, true); err != nil {
				t.Errorf("execute=%v: copy into [50,100): %v", exec, err)
			}
		})
	}
}

// Device memory is one slab: a freed range serves the next allocation that
// fits without allocating host memory, and reads all zeros. A Reset keeps the
// slab too.
func TestSlabReuseAllocatesNothing(t *testing.T) {
	const n = 64 << 10
	inProc(t, func(p *sim.Proc) {
		d := testDevice(t, p.Sim(), true)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i) | 1
		}
		var ptr Ptr
		round := func() {
			var err error
			if ptr, err = d.MemAlloc(p, n); err != nil {
				t.Fatal(err)
			}
			raw, _ := d.Bytes(ptr, 0, n)
			for i, b := range raw {
				if b != 0 {
					t.Fatalf("fresh allocation reads %#x at %d", b, i)
				}
			}
			if err := d.CopyH2D(p, ptr, 0, src, n, true); err != nil {
				t.Fatal(err)
			}
			if err := d.MemFree(p, ptr); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("alloc, write, free: %.1f allocations a round, want 0", allocs)
		}
		d.MemAlloc(p, 3*n)
		d.Reset(p)
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("alloc, write, free after a Reset: %.1f allocations a round, want 0", allocs)
		}
	})
}

// Under DYNACC_POISON a kernel that keeps a ReadFloat64s window past its
// launch reads NaN in the next one, and a freed range reads the scribble.
func TestPoisonRetiresArenaAndFreedMemory(t *testing.T) {
	if !poison {
		t.Skip("DYNACC_POISON=1 only")
	}
	s := sim.New()
	d := testDevice(t, s, true)
	var stash []float64
	d.Registry().Register(FuncKernel{KernelName: "stash", ExecFn: func(l Launch, dev *Device) error {
		if stash != nil && !math.IsNaN(stash[0]) {
			t.Errorf("a window kept past its launch reads %v, want NaN", stash[0])
		}
		vals, err := dev.ReadFloat64s(l.Arg(0).Ptr, 0, 4)
		stash = vals
		return err
	}})
	s.Spawn("test", func(p *sim.Proc) {
		ptr, _ := d.MemAlloc(p, 32)
		d.WriteFloat64s(ptr, 0, []float64{1, 2, 3, 4})
		for i := 0; i < 2; i++ {
			if err := d.LaunchKernel(p, "stash", Launch{Args: []Value{PtrArg(ptr)}}); err != nil {
				t.Fatal(err)
			}
		}
		raw, _ := d.Bytes(ptr, 0, 32)
		d.MemFree(p, ptr)
		if raw[0] != poisonByte {
			t.Errorf("a freed range reads %#x, want the scribble", raw[0])
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
