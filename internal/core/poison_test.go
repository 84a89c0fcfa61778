package core

// The records the serving path hands back for reuse — a launch's argument
// array, a ledger record, a daemon's session record — are scribbled over
// and retired under DYNACC_POISON=1, so a holder that still uses one after
// its owner took it back fails. These tests turn the guard on themselves.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// withPoison turns the record guard on for the rest of the test.
func withPoison(t *testing.T) {
	old := poisonFreed
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = old })
}

// wantPanic runs fn and fails unless it panics with msg.
func wantPanic(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), msg) {
			t.Errorf("got panic %v, want %q", r, msg)
		}
	}()
	fn()
}

// vaddLaunch adds n float64s at x and y into z.
func vaddLaunch(x, y, z gpu.Ptr, n int) gpu.Launch {
	return gpu.Launch{Grid: gpu.Dim3{X: 1}, Block: gpu.Dim3{X: 1},
		Args: []gpu.Value{gpu.PtrArg(x), gpu.PtrArg(y), gpu.PtrArg(z), gpu.IntArg(int64(n))}}
}

// A launch's arguments go back to the client when its call is over; a resend
// encoded from them after that is refused.
func TestLaunchArgsRetiredUnderPoison(t *testing.T) {
	withPoison(t)
	cb := newChaosBed(t, 1, true, DefaultOptions())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		x, err := a.MemAlloc(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		pd := a.LaunchAsync("vadd", vaddLaunch(x, x, x, 8), 0)
		if err := pd.Wait(p); err != nil {
			t.Fatalf("launch: %v", err)
		}
		reg := gpu.NewRegistry()
		registerTestKernels(reg)
		var q request
		err = q.decode(encodeRequestTo(wire.NewWriter(0), &pd.cl.q), reg)
		if err == nil || !strings.Contains(err.Error(), "unknown kernel arg kind 0") {
			t.Errorf("a launch re-encoded after its call was over decoded with %v, want its arguments refused", err)
		}
	})
}

// A launch whose header is lost is resent with its own arguments, although
// another launch was issued meanwhile: the array goes back only when the
// call is over.
func TestLaunchResendCarriesItsArguments(t *testing.T) {
	const n = 8
	opts := DefaultOptions()
	opts.Timeout, opts.Retries = 100*sim.Microsecond, 2
	cb := newChaosBed(t, 1, true, opts)
	drop := false
	cb.world.SetLinkFilter(func(src, _ int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
		if src == 0 && tag == TagRequest && drop {
			drop = false
			return minimpi.LinkVerdict{Drop: true}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		var ptrs [4]gpu.Ptr // x, y, x+y, x+x
		for i := range ptrs {
			var err error
			if ptrs[i], err = a.MemAlloc(p, 8*n); err != nil {
				t.Fatal(err)
			}
		}
		x, y := make([]byte, 8*n), make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(x[8*i:], math.Float64bits(float64(i)))
			binary.LittleEndian.PutUint64(y[8*i:], math.Float64bits(100))
		}
		if err := a.MemcpyH2D(p, ptrs[0], 0, x, 8*n); err != nil {
			t.Fatal(err)
		}
		if err := a.MemcpyH2D(p, ptrs[1], 0, y, 8*n); err != nil {
			t.Fatal(err)
		}
		drop = true
		first := a.LaunchAsync("vadd", vaddLaunch(ptrs[0], ptrs[1], ptrs[2], n), 0)
		second := a.LaunchAsync("vadd", vaddLaunch(ptrs[0], ptrs[0], ptrs[3], n), 0)
		if err := first.Wait(p); err != nil {
			t.Fatalf("the resent launch: %v", err)
		}
		if drop {
			t.Fatal("the first launch's header was not dropped")
		}
		if err := second.Wait(p); err != nil {
			t.Fatalf("the second launch: %v", err)
		}
		got := make([]byte, 8*n)
		if err := a.MemcpyD2H(p, got, ptrs[2], 0, 8*n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(got[8*i:])); v != float64(i)+100 {
				t.Fatalf("x+y[%d] = %v, want %v: the resend carried another launch's arguments", i, v, float64(i)+100)
			}
		}
	})
}

// A freed allocation's ledger record is the next MemAlloc's; under the guard
// it is retired, and a use of it panics.
func TestLedgerRecordRetiredUnderPoison(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		alloc := func() (gpu.Ptr, *allocRecord) {
			ptr, err := a.MemAlloc(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			return ptr, a.allocs[ptr]
		}
		free := func(ptr gpu.Ptr) {
			if err := a.MemFree(p, ptr); err != nil {
				t.Fatal(err)
			}
		}
		ptr, rec := alloc()
		free(ptr)
		ptr, again := alloc()
		if again != rec && !poisonFreed {
			t.Error("the next MemAlloc did not reuse the freed allocation's record")
		}
		free(ptr)
		withPoison(t)
		ptr, rec = alloc()
		free(ptr)
		wantPanic(t, "use of a freed allocation record", func() { rec.holds(window{0, 8, 1, 8}) })
	})
}

// A closed session's record is the next open's; under the guard it is
// retired, and a use of it panics.
func TestSessionRecordRetiredUnderPoison(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		d := tb.daemons[0]
		open := func() (*Accel, *session) {
			h, err := attachSession(p, tb.client, 1)
			if err != nil {
				t.Fatal(err)
			}
			return h, d.sessions[sessKey{src: 0, id: h.Session()}]
		}
		closeSession := func(h *Accel) {
			if err := h.CloseSession(p); err != nil {
				t.Fatal(err)
			}
		}
		h, sess := open()
		closeSession(h)
		h, again := open()
		if again != sess && !poisonFreed {
			t.Error("the next open did not reuse the closed session's record")
		}
		closeSession(h)
		withPoison(t)
		h, sess = open()
		closeSession(h)
		wantPanic(t, "use of a retired session record", func() { _ = sess.checkOwned(&request{op: OpMemFree, ptr: 256}) })
	})
}

// A Pending's Wait hands its call back to the client, for the next call to
// reuse; under the guard the record is retired, and a second Wait panics
// naming the op, though another call is in flight meanwhile.
func TestSecondWaitPanicsUnderPoison(t *testing.T) {
	withPoison(t)
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		pd := a.MemsetAsync(ptr, 0, 4096, 1, 0)
		if err := pd.Wait(p); err != nil {
			t.Fatal(err)
		}
		next := a.MemsetAsync(ptr, 0, 4096, 2, 0)
		wantPanic(t, fmt.Sprintf("Wait on a Pending already handed back (op %d)", OpMemset), func() { _ = pd.Wait(p) })
		if err := next.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
}
