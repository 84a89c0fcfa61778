package core

// Command-batching suite: the stream-ordered command buffer must coalesce
// wire messages without changing results, ordering, or (in model mode)
// determinism, and its per-command error reporting must pin failures to
// an index and mark everything after them skipped.

import (
	"bytes"
	"errors"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// launchStorm runs `launches` small kernel launches plus one Sync and
// returns how many wire messages the client posted for them and how long
// the storm took in virtual time.
func launchStorm(t *testing.T, opts Options, launches int) (msgs int64, took sim.Duration) {
	t.Helper()
	runTestbed(t, 1, false, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		k := a.KernelCreate("tiny")
		before, start := tb.client.Comm().WireStats().Msgs, p.Now()
		pends := make([]*Pending, 0, launches)
		for i := 0; i < launches; i++ {
			pends = append(pends, k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 0))
		}
		if err := a.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		for i, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Fatalf("launch %d: %v", i, err)
			}
		}
		msgs, took = tb.client.Comm().WireStats().Msgs-before, p.Now().Sub(start)
	})
	return msgs, took
}

// TestBatchingCoalescesLaunchStorm pins the command buffer's acceptance
// bar: a storm of small launches costs at least 3x fewer wire messages
// batched than unbatched, and ends sooner in virtual time.
func TestBatchingCoalescesLaunchStorm(t *testing.T) {
	const launches = 500
	unbatched, slow := launchStorm(t, DefaultOptions(), launches)
	batched, fast := launchStorm(t, BatchedOptions(), launches)
	if fast >= slow {
		t.Errorf("batched storm took %v, unbatched %v: want batched shorter", fast, slow)
	}
	if unbatched != launches+1 {
		t.Errorf("unbatched storm posted %d messages, want %d (one per launch plus sync)", unbatched, launches+1)
	}
	if batched >= unbatched {
		t.Fatalf("batching did not reduce wire messages: %d batched vs %d unbatched", batched, unbatched)
	}
	if 3*batched > unbatched {
		t.Errorf("batched storm posted %d messages vs %d unbatched, want at least 3x fewer", batched, unbatched)
	}
}

// TestBatchingDaemonStats verifies the daemon accounts a command buffer
// as one request carrying many commands.
func TestBatchingDaemonStats(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		k := a.KernelCreate("slow")
		base := tb.daemons[0].Stats().Requests
		pends := make([]*Pending, 0, 8)
		for i := 0; i < 8; i++ {
			pends = append(pends, k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 0))
		}
		if pd := a.Flush(0); pd == nil {
			t.Fatal("Flush with recorded commands returned nil")
		}
		for _, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		st := tb.daemons[0].Stats()
		if st.Batches != 1 || st.BatchedOps != 8 {
			t.Errorf("Batches=%d BatchedOps=%d, want 1 and 8", st.Batches, st.BatchedOps)
		}
		if got := st.Requests - base; got != 1 {
			t.Errorf("batch admitted as %d requests, want 1", got)
		}
	})
}

// vaddWorkload uploads two vectors, zeroes the output, launches vadd and
// downloads the result, returning the output bytes. With batching on, the
// uploads are small enough to ride inline with the memset and launch.
func vaddWorkload(t *testing.T, opts Options) []byte {
	t.Helper()
	const n = 256 // 2 KiB per buffer: inline-eligible under BatchedOptions
	out := make([]byte, 8*n)
	runTestbed(t, 1, true, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		alloc := func() gpu.Ptr {
			ptr, err := a.MemAlloc(p, 8*n)
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			return ptr
		}
		pa, pb, pc := alloc(), alloc(), alloc()
		av := make([]float64, n)
		bv := make([]float64, n)
		for i := range av {
			av[i] = float64(i)
			bv[i] = float64(3 * i)
		}
		up1 := a.MemcpyH2DAsync(pa, 0, minimpi.F64Bytes(av), 8*n, 0)
		up2 := a.MemcpyH2DAsync(pb, 0, minimpi.F64Bytes(bv), 8*n, 0)
		ms := a.MemsetAsync(pc, 0, 8*n, 0, 0)
		kp := a.KernelCreate("vadd").SetArgs(
			gpu.PtrArg(pa), gpu.PtrArg(pb), gpu.PtrArg(pc), gpu.IntArg(n)).
			RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 256}, 0)
		// The download flushes stream 0 first, so everything above lands
		// in order before the readback.
		if err := a.MemcpyD2H(p, out, pc, 0, 8*n); err != nil {
			t.Fatalf("download: %v", err)
		}
		for i, pd := range []*Pending{up1, up2, ms, kp} {
			if err := pd.Wait(p); err != nil {
				t.Fatalf("pending %d: %v", i, err)
			}
		}
		if opts.BatchOps > 0 {
			if st := tb.daemons[0].Stats(); st.Batches == 0 {
				t.Error("batched run never exercised the opBatch path")
			}
		}
	})
	return out
}

// TestBatchingExecuteMatchesUnbatched is the refactor's core safety bar:
// execute-mode results must be bit-identical with batching on and off.
func TestBatchingExecuteMatchesUnbatched(t *testing.T) {
	plain := vaddWorkload(t, DefaultOptions())
	batched := vaddWorkload(t, BatchedOptions())
	if !bytes.Equal(plain, batched) {
		t.Fatal("batched and unbatched vadd results differ")
	}
	got := minimpi.BytesF64(batched)
	for i, v := range got {
		if v != float64(4*i) {
			t.Fatalf("out[%d] = %v, want %v", i, v, float64(4*i))
		}
	}
}

// TestBatchErrorIndexAndAbort records ok/failing/queued commands in one
// buffer: the failing command's Pending gets a BatchError naming its
// index, everything after it is skipped with ErrBatchAborted, and the
// device state shows the skipped command never executed.
func TestBatchErrorIndexAndAbort(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		ok := a.MemsetAsync(ptr, 0, 4096, 0x11, 0)
		bad := a.MemsetAsync(gpu.Ptr(0xDEADBEEF), 0, 64, 0x22, 0)
		skipped := a.MemsetAsync(ptr, 0, 64, 0x33, 0)
		master := a.Flush(0)
		if master == nil {
			t.Fatal("Flush returned nil with three recorded commands")
		}
		if err := master.Wait(p); err == nil {
			t.Fatal("master pending did not surface the batch failure")
		}
		if err := ok.Wait(p); err != nil {
			t.Errorf("command before the failure: %v", err)
		}

		var be *BatchError
		err = bad.Wait(p)
		if !errors.As(err, &be) {
			t.Fatalf("failing command returned %T (%v), want *BatchError", err, err)
		}
		if be.Index != 1 || be.Op != OpMemset {
			t.Errorf("BatchError{Index:%d Op:%d}, want index 1 op %d", be.Index, be.Op, OpMemset)
		}
		if errors.Is(err, ErrBatchAborted) {
			t.Error("failing command reported as skipped")
		}

		err = skipped.Wait(p)
		if !errors.Is(err, ErrBatchAborted) {
			t.Fatalf("command after the failure returned %v, want ErrBatchAborted", err)
		}
		if !errors.As(err, &be) || be.Index != 2 {
			t.Errorf("skipped command error %v, want BatchError with index 2", err)
		}

		// Execution stopped at the failure: the first memset landed, the
		// skipped one must not have.
		got := make([]byte, 64)
		if err := a.MemcpyD2H(p, got, ptr, 0, 64); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 64)) {
			t.Errorf("device bytes %x, want 0x11 fill (skipped memset must not run)", got[:8])
		}
	})
}

// TestBatchAutoFlushOnOpCount: the recorder ships the buffer by itself
// once BatchOps commands are queued — no blocking call needed.
func TestBatchAutoFlushOnOpCount(t *testing.T) {
	opts := BatchedOptions()
	opts.BatchOps = 4
	runTestbed(t, 1, false, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		before := tb.client.Comm().WireStats().Msgs
		var pends []*Pending
		for i := 0; i < 4; i++ {
			pends = append(pends, a.MemsetAsync(ptr, 0, 8, 0, 0))
		}
		if got := tb.client.Comm().WireStats().Msgs - before; got != 1 {
			t.Fatalf("4 recorded commands at BatchOps=4 posted %d messages, want 1 auto-flush", got)
		}
		for _, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBatchAutoFlushOnBytes: the batchBytes bound flushes before the
// buffer outgrows one wire message, though far fewer than BatchOps
// commands are queued.
func TestBatchAutoFlushOnBytes(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 16*inlineCopy)
		if err != nil {
			t.Fatal(err)
		}
		before := tb.client.Comm().WireStats().Msgs
		// Model-mode inline writes of inlineCopy bytes cost 48 + 4096
		// estimated wire bytes each: the sixteenth crosses 64 KiB.
		pends := make([]*Pending, 16)
		for i := range pends {
			pends[i] = a.MemcpyH2DAsync(ptr, i*inlineCopy, nil, inlineCopy, 0)
			want := int64(0)
			if i == len(pends)-1 {
				want = 1
			}
			if got := tb.client.Comm().WireStats().Msgs - before; got != want {
				t.Fatalf("after %d inline writes the recorder posted %d messages, want %d", i+1, got, want)
			}
		}
		for _, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBatchSingleCommandShipsPlain: a buffer holding one header-only
// command flushes as a plain request — wire shape identical to the
// unbatched path, so the daemon sees no batch at all.
func TestBatchSingleCommandShipsPlain(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
		a := tb.accels[0]
		ptr, err := a.MemAlloc(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		pd := a.MemsetAsync(ptr, 0, 64, 0xEE, 0)
		if a.Flush(0) == nil {
			t.Fatal("Flush returned nil with one recorded command")
		}
		if err := pd.Wait(p); err != nil {
			t.Fatal(err)
		}
		if st := tb.daemons[0].Stats(); st.Batches != 0 {
			t.Errorf("single-command flush executed as a batch (Batches=%d)", st.Batches)
		}
	})
}

// TestFlushNothingPending: Flush with an empty (or absent) recorder
// returns nil, with batching on and off.
func TestFlushNothingPending(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), BatchedOptions()} {
		runTestbed(t, 1, false, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
			if pd := tb.accels[0].Flush(0); pd != nil {
				t.Error("Flush with nothing recorded returned a Pending")
			}
		})
	}
}

// TestBatchingDeterministic runs the same batched multi-stream workload
// twice: virtual completion times must agree exactly (DES determinism
// must not depend on recorder map iteration).
func TestBatchingDeterministic(t *testing.T) {
	run := func() sim.Time {
		var end sim.Time
		runTestbed(t, 2, false, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
			for _, a := range tb.accels {
				ptr, err := a.MemAlloc(p, 1<<16)
				if err != nil {
					t.Fatal(err)
				}
				k := a.KernelCreate("slow")
				for s := uint8(0); s < 3; s++ {
					a.MemsetAsync(ptr, 0, 128, 1, s)
					k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, s)
				}
			}
			for _, a := range tb.accels {
				if err := a.Sync(p); err != nil {
					t.Fatal(err)
				}
			}
			end = p.Now()
		})
		return end
	}
	if t1, t2 := run(), run(); t1 != t2 {
		t.Fatalf("batched workload finished at %v and %v across runs", t1, t2)
	}
}

// TestBatchModelMatchesExecuteWireBytes: a model-mode inline write (nil
// src) must post the same wire bytes as the execute-mode write carrying
// real payload, so virtual-time costs agree between modes.
func TestBatchModelMatchesExecuteWireBytes(t *testing.T) {
	wireBytes := func(exec bool) int64 {
		var bytes int64
		runTestbed(t, 1, exec, fastNet(), BatchedOptions(), func(p *sim.Proc, tb *testbed) {
			a := tb.accels[0]
			ptr, err := a.MemAlloc(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			var src []byte
			if exec {
				src = make([]byte, 1024)
			}
			before := tb.client.Comm().WireStats().Bytes
			pd1 := a.MemcpyH2DAsync(ptr, 0, src, 1024, 0)
			pd2 := a.MemsetAsync(ptr, 0, 16, 1, 0)
			a.Flush(0)
			bytes = tb.client.Comm().WireStats().Bytes - before
			if err := pd1.Wait(p); err != nil {
				t.Fatal(err)
			}
			if err := pd2.Wait(p); err != nil {
				t.Fatal(err)
			}
		})
		return bytes
	}
	model, exec := wireBytes(false), wireBytes(true)
	if model != exec {
		t.Fatalf("inline-write batch posted %d wire bytes in model mode, %d in execute mode", model, exec)
	}
}
