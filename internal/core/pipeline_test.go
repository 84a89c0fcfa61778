package core

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// The stages of a copy pipeline are chains of scheduler callbacks, not
// processes (see pipeScratch), and so is every request of the front-end
// (see call). These tests pin what the process form gave for free and the
// chains must provide themselves — a killed daemon's stages stop dead, a
// killed caller's call ends with it, an unanswered transfer is a deadlock
// reported by name — and what the chains are for: no process per copy and
// no allocation per block.

// slowDMABed is an execute-mode chaos bed whose DMA engine is a fifth as
// fast as its network, so that from the first block on the engine is held
// by one leg while others queue for it, in both directions.
func slowDMABed(t *testing.T) *chaosBed {
	t.Helper()
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	model.H2DPinned.Bandwidth = fastNet().Bandwidth / 5
	model.D2HPinned.Bandwidth = fastNet().Bandwidth / 5
	return newChaosBedModel(t, 1, true, chaosOpts(), model)
}

// TestKilledDaemonLegsStop crashes a daemon with an upload's DMA legs and a
// download's DMA+send legs in flight. From the crash on the old daemon
// must do nothing at all — no block counted, no device statistic advanced,
// no transfer answered — and the rebooted rank must serve a full copy on
// the device's fresh engines while the old legs' timers still run out.
func TestKilledDaemonLegsStop(t *testing.T) {
	const n = 4 << 20
	cb := slowDMABed(t)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a, dev, old := cb.accels[0], cb.devs[0], cb.daemons[0]
		up, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		down, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		var atKill gpu.Stats
		var statsAtKill DaemonStats
		cb.sim.After(4*sim.Millisecond, func() {
			atKill, statsAtKill = dev.Stats(), old.Stats()
			old.Kill()
		})
		h2d := a.MemcpyH2DAsync(up, 0, pattern(n), n, 1)
		d2h := a.MemcpyD2HAsync(make([]byte, n), down, 0, n, 2)
		if err := h2d.Wait(p); !errors.Is(err, ErrTimeout) {
			t.Fatalf("upload into the crash: %v, want a timeout", err)
		}
		if err := d2h.Wait(p); !errors.Is(err, ErrTimeout) {
			t.Fatalf("download into the crash: %v, want a timeout", err)
		}
		if atKill.BytesIn == 0 || atKill.BytesIn >= n || atKill.BytesOut == 0 || atKill.BytesOut >= n {
			t.Fatalf("the crash did not land mid-transfer in both directions: %+v", atKill)
		}
		// The client's timeouts are many block times long: any leg that
		// survived the crash has run by now.
		if got := dev.Stats(); got != atKill {
			t.Errorf("device statistics moved after the crash: %+v, were %+v", got, atKill)
		}
		if got := old.Stats(); got != statsAtKill {
			t.Errorf("daemon statistics moved after the crash: %+v, were %+v", got, statsAtKill)
		}

		// Reboot the rank in place, as cluster.RestartDaemon does.
		cb.world.ResetEndpoint(1)
		dev.ResetEngines()
		dev.Reset(p)
		d := NewDaemon(cb.world.Comm(1), dev, DefaultDaemonConfig())
		cb.daemons[0] = d
		cb.sim.Spawn("daemon0-reborn", d.Run)

		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc after restart: %v", err)
		}
		src := pattern(n)
		if err := a.MemcpyH2D(p, ptr, 0, src, n); err != nil {
			t.Fatalf("upload after restart: %v", err)
		}
		got := make([]byte, n)
		if err := a.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("download after restart: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Error("round trip after restart returned different bytes")
		}
		if st := dev.Stats(); st.BytesIn != atKill.BytesIn+n || st.BytesOut != atKill.BytesOut+n {
			t.Errorf("device moved %d in / %d out after the restart, want exactly the one round trip on top of %+v",
				st.BytesIn, st.BytesOut, atKill)
		}
	})
}

// TestKilledDaemonShipsNothing crashes a daemon mid-download, one block on
// the wire and the next ones' DMAs queued on the slow engine. A DMA leg
// ends with its owner, the killed stream worker, so no block is sent from
// the crash on; the block already on the wire still lands, as a dead
// process's NIC finishes its transfer (Waiter.Abandon).
func TestKilledDaemonShipsNothing(t *testing.T) {
	const n = 4 << 20
	cb := slowDMABed(t)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a, old := cb.accels[0], cb.daemons[0]
		ptr := filledAlloc(t, p, a, n)
		var posted, landed int64
		cb.sim.After(4*sim.Millisecond, func() {
			posted, landed = old.comm.WireStats().Msgs, cb.world.Traffic(1).MsgsSent
			old.Kill()
		})
		if err := a.MemcpyD2H(p, make([]byte, n), ptr, 0, n); !errors.Is(err, ErrTimeout) {
			t.Fatalf("download into the crash: %v, want a timeout", err)
		}
		if got := old.comm.WireStats().Msgs; got != posted {
			t.Errorf("the dead rank had posted %d messages at the crash and %d after it", posted, got)
		}
		if got := cb.world.Traffic(1).MsgsSent; posted != landed+1 || got != posted {
			t.Errorf("%d of the %d messages posted before the crash had landed, %d after it: want one on the wire, landing",
				landed, posted, got)
		}
	})
}

// TestRebootInsidePayloadDeadline crashes a daemon whose upload is waiting
// for blocks that will never come and reboots the rank before the payload
// deadline runs out. The reboot recycles the rank's posted receives, so
// the dead pipeline must not hold them: a deadline left running reads a
// recycled Request when it fires (under DYNACC_POISON=1, a freed one).
// Past the deadline the rebooted rank serves, and every record is back
// with the world.
func TestRebootInsidePayloadDeadline(t *testing.T) {
	const block, nb, sent = 4 << 10, 4, 2
	cb := newChaosBed(t, 1, true, DefaultOptions())
	old := cb.daemons[0]
	old.cfg.PayloadTimeout = 5 * sim.Millisecond
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a, dev := cb.accels[0], cb.devs[0]
		ptr := filledAlloc(t, p, a, nb*block)
		reqs0, msgs0 := cb.world.RecordsOut()

		const reqID = 1 << 40 // clear of the front-end's own sequence
		comm := cb.world.Comm(0)
		resp := comm.Irecv(1, respTag(reqID))
		comm.SendCopy(1, TagRequest, encodeRequest(&request{reqID: reqID, op: OpMemcpyH2D, ptr: ptr, size: nb * block, block: block, depth: 2}))
		src := pattern(nb * block)
		for i := 0; i < sent; i++ {
			comm.SendCopy(1, dataTag(reqID), src[i*block:(i+1)*block])
		}
		p.Wait(sim.Millisecond) // the blocks after them are posted for
		if in := old.Stats().BlocksIn; in != sent {
			t.Fatalf("the daemon took %d blocks before the crash, want %d", in, sent)
		}
		old.Kill()
		cb.world.ResetEndpoint(1)
		dev.ResetEngines()
		dev.Reset(p)
		d := NewDaemon(cb.world.Comm(1), dev, DefaultDaemonConfig())
		cb.daemons[0] = d
		cb.sim.Spawn("daemon0-reborn", d.Run)
		p.Wait(2 * old.cfg.PayloadTimeout)

		resp.Free() // the crash took the answer with it
		ptr, err := a.MemAlloc(p, nb*block)
		if err != nil {
			t.Fatalf("alloc after restart: %v", err)
		}
		if err := a.MemcpyH2D(p, ptr, 0, src, nb*block); err != nil {
			t.Fatalf("upload after restart: %v", err)
		}
		if reqs, msgs := cb.world.RecordsOut(); reqs != reqs0 || msgs != msgs0 {
			t.Errorf("RecordsOut = (%d, %d) after the reboot, want (%d, %d) as before the upload", reqs, msgs, reqs0, msgs0)
		}
	})
}

// TestEngineResetUnderLiveTransfer swaps the device's engines under a live
// daemon's transfers, as faults.RepairGPU does right after a repair: each
// DMA leg in flight gives its unit back to the engine it took it from (a
// release on the fresh engine ends the run with "release 1 with 0 in
// use"), later blocks queue on the fresh one, and both copies complete.
func TestEngineResetUnderLiveTransfer(t *testing.T) {
	const n = 4 << 20
	cb := slowDMABed(t)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a, dev := cb.accels[0], cb.devs[0]
		up, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		down := filledAlloc(t, p, a, n)
		cb.sim.After(1500*sim.Microsecond, dev.ResetEngines)
		src, got := pattern(n), make([]byte, n)
		h2d := a.MemcpyH2DAsync(up, 0, src, n, 1)
		d2h := a.MemcpyD2HAsync(got, down, 0, n, 2)
		if err := h2d.Wait(p); err != nil {
			t.Fatalf("upload across the reset: %v", err)
		}
		if err := d2h.Wait(p); err != nil {
			t.Fatalf("download across the reset: %v", err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{fill}, n)) {
			t.Error("download across the reset returned different bytes")
		}
		if err := a.MemcpyD2H(p, got, up, 0, n); err != nil {
			t.Fatalf("download: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Error("upload across the reset did not land")
		}
	})
}

// TestFirstDMAErrorIsReported: the GPU fails under a copy's block DMAs and
// its failure changes cause while later blocks still run, so one transfer
// sees two DMA errors; the copy reports the first, in either direction.
func TestFirstDMAErrorIsReported(t *testing.T) {
	const n = 4 << 20
	for _, up := range []bool{true, false} {
		cb := slowDMABed(t)
		cb.run(t, sim.Second, func(p *sim.Proc) {
			a, dev := cb.accels[0], cb.devs[0]
			ptr, err := a.MemAlloc(p, n)
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			cb.sim.After(1500*sim.Microsecond, func() { dev.Fail("first") })
			cb.sim.After(3000*sim.Microsecond, func() { dev.Fail("second") })
			if up {
				err = a.MemcpyH2D(p, ptr, 0, nil, n)
			} else {
				err = a.MemcpyD2H(p, nil, ptr, 0, n)
			}
			if err == nil || !strings.HasSuffix(err.Error(), "device failed: first") {
				t.Errorf("upload %v: copy across two DMA errors reported %v, want the first", up, err)
			}
			if !strings.HasSuffix(dev.Failed().Error(), "second") {
				t.Errorf("upload %v: the device's failure did not change cause under the copy", up)
			}
		})
	}
}

// TestUnansweredTransferIsADeadlockByName: a pipeline's legs are invisible
// to the deadlock detector, but the stream worker that owns the transfer
// stays blocked on the block events, so a transfer nobody answers still
// ends Run with the worker's name in the report.
func TestUnansweredTransferIsADeadlockByName(t *testing.T) {
	const block, nb = 64 << 10, 6
	for _, tc := range []struct {
		name string
		op   uint8
		sent int      // upload blocks the front-end ships before going silent
		want []string // what the report must name
	}{
		{"upload whose blocks stop arriving", OpMemcpyH2D, 2, []string{"ac0-stream0"}},
		{"download nobody receives", OpMemcpyD2H, 0, []string{"ac0-stream0", "mpi-send"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cb := newChaosBed(t, 1, false, DefaultOptions())
			cb.sim.Spawn("cn", func(p *sim.Proc) {
				ptr, err := cb.accels[0].MemAlloc(p, nb*block)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				const reqID = 1 << 40
				cb.rawSend(reqID, &request{op: tc.op, ptr: ptr, size: nb * block, block: block, depth: 2})
				for i := 0; i < tc.sent; i++ {
					cb.world.Comm(0).IsendSized(1, dataTag(reqID), block)
				}
			})
			err := cb.sim.Run()
			if err == nil {
				t.Fatal("Run returned nil with a transfer left unanswered")
			}
			for _, name := range tc.want {
				if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), name) {
					t.Errorf("report does not name %s: %v", name, err)
				}
			}
		})
	}
}

// TestKilledCallerIsNotResumed kills a compute-node process suspended in a
// synchronous call, and one waiting on a copy in flight, before the daemon
// answers. The late replies must find nobody to resume (Resume of a process
// that is not suspended panics), the dead caller's call must not go on
// resending on its behalf, the copy — which never was the caller's process —
// runs to its end, and the daemon serves the next caller as if nothing
// happened.
func TestKilledCallerIsNotResumed(t *testing.T) {
	const n = 4 << 20
	opts := chaosOpts()
	opts.Timeout, opts.Retries = 300*sim.Microsecond, 2
	cb := newChaosBed(t, 1, false, opts)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		reached := 0
		var copied *Pending
		// The barrier's answer spends 1 ms on the wire: three deadlines' worth.
		late := true
		cb.world.SetLinkFilter(func(src, _ int, tag minimpi.Tag, _ int) minimpi.LinkVerdict {
			if src == 1 && tag >= tagRespBase && tag < tagDataBase && late {
				late = false
				return minimpi.LinkVerdict{Delay: sim.Millisecond}
			}
			return minimpi.LinkVerdict{}
		})
		inSync := cb.sim.Spawn("cn-in-sync", func(vp *sim.Proc) {
			reached++
			_ = a.Sync(vp)
			reached = -100
		})
		inCopy := cb.sim.Spawn("cn-in-copy", func(vp *sim.Proc) {
			copied = a.MemcpyH2DAsync(ptr, 0, nil, n, 1)
			reached++
			_ = copied.Wait(vp)
			reached = -100
		})
		p.Wait(100 * sim.Microsecond)
		inSync.Kill()
		inCopy.Kill()
		sent := cb.client.Comm().WireStats().Msgs
		p.Wait(10 * sim.Millisecond)
		if reached != 2 {
			t.Fatalf("victims did not both block in their calls before the kill, or ran on after it (%d)", reached)
		}
		if got := cb.client.Comm().WireStats().Msgs; got != sent {
			t.Errorf("front-end sent %d messages after its callers died: the dead caller's barrier was resent", got-sent)
		}
		if !copied.done.Triggered() || copied.err != nil {
			t.Errorf("the copy in flight did not run to its end without its caller: done %v, err %v", copied.done.Triggered(), copied.err)
		}
		if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
			t.Errorf("upload after the kills: %v", err)
		}
		if err := a.Sync(p); err != nil {
			t.Errorf("barrier after the kills: %v", err)
		}
	})
}

// TestUnansweredCallIsADeadlockByName: with no timeout configured, a
// synchronous call nobody answers ends Run as a deadlock under the calling
// process's name, and an asynchronous copy — a chain of legs, no process —
// under the name it parked with.
func TestUnansweredCallIsADeadlockByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(p *sim.Proc, a *Accel)
		want string
	}{
		{"synchronous call", func(p *sim.Proc, a *Accel) { _ = a.Sync(p) }, "cn (" + minimpi.StateCall + ")"},
		{"upload", func(_ *sim.Proc, a *Accel) { a.MemcpyH2DAsync(0x100, 0, nil, 1<<20, 0) }, parkedCopy + " ×1"},
		{"download", func(_ *sim.Proc, a *Accel) { a.MemcpyD2HAsync(nil, 0x100, 0, 1<<20, 0) }, parkedCopy + " ×1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			w, err := minimpi.NewWorld(s, 2, fastNet())
			if err != nil {
				t.Fatal(err)
			}
			client, err := NewClient(w.Comm(0), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Rank 1 runs no daemon.
			s.Spawn("cn", func(p *sim.Proc) { tc.run(p, client.Attach(1)) })
			err = s.Run()
			if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run returned %v, want a deadlock naming %q", err, tc.want)
			}
		})
	}
}

// copyBed is one front-end and one daemon over QDR InfiniBand, for the
// cost pins below: fn runs as the front-end process, and the daemon is
// shut down after it.
func copyBed(t *testing.T, exec bool, opts Options, fn func(p *sim.Proc, s *sim.Simulation, a *Accel, dev *gpu.Device)) {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	dev, err := gpu.NewDevice(s, gpu.Config{Model: model, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("daemon", NewDaemon(w.Comm(1), dev, DefaultDaemonConfig()).Run)
	client, err := NewClient(w.Comm(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("cn", func(p *sim.Proc) {
		a := client.Attach(1)
		fn(p, s, a, dev)
		if err := a.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCopySpawnsNoProcessPerBlock samples the live-process count every few
// virtual microseconds across a warm 16 MiB upload (32 blocks) and
// download (128 blocks): there are the processes that idle between copies
// and nothing else, per copy or per block.
func TestCopySpawnsNoProcessPerBlock(t *testing.T) {
	const n = 16 << 20
	copyBed(t, false, DefaultOptions(), func(p *sim.Proc, s *sim.Simulation, a *Accel, _ *gpu.Device) {
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		roundTrip := func() {
			if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
				t.Fatalf("upload: %v", err)
			}
			if err := a.MemcpyD2H(p, nil, ptr, 0, n); err != nil {
				t.Fatalf("download: %v", err)
			}
		}
		roundTrip() // warm: the stream worker exists from here on
		idle, peak, samples := s.LiveProcs(), 0, 0
		sampling := true
		var sample func()
		sample = func() {
			if !sampling {
				return
			}
			samples++
			peak = max(peak, s.LiveProcs())
			s.After(5*sim.Microsecond, sample)
		}
		sample()
		roundTrip()
		sampling = false
		if samples < 1000 {
			t.Fatalf("only %d samples across the round trip", samples)
		}
		if peak != idle {
			t.Errorf("up to %d live processes during a copy, %d when idle: a copy starts no process", peak, idle)
		}
	})
}

// TestPipelineBlockAllocs pins the host cost of a steady-state block:
// nothing. The three records minimpi needs for any message (the sender's
// request, the message, the receiver's request) are freed where the block is
// done with and recycled (see minimpi's TestPipelinedBlockCycleAllocs), and
// the daemon's stages run over pooled per-block slots. What is left is the
// handful of per-copy records (the front-end's call, requests, responses)
// spread over 160 blocks.
func TestPipelineBlockAllocs(t *testing.T) {
	const (
		n        = 16 << 20
		blocks   = n/(512<<10) + n/(128<<10) // adaptive up, 128K down
		rounds   = 8
		attempts = 3
		// Measured 0.09 (3.17 while minimpi left its records to the GC); a
		// record, a process, a closure or an event per block reads 1 or more.
		maxPerBlock = 0.5
	)
	skipUnderPoison(t)
	copyBed(t, false, DefaultOptions(), func(p *sim.Proc, s *sim.Simulation, a *Accel, _ *gpu.Device) {
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		cycle := func(k int) {
			for i := 0; i < k; i++ {
				if err := a.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
					t.Fatalf("upload: %v", err)
				}
				if err := a.MemcpyD2H(p, nil, ptr, 0, n); err != nil {
					t.Fatalf("download: %v", err)
				}
			}
		}
		cycle(2)
		// MemStats.Mallocs is process-wide; strays do not repeat, so keep
		// the smallest of a few attempts.
		delta := ^uint64(0)
		for i := 0; i < attempts; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle(rounds)
			runtime.ReadMemStats(&after)
			delta = min(delta, after.Mallocs-before.Mallocs)
		}
		if perBlock := float64(delta) / (rounds * blocks); perBlock > maxPerBlock {
			t.Errorf("%.2f allocations per pipeline block (%d over %d round trips), want <= %.1f",
				perBlock, delta, rounds, maxPerBlock)
		}
	})
}

// TestD2HGathersBlockByBlock: a download gathers each block when its turn
// in the pipeline comes, not the whole window up front. Bytes written to
// the tail of the allocation while the head is on the wire are therefore
// the bytes that arrive. Through a cold payload pool the download allocates
// the payload once — the blocks it arrived in, which the host shadow keeps
// instead of a copy — and at most a pipeline's depth of blocks besides.
func TestD2HGathersBlockByBlock(t *testing.T) {
	const block, n = 64 << 10, 64 * (64 << 10)
	opts := DefaultOptions()
	opts.D2H = PaperPipeline(block)
	copyBed(t, true, opts, func(p *sim.Proc, s *sim.Simulation, a *Accel, dev *gpu.Device) {
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := a.Memset(p, ptr, 0, n, 0x11); err != nil {
			t.Fatalf("memset: %v", err)
		}
		got := make([]byte, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := p.Now()
		// Well into the transfer, overwrite the last block on the device.
		s.After(500*sim.Microsecond, func() {
			tail, err := dev.Bytes(a.translate(ptr), n-block, block)
			if err != nil {
				t.Errorf("device bytes: %v", err)
				return
			}
			for i := range tail {
				tail[i] = 0x22
			}
		})
		if err := a.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("download: %v", err)
		}
		runtime.ReadMemStats(&after)
		if took := p.Now().Sub(t0); took < sim.Millisecond {
			t.Fatalf("download took %v: the overwrite at 500us was not mid-transfer", took)
		}
		if !bytes.Equal(got[:n-block], bytes.Repeat([]byte{0x11}, n-block)) {
			t.Error("head of the download is not what the device held")
		}
		if !bytes.Equal(got[n-block:], bytes.Repeat([]byte{0x22}, block)) {
			t.Error("last block was gathered before its turn: it misses the bytes written mid-transfer")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > n+DefaultDepth*block {
			t.Errorf("download through a cold pool allocated %d bytes for a %d-byte payload at depth %d x %d",
				grew, n, DefaultDepth, block)
		}
	})
}

// TestRoundTripAllocs pins the host cost of a warm header-only round trip,
// both ends counted, and what the one engine costs an asynchronous caller
// over a synchronous one: the same memset request through a blocking call
// and through submit+Wait. A synchronous call's record goes back to its
// client's free list, the daemon's request record to the daemon's, and both
// messages carry pool copies their receivers free, so the synchronous form
// allocates nothing. So does the asynchronous one: its Wait hands the call's
// record back.
func TestRoundTripAllocs(t *testing.T) {
	const (
		trips    = 400
		attempts = 2
		// Measured 0 (8 while the front-end's call and request, the header's
		// and the reply's CopyBytes, the daemon's request, its boxed work item
		// and response, and the decoded response were each made per trip; 14
		// before minimpi recycled its records; 15 and 25 before the engines
		// merged). The asynchronous form measures 0 too (1 while its caller's
		// record was left to the GC).
		maxPerTrip = 0.5
		maxAsync   = 0.05
	)
	skipUnderPoison(t)
	opts := DefaultOptions()
	opts.Timeout = 2 * sim.Second // as socket mode runs: every wait arms a deadline
	copyBed(t, false, opts, func(p *sim.Proc, s *sim.Simulation, a *Accel, _ *gpu.Device) {
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		memset := func() request { return request{op: OpMemset, ptr: ptr, size: 4096, value: 7} }
		measure := func(trip func() error) float64 {
			delta := ^uint64(0)
			for i := 0; i < 1+attempts; i++ { // the first attempt warms up
				// Every wait arms a deadline whose timer stays queued until it
				// runs out. Let the last batch's run out, as a long run's do,
				// so the simulator's event records are as warm as its own.
				p.Wait(opts.Timeout)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for j := 0; j < trips; j++ {
					if err := trip(); err != nil {
						t.Fatalf("round trip: %v", err)
					}
				}
				runtime.ReadMemStats(&after)
				if i > 0 {
					delta = min(delta, after.Mallocs-before.Mallocs)
				}
			}
			return float64(delta) / trips
		}
		blocking := measure(func() error { return a.status(p, memset()) })
		async := measure(func() error { return a.submit(a.newCall(memset())).Wait(p) })
		if blocking > maxPerTrip {
			t.Errorf("%.2f allocations per synchronous round trip, want <= %.1f", blocking, maxPerTrip)
		}
		if async > blocking+maxAsync {
			t.Errorf("%.2f allocations per asynchronous round trip against %.2f per synchronous one: want at most %.2f more",
				async, blocking, maxAsync)
		}
		t.Logf("allocations per round trip: synchronous %.2f, asynchronous %.2f", blocking, async)
	})
}

// TestWarmCopyRoundTripAllocs pins the host cost of a warm execute-mode
// upload+download round trip with real host buffers. Each copy's pooled
// blocks become the host shadow and the ones they supersede go back to the
// pool, and a copy stages its blocks in a list its client recycles, so a
// round trip allocates no payload buffer. A copy's call and block loop are
// recycled too, and so is all of both header round trips, so it allocates
// no record either.
func TestWarmCopyRoundTripAllocs(t *testing.T) {
	const (
		n, rounds, attempts = 1 << 20, 20, 3
		// Measured 0.1, the daemon's dedup table still growing toward its
		// window. It read 15.1 while calls, block loops and the header round
		// trips were made per copy, and 23.1 with block lists grown per copy.
		maxPerTrip = 0.5
	)
	skipUnderPoison(t)
	copyBed(t, true, DefaultOptions(), func(p *sim.Proc, s *sim.Simulation, a *Accel, _ *gpu.Device) {
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		src, dst := bytes.Repeat([]byte{0x5A}, n), make([]byte, n)
		trip := func() {
			if err := a.MemcpyH2D(p, ptr, 0, src, n); err != nil {
				t.Fatalf("upload: %v", err)
			}
			if err := a.MemcpyD2H(p, dst, ptr, 0, n); err != nil {
				t.Fatalf("download: %v", err)
			}
		}
		trip()
		trip()
		allocs, grew := ^uint64(0), ^uint64(0)
		for i := 0; i < attempts; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := 0; j < rounds; j++ {
				trip()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		perTrip := float64(allocs) / rounds
		if perTrip > maxPerTrip {
			t.Errorf("%.2f allocations per warm 1 MiB round trip, want <= %.1f", perTrip, maxPerTrip)
		}
		t.Logf("%.2f allocations per warm 1 MiB round trip", perTrip)
		if perTrip := grew / rounds; perTrip >= 64<<10 {
			t.Errorf("a warm 1 MiB round trip allocated %d bytes: payload blocks are not recycled", perTrip)
		}
		if !bytes.Equal(dst, src) {
			t.Error("the download differs from the upload")
		}
	})
}

// skipUnderPoison skips an allocation pin when DYNACC_POISON=1 makes minimpi
// retire every freed record instead of reusing it.
func skipUnderPoison(t *testing.T) {
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
}

// loopback is a transport that treats every message as remote-bound, the
// way nettrans treats a peer in another process: the payload is copied into
// a world-pool buffer (the connection reader's), the send completes locally
// and the frame re-enters the world through InjectRemote. It counts the
// buffers the pool had to get from the allocator.
type loopback struct {
	w     *minimpi.World
	seen  map[*byte]bool // every buffer handed out, kept alive so addresses stay unique
	fresh int
}

func (l *loopback) Deliver(m *minimpi.Message) {
	env := m.RemoteEnvelope()
	payload, owned := m.TakePayload()
	buf := payload
	if len(payload) > 0 {
		buf = l.w.GetBuf(len(payload))
		copy(buf, payload)
		if !l.seen[&buf[0]] {
			l.seen[&buf[0]] = true
			l.fresh++
		}
		if owned {
			l.w.PutBuf(payload)
		}
	}
	m.FinishLocal()
	if err := l.w.InjectRemote(env, buf); err != nil {
		panic(err)
	}
}

func (l *loopback) Stats() minimpi.TransportStats { return minimpi.TransportStats{} }
func (l *loopback) Close() error                  { return nil }

// TestWarmHeaderRoundTripTakesNoNewBuffer pins the socket-mode steady state
// of a header-only request: the frame's payload arrives in a pool buffer on
// each side, the daemon decodes the request and the front-end the response
// (both copy what they keep), and each frees its receive — so once the pool
// is warm a round trip takes no buffer from the allocator. While only copy
// blocks were freed, every request and every response took a fresh one.
func TestWarmHeaderRoundTripTakesNoNewBuffer(t *testing.T) {
	const warm, trips = 8, 200
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	lb := &loopback{w: w, seen: make(map[*byte]bool)}
	w.SetTransport(lb)
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060()})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("daemon", NewDaemon(w.Comm(1), dev, DefaultDaemonConfig()).Run)
	client, err := NewClient(w.Comm(0), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	s.Spawn("cn", func(p *sim.Proc) {
		defer close(stop)
		a := client.Attach(1)
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		var warmed int
		for i := 0; i < warm+trips; i++ {
			if i == warm {
				warmed = lb.fresh
			}
			if err := a.Memset(p, ptr, 0, 4096, 7); err != nil {
				t.Errorf("memset %d: %v", i, err)
				return
			}
		}
		if got := lb.fresh - warmed; got != 0 {
			t.Errorf("%d warm header-only round trips took %d new buffers from the allocator, want 0", trips, got)
		}
		if err := a.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.RunRealtime(stop); err != nil {
		t.Fatal(err)
	}
}
