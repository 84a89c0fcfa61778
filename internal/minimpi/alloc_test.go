package minimpi

import (
	"runtime"
	"testing"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// TestPipelinedBlockCycleAllocs pins the allocation cost of the copy
// pipeline's inner loop: sender takes a pooled buffer and hands it off
// with IsendOwned, receiver Irecvs and waits — the Wait hands the record
// back — and returns the payload to the pool. With the pools and free lists warm, a
// full cycle allocates nothing.
func TestPipelinedBlockCycleAllocs(t *testing.T) {
	const (
		warmup   = 64
		rounds   = 512
		attempts = 3
		block    = 64 * netmodel.KiB
		// Measured steady state is 0.00 allocs/cycle: both Requests and the
		// message record are recycled through the World's free lists (3.00
		// while they were left to the GC), the flight is a callback chain
		// over the message record with both rendezvous events embedded, and
		// the payload buffer, scheduler events and waiters all come from
		// pools. That is all a pipelined copy pays per block end to end:
		// the daemon's stages run as callbacks over pooled per-block slots
		// (core's TestPipelineBlockAllocs measures 0.09 with the per-copy
		// records spread in). One record, buffer, event or process
		// allocated per cycle reads 1.00 or more.
		maxPerCycle = 0.5
	)
	skipUnderPoison(t)
	s := sim.New()
	w, err := NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	var delta uint64
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				buf := w.GetBuf(block)
				c.IsendOwned(1, 0, buf).Wait(p)
			}
		}
		cycle(warmup)
		// MemStats.Mallocs is process-wide and the runtime's background
		// work allocates too; strays do not repeat, so keep the smallest
		// of a few attempts.
		delta = ^uint64(0)
		for a := 0; a < attempts; a++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle(rounds)
			runtime.ReadMemStats(&after)
			if d := after.Mallocs - before.Mallocs; d < delta {
				delta = d
			}
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < warmup+attempts*rounds; i++ {
			data, st := c.Irecv(0, 0).Wait(p)
			if len(data) != block {
				panic("short block")
			}
			w.PutPayload(data, st)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	perCycle := float64(delta) / rounds
	if perCycle > maxPerCycle {
		t.Errorf("pipelined block cycle allocates %.2f per round (%d over %d rounds), want <= %.1f",
			perCycle, delta, rounds, maxPerCycle)
	}
}

// TestInjectRemoteAllocs pins the landing of frames from remote peers, the
// receive half of every socket-mode message: a frame joins the world's
// inbound queue by value and a burst is landed by one pre-bound drain, so
// once the queue's arrays, the free lists and the pool are warm a landed
// frame allocates nothing (one closure a frame while each was injected on
// its own). Frames land in arrival order.
func TestInjectRemoteAllocs(t *testing.T) {
	const burst, runs, size = 64, 50, 256
	skipUnderPoison(t)
	s := sim.New()
	w, err := NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{Src: 0, SrcComm: 0, Dst: 1, Tag: 3, Size: size}
	landed := make(chan struct{}, 1)
	bursts := 3 + runs + 1 // the warm-up below, then AllocsPerRun's
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		for b := 0; b < bursts; b++ {
			for i := 0; i < burst; i++ {
				data, st := c.Irecv(0, 3).Wait(p)
				if data[0] != byte(i) {
					t.Errorf("burst %d: frame %d landed in place of frame %d", b, data[0], i)
				}
				w.PutPayload(data, st)
			}
			landed <- struct{}{}
		}
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.RunRealtime(stop) }()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()
	send := func() {
		for i := 0; i < burst; i++ {
			buf := w.GetBuf(size)
			buf[0] = byte(i)
			if err := w.InjectRemote(env, buf); err != nil {
				t.Fatal(err)
			}
		}
		<-landed
	}
	for i := 0; i < 3; i++ {
		send()
	}
	if perFrame := testing.AllocsPerRun(runs, send) / burst; perFrame != 0 {
		t.Errorf("a landed frame allocates %.2f, want 0", perFrame)
	}
}

// skipUnderPoison skips an allocation pin when DYNACC_POISON=1 retires
// every freed record instead of reusing it.
func skipUnderPoison(t *testing.T) {
	if poisonFreed {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
}

// TestColdWorldAllocatesBySlab runs 1 000 concurrent Isend/Irecv pairs on a
// fresh Simulation and World, so that no record can be a recycled one:
// 2 000 Requests, 1 000 Messages, 1 000 event records and 1 000 resource
// waiters. Each comes from a sim.FreeList, which makes its records a slab
// at a time (at most 64 to a slab): 100 slabs, and 251 allocations for the
// whole cold run as measured. One allocation per record read 5 152.
func TestColdWorldAllocatesBySlab(t *testing.T) {
	const pairs, attempts, maxAllocs = 1000, 3, 400
	skipUnderPoison(t)
	cold := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := sim.New()
		w, err := NewWorld(s, 2, netmodel.QDRInfiniBand())
		if err != nil {
			t.Fatal(err)
		}
		c0, c1 := w.Comm(0), w.Comm(1)
		sends, recvs := make([]*Request, pairs), make([]*Request, pairs)
		s.Spawn("rank0", func(p *sim.Proc) {
			for i := range sends {
				sends[i] = c0.IsendSized(1, 0, 1)
			}
			for _, r := range sends {
				r.Wait(p)
			}
		})
		s.Spawn("rank1", func(p *sim.Proc) {
			for i := range recvs {
				recvs[i] = c1.Irecv(0, 0)
			}
			for _, r := range recvs {
				r.Wait(p)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if reqs, msgs := w.RecordsOut(); reqs != 0 || msgs != 0 {
			t.Fatalf("RecordsOut = (%d, %d) after every pair completed", reqs, msgs)
		}
		return after.Mallocs - before.Mallocs
	}
	// Strays from the runtime's background work do not repeat: keep the
	// smallest of a few attempts.
	best := ^uint64(0)
	for a := 0; a < attempts; a++ {
		best = min(best, cold())
	}
	if best > maxAllocs {
		t.Errorf("a cold world's %d concurrent pairs allocated %d times, want <= %d", pairs, best, maxAllocs)
	}
}
