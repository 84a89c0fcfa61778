package minimpi

import (
	"runtime"
	"testing"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// TestPipelinedBlockCycleAllocs pins the allocation cost of the copy
// pipeline's inner loop: sender takes a pooled buffer and hands it off
// with IsendOwned, receiver Irecvs, waits, and Frees the request back to
// the pool. With the payload pool and event free lists warm, a full
// cycle should stay within a small constant of allocations (interface
// boxing in the scheduler); the pin is measured-plus-slack rather than
// zero so a hot-path regression trips it without making the test brittle.
func TestPipelinedBlockCycleAllocs(t *testing.T) {
	const (
		warmup   = 64
		rounds   = 512
		attempts = 3
		block    = 64 * netmodel.KiB
		// Measured steady state is 3 allocs/cycle on the current engine:
		// the sender's Request, the message record and the receiver's
		// Request. The flight itself is a callback chain over the message
		// record with both rendezvous events embedded, and the payload
		// buffer, scheduler events and waiters all come from pools. These
		// three are all a pipelined copy pays per block end to end: the
		// daemon's stages run as callbacks over pooled per-block slots and
		// add nothing (core's TestPipelineBlockAllocs measures 3.25 with the
		// per-copy records spread in). The pin leaves 50% slack so noise
		// doesn't trip it, but a per-block buffer, event or process
		// allocation (two or more per cycle) does.
		maxPerCycle = 4.5
	)
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
				req := c.IsendOwned(1, 0, buf)
				req.Wait(p)
				req.Free()
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
			req := c.Irecv(0, 0)
			data, _ := req.Wait(p)
			if len(data) != block {
				panic("short block")
			}
			req.Free()
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
