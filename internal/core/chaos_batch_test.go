package core

// Chaos x batching: command buffers must stay atomic under the fault
// model — a retransmitted batch executes exactly once through the dedup
// table, a dead daemon fails every recorded command identically, and
// Failover/Migrate replay or flush the whole buffer, never half of it.

import (
	"bytes"
	"errors"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// chaosBatchOpts is chaosOpts with command batching on.
func chaosBatchOpts() Options {
	o := BatchedOptions()
	o.Timeout = 50 * sim.Millisecond
	o.Retries = 2
	return o
}

// TestChaosBatchRetryDedupExecutesOnce delays daemon responses beyond the
// client timeout so a flushed opBatch is retransmitted: the dedup table
// must replay the cached status vector — the batch executes once and is
// answered twice. The buffer ends in a MemFree, which would fail loudly
// if the daemon re-executed the commands.
func TestChaosBatchRetryDedupExecutesOnce(t *testing.T) {
	opts := chaosBatchOpts()
	opts.Timeout = 5 * sim.Millisecond
	cb := newChaosBed(t, 1, false, opts)
	lag := false
	cb.world.SetLinkFilter(func(src, dst int, _ minimpi.Tag, _ int) minimpi.LinkVerdict {
		if lag && src == 1 && dst == 0 {
			return minimpi.LinkVerdict{Delay: 7 * sim.Millisecond}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 1<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		lag = true
		m1 := a.MemsetAsync(ptr, 0, 64, 1, 0)
		m2 := a.MemsetAsync(ptr, 64, 64, 2, 0)
		// MemFree records behind the memsets and flushes the stream: all
		// three ship as one opBatch whose response is delayed past the
		// timeout, forcing a retransmit of the whole buffer.
		if err := a.MemFree(p, ptr); err != nil {
			t.Fatalf("batched free through lossy link: %v", err)
		}
		lag = false
		if err := m1.Wait(p); err != nil {
			t.Fatalf("memset 1: %v", err)
		}
		if err := m2.Wait(p); err != nil {
			t.Fatalf("memset 2: %v", err)
		}
		st := cb.daemons[0].Stats()
		if st.Batches != 1 || st.BatchedOps != 3 {
			t.Errorf("Batches=%d BatchedOps=%d, want 1 batch of 3 commands", st.Batches, st.BatchedOps)
		}
		if st.Requests != 2 {
			t.Errorf("Requests = %d, want 2 (alloc + batch; duplicate must not re-execute)", st.Requests)
		}
		if st.DupsDropped < 1 {
			t.Errorf("DupsDropped = %d, want >= 1 (retransmit must hit the dedup table)", st.DupsDropped)
		}
		if got := cb.devs[0].MemUsed(); got != 0 {
			t.Errorf("device holds %d bytes after batched free, want 0", got)
		}
	})
}

// TestChaosBatchTimeoutFailsWholeBuffer kills the daemon before the
// flush: every recorded command's Pending and the master Pending must
// fail with the same timeout — the batch is never half-applied from the
// caller's view.
func TestChaosBatchTimeoutFailsWholeBuffer(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosBatchOpts())
	cb.run(t, 2*sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		cb.daemons[0].Kill()
		m1 := a.MemsetAsync(ptr, 0, 64, 1, 0)
		m2 := a.MemsetAsync(ptr, 64, 64, 2, 0)
		master := a.Flush(0)
		if master == nil {
			t.Fatal("Flush returned nil with two recorded commands")
		}
		errMaster := master.Wait(p)
		err1 := m1.Wait(p)
		err2 := m2.Wait(p)
		for i, err := range []error{errMaster, err1, err2} {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("pending %d after daemon kill: got %v, want timeout", i, err)
			}
		}
		if err1 != err2 {
			t.Errorf("commands of one dead batch failed with different errors: %v vs %v", err1, err2)
		}
	})
}

// TestChaosBatchFailoverReplaysRecordedCommands records commands, kills
// the daemon before any flush, and fails over: the rebuild must replay
// the host-shadowed state first and then the recorded buffer — as one
// whole batch against the replacement's pointer map.
func TestChaosBatchFailoverReplaysRecordedCommands(t *testing.T) {
	cb := newChaosBed(t, 2, true, chaosBatchOpts())
	rep := &stubReplacer{rank: 2}
	cb.client.SetReplacer(rep)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		n := 1 << 16 // streamed upload: bigger than the inline threshold
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 13)
		}
		if err := a.MemcpyH2D(p, ptr, 0, src, n); err != nil {
			t.Fatalf("upload: %v", err)
		}
		// Recorded but never flushed: the daemon dies before these ship.
		m1 := a.MemsetAsync(ptr, 0, 32, 0xAA, 0)
		m2 := a.MemsetAsync(ptr, 32, 32, 0xBB, 0)
		cb.daemons[0].Kill()
		if err := a.Failover(p); err != nil {
			t.Fatalf("failover with recorded commands: %v", err)
		}
		if err := m1.Wait(p); err != nil {
			t.Fatalf("recorded memset 1 after failover: %v", err)
		}
		if err := m2.Wait(p); err != nil {
			t.Fatalf("recorded memset 2 after failover: %v", err)
		}
		// Both memsets replayed on the replacement as one batch (not
		// interleaved with rebuild traffic, not as two requests).
		if st := cb.daemons[1].Stats(); st.Batches != 1 || st.BatchedOps != 2 {
			t.Errorf("replacement saw Batches=%d BatchedOps=%d, want one batch of 2", st.Batches, st.BatchedOps)
		}
		copy(src[0:32], bytes.Repeat([]byte{0xAA}, 32))
		copy(src[32:64], bytes.Repeat([]byte{0xBB}, 32))
		got := make([]byte, n)
		if err := a.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("download after failover: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("replacement contents differ: recorded commands lost or misordered")
		}
	})
}

// TestChaosBatchMigrateFlushesBufferFirst migrates a handle with a live
// command buffer: the buffer must ship to the still-answering old daemon
// before the copy, so its effects are part of the migrated state.
func TestChaosBatchMigrateFlushesBufferFirst(t *testing.T) {
	cb := newChaosBed(t, 2, true, chaosBatchOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		m1 := a.MemsetAsync(ptr, 0, 64, 0xCC, 0)
		m2 := a.MemsetAsync(ptr, 64, 64, 0xDD, 0)
		if err := a.c.Migrate(p, a, 2); err != nil {
			t.Fatalf("migrate with recorded commands: %v", err)
		}
		if a.Rank() != 2 {
			t.Fatalf("handle rank after migrate = %d, want 2", a.Rank())
		}
		if err := m1.Wait(p); err != nil {
			t.Fatalf("recorded memset 1: %v", err)
		}
		if err := m2.Wait(p); err != nil {
			t.Fatalf("recorded memset 2: %v", err)
		}
		// The buffer executed on the OLD daemon (one batch), and its
		// effects migrated device-to-device.
		if st := cb.daemons[0].Stats(); st.Batches != 1 || st.BatchedOps != 2 {
			t.Errorf("old daemon saw Batches=%d BatchedOps=%d, want one batch of 2", st.Batches, st.BatchedOps)
		}
		got := make([]byte, 128)
		if err := a.MemcpyD2H(p, got, ptr, 0, 128); err != nil {
			t.Fatalf("download after migrate: %v", err)
		}
		want := append(bytes.Repeat([]byte{0xCC}, 64), bytes.Repeat([]byte{0xDD}, 64)...)
		if !bytes.Equal(got, want) {
			t.Fatal("memset effects did not migrate with the allocation")
		}
	})
}
