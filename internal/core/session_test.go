package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// attachSession attaches daemonRank and opens a tenant session on the
// handle, the way cluster.Node.AttachSession does.
func attachSession(p *sim.Proc, c *Client, daemonRank int) (*Accel, error) {
	a := c.Attach(daemonRank)
	if err := a.OpenSession(p); err != nil {
		return nil, err
	}
	return a, nil
}

// TestSessionPrefixWire: the session id is a header field like any other.
// A session-less request and a sessioned one are the same length and
// differ only in bytes 10..17, and the two ops that need a session refuse
// id 0 — the one session rule still expressible on the wire.
func TestSessionPrefixWire(t *testing.T) {
	plain := &request{op: OpSync, reqID: 7, stream: 3}
	sessioned := &request{op: OpSync, reqID: 7, stream: 3, session: 42}
	pb := encodeRequest(plain)
	sb := encodeRequest(sessioned)
	if len(pb) != requestHeaderSize || len(sb) != requestHeaderSize {
		t.Fatalf("header-only requests are %d and %d bytes, want %d", len(pb), len(sb), requestHeaderSize)
	}
	if !bytes.Equal(sb[:10], pb[:10]) || !bytes.Equal(sb[18:], pb[18:]) {
		t.Fatal("sessioned request differs outside the session field")
	}
	if binary.LittleEndian.Uint64(pb[10:]) != 0 || binary.LittleEndian.Uint64(sb[10:]) != 42 {
		t.Fatalf("session field reads %x and %x, want 0 and 42", pb[10:18], sb[10:18])
	}
	for _, q := range []*request{plain, sessioned} {
		got, err := decodeRequest(encodeRequest(q))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.op != q.op || got.reqID != q.reqID || got.stream != q.stream || got.session != q.session {
			t.Errorf("round trip %+v -> %+v", q, got)
		}
	}
	for _, op := range []uint8{OpSessionOpen, OpSessionClose} {
		if _, err := decodeRequest(encodeRequest(&request{op: op, reqID: 1})); err == nil {
			t.Errorf("op %d without a session id accepted", op)
		}
	}
}

// TestSessionIsolation is the satellite bugfix's contract: a session
// touching another session's pointer gets ErrNotOwner and the victim's
// allocation is untouched.
func TestSessionIsolation(t *testing.T) {
	runTestbed(t, 1, true, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatalf("attach session 1: %v", err)
		}
		s2, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatalf("attach session 2: %v", err)
		}
		if s1.Session() == s2.Session() || s1.Session() == 0 {
			t.Fatalf("session ids %d, %d not distinct and non-zero", s1.Session(), s2.Session())
		}

		const n = 1024
		ptr, err := s1.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		if err := s1.MemcpyH2D(p, ptr, 0, want, n); err != nil {
			t.Fatalf("upload: %v", err)
		}

		// Every access path must fail typed and leave the bytes alone.
		if err := s2.MemFree(p, ptr); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session free: %v, want ErrNotOwner", err)
		}
		if err := s2.Memset(p, ptr, 0, n, 0xFF); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session memset: %v, want ErrNotOwner", err)
		}
		if err := s2.MemcpyH2D(p, ptr, 0, make([]byte, n), n); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session upload: %v, want ErrNotOwner", err)
		}
		got := make([]byte, n)
		if err := s2.MemcpyD2H(p, got, ptr, 0, n); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session download: %v, want ErrNotOwner", err)
		}
		k := s2.KernelCreate("vadd").SetArgs(gpu.PtrArg(ptr), gpu.PtrArg(ptr), gpu.PtrArg(ptr), gpu.IntArg(8))
		if err := k.Run(p, gpu.Dim3{X: 1}, gpu.Dim3{X: 1}); !errors.Is(err, ErrNotOwner) {
			t.Errorf("cross-session kernel: %v, want ErrNotOwner", err)
		}

		if err := s1.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("victim download: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("victim allocation modified by rejected cross-session ops")
		}
		// The owner can still free it: the failed accesses left no residue.
		if err := s1.MemFree(p, ptr); err != nil {
			t.Errorf("owner free after attacks: %v", err)
		}
		for _, s := range []*Accel{s1, s2} {
			if err := s.CloseSession(p); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
}

// TestSessionQuota exercises the per-session memory budget.
func TestSessionQuota(t *testing.T) {
	opts := DefaultOptions()
	opts.SessionQuota = 1 << 20
	runTestbed(t, 1, false, fastNet(), opts, func(p *sim.Proc, tb *testbed) {
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := s1.MemAlloc(p, 768<<10)
		if err != nil {
			t.Fatalf("first alloc under quota: %v", err)
		}
		if _, err := s1.MemAlloc(p, 512<<10); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("over-quota alloc: %v, want ErrQuotaExceeded", err)
		}
		// Freeing restores headroom.
		if err := s1.MemFree(p, a); err != nil {
			t.Fatal(err)
		}
		b, err := s1.MemAlloc(p, 1<<20)
		if err != nil {
			t.Fatalf("alloc after free: %v", err)
		}
		// Another session has its own budget, and the device-wide
		// allocator still backs both.
		s2, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.MemAlloc(p, 1<<20); err != nil {
			t.Fatalf("second session alloc: %v", err)
		}
		_ = b
		if err := s1.CloseSession(p); err != nil {
			t.Fatal(err)
		}
		if err := s2.CloseSession(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionCloseReclaimsOnlyOwn verifies sanitize-on-release is scoped:
// closing one session frees exactly its footprint, and further use of
// the closed handle fails with ErrNoSession instead of silently becoming
// privileged.
func TestSessionCloseReclaimsOnlyOwn(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		dev := tb.daemons[0].Device()
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.MemAlloc(p, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.MemAlloc(p, 8192); err != nil {
			t.Fatal(err)
		}
		keep, err := s2.MemAlloc(p, 2048)
		if err != nil {
			t.Fatal(err)
		}
		before := dev.MemUsed()
		if err := s1.CloseSession(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := dev.MemUsed(); got != before-4096-8192 {
			t.Errorf("device uses %d after close, want %d", got, before-4096-8192)
		}
		if tb.daemons[0].OpenSessions() != 1 {
			t.Errorf("%d open sessions, want 1", tb.daemons[0].OpenSessions())
		}
		// The dead handle stays dead.
		if _, err := s1.MemAlloc(p, 64); !errors.Is(err, ErrNoSession) {
			t.Errorf("alloc on closed session: %v, want ErrNoSession", err)
		}
		// Closing again is idempotent.
		if err := s1.CloseSession(p); err != nil {
			t.Errorf("re-close: %v", err)
		}
		// The survivor is untouched and still owns its memory.
		if err := s2.MemFree(p, keep); err != nil {
			t.Errorf("survivor free: %v", err)
		}
		if err := s2.CloseSession(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionFairScheduling drives two sessions' kernel streams through
// one daemon and asserts the round-robin pump interleaves them rather
// than letting the first-attached session run its whole queue first.
func TestSessionFairScheduling(t *testing.T) {
	var order []uint64
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "tag",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 10 * sim.Microsecond },
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			order = append(order, uint64(l.Arg(0).Int))
			return nil
		},
	})

	s := sim.New()
	tbRun(t, s, reg, func(p *sim.Proc, c *Client) {
		s1, err := attachSession(p, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := attachSession(p, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 8
		var pends []*Pending
		// Session 1 floods its queue first; session 2 enqueues after.
		// With FIFO-by-arrival the daemon would run all of session 1
		// before session 2; fair scheduling alternates them.
		for i := 0; i < rounds; i++ {
			k := s1.KernelCreate("tag").SetArgs(gpu.IntArg(1))
			pends = append(pends, k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 1))
		}
		for i := 0; i < rounds; i++ {
			k := s2.KernelCreate("tag").SetArgs(gpu.IntArg(2))
			pends = append(pends, k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 1))
		}
		for _, pd := range pends {
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if len(order) != 2*rounds {
			t.Fatalf("%d kernels ran, want %d", len(order), 2*rounds)
		}
		// Both sessions must appear in the first quarter of the schedule,
		// and no session may run more than 2 in a row once both are queued.
		quarter := order[:rounds/2]
		seen := map[uint64]bool{}
		for _, tag := range quarter {
			seen[tag] = true
		}
		if !seen[1] || !seen[2] {
			t.Fatalf("first %d executions %v served one session only", len(quarter), quarter)
		}
		run := 1
		for i := 1; i < len(order)-2; i++ {
			if order[i] == order[i-1] {
				run++
				if run > 2 {
					t.Fatalf("session %d ran %d kernels back to back: %v", order[i], run, order)
				}
			} else {
				run = 1
			}
		}
		for _, h := range []*Accel{s1, s2} {
			if err := h.CloseSession(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// tbRun is a slim single-daemon testbed for tests that need their own
// registry (runTestbed hardwires the shared one).
func tbRun(t *testing.T, s *sim.Simulation, reg *gpu.Registry, fn func(p *sim.Proc, c *Client)) {
	t.Helper()
	w, err := minimpi.NewWorld(s, 2, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	dev, err := gpu.NewDevice(s, gpu.Config{Name: "ac0", Model: model, Registry: reg, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(w.Comm(1), dev, DefaultDaemonConfig())
	s.Spawn("daemon0", d.Run)
	c, err := NewClient(w.Comm(0), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("cn", func(p *sim.Proc) {
		fn(p, c)
		if err := c.Attach(1).Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReap covers OpSessionReap: one call tears down every
// session a given client rank holds, and only those.
func TestSessionReap(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.MemAlloc(p, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.MemAlloc(p, 4096); err != nil {
			t.Fatal(err)
		}
		dev := tb.daemons[0].Device()
		// Reap a rank with no sessions: a no-op, not an error.
		if err := reapSessions(p, tb.accels[0], 7); err != nil {
			t.Fatalf("reap of session-less rank: %v", err)
		}
		if tb.daemons[0].OpenSessions() != 2 {
			t.Fatalf("no-op reap closed sessions: %d open", tb.daemons[0].OpenSessions())
		}
		// Reap this client: both sessions and all their memory go.
		if err := reapSessions(p, tb.accels[0], 0); err != nil {
			t.Fatalf("reap: %v", err)
		}
		if tb.daemons[0].OpenSessions() != 0 {
			t.Errorf("%d sessions survive their owner's reap", tb.daemons[0].OpenSessions())
		}
		if got := dev.MemUsed(); got != 0 {
			t.Errorf("%d bytes survive the reap", got)
		}
		if _, err := s1.MemAlloc(p, 64); !errors.Is(err, ErrNoSession) {
			t.Errorf("alloc on reaped session: %v, want ErrNoSession", err)
		}
	})
}

// TestSessionStreamCap pins the bound on what a tenant's wire input can
// start: each stream id parks one worker process on the daemon, so the
// 17th distinct id of a session is refused — and only that request.
func TestSessionStreamCap(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := s1.MemAlloc(p, 4096) // stream 0
		if err != nil {
			t.Fatal(err)
		}
		for id := 1; id < maxSessionStreams; id++ {
			if err := s1.MemsetAsync(ptr, 0, 64, 1, uint8(id)).Wait(p); err != nil {
				t.Fatalf("stream %d of %d: %v", id+1, maxSessionStreams, err)
			}
		}
		err = s1.MemsetAsync(ptr, 0, 64, 1, 200).Wait(p)
		if err == nil || errors.Is(err, ErrNoSession) {
			t.Fatalf("stream %d: %v, want a refusal that leaves the session open", maxSessionStreams+1, err)
		}
		if err := s1.MemsetAsync(ptr, 0, 64, 2, maxSessionStreams-1).Wait(p); err != nil {
			t.Errorf("session unusable after the refusal: %v", err)
		}
		if err := s1.Sync(p); err != nil {
			t.Errorf("sync after the refusal: %v", err)
		}
		// The root session belongs to the exclusive holder: no cap.
		root, err := tb.accels[0].MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 2*maxSessionStreams; id++ {
			if err := tb.accels[0].MemsetAsync(root, 0, 64, 1, uint8(id)).Wait(p); err != nil {
				t.Fatalf("root stream %d: %v", id, err)
			}
		}
		if err := s1.CloseSession(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionTeardownLeavesNoProcess checks that the stream workers a
// session started are gone once it is closed or reaped.
func TestSessionTeardownLeavesNoProcess(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		for _, teardown := range []struct {
			name string
			fn   func(h *Accel) error
		}{
			{"CloseSession", func(h *Accel) error { return h.CloseSession(p) }},
			{"ReapSessions", func(*Accel) error { return reapSessions(p, tb.accels[0], 0) }},
		} {
			before := tb.sim.LiveProcs()
			h, err := attachSession(p, tb.client, 1)
			if err != nil {
				t.Fatal(err)
			}
			ptr, err := h.MemAlloc(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			for id := uint8(1); id <= 3; id++ {
				if err := h.MemsetAsync(ptr, 0, 64, 1, id).Wait(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := tb.sim.LiveProcs(); got != before+4 {
				t.Errorf("%d processes with 4 streams open, want %d", got, before+4)
			}
			if err := teardown.fn(h); err != nil {
				t.Fatalf("%s: %v", teardown.name, err)
			}
			if got := tb.sim.LiveProcs(); got != before {
				t.Errorf("%d live processes after %s, want %d", got, teardown.name, before)
			}
			if n := tb.daemons[0].OpenSessions(); n != 0 {
				t.Errorf("%d sessions open after %s", n, teardown.name)
			}
			if used := tb.daemons[0].Device().MemUsed(); used != 0 {
				t.Errorf("%d bytes allocated after %s", used, teardown.name)
			}
		}
	})
}

// TestSessionBarriersAreScoped checks that one session's Sync and
// CloseSession drain its own streams only: a neighbour's long kernel
// does not hold them up.
func TestSessionBarriersAreScoped(t *testing.T) {
	runTestbed(t, 1, false, fastNet(), DefaultOptions(), func(p *sim.Proc, tb *testbed) {
		s1, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := attachSession(p, tb.client, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.MemAlloc(p, 4096); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		long := s1.KernelCreate("slow").RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 1) // 1 ms
		if err := s2.Sync(p); err != nil {
			t.Fatal(err)
		}
		if err := s2.CloseSession(p); err != nil {
			t.Fatal(err)
		}
		if waited := p.Now().Sub(start); waited >= sim.Millisecond/2 {
			t.Errorf("neighbour's sync+close took %v: waited for the other session's kernel", waited)
		}
		if err := long.Wait(p); err != nil {
			t.Fatal(err)
		}
		if err := s1.CloseSession(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMigrateRankMovesOnlyHandlesInUse: a client's list of attached handles
// holds the handles in use and nothing else. Migrate's temporaries (the
// destination's raw handle, the old session's closer) never enter it, so a
// second MigrateRank does not migrate the first one's leftovers — which used
// to open an orphan session on the third daemon that no CloseSession ever
// reached.
func TestMigrateRankMovesOnlyHandlesInUse(t *testing.T) {
	cb := newChaosBed(t, 3, true, DefaultOptions())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		c := cb.client
		idle := len(c.attached) // the bed's own three handles
		a, err := attachSession(p, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		src := pattern(4096)
		if err := a.MemcpyH2D(p, ptr, 0, src, len(src)); err != nil {
			t.Fatal(err)
		}
		for i, hop := range [][2]int{{1, 2}, {2, 3}} {
			// The bed's session-less handles on the rank move too: its own,
			// and the second time the one that arrived with the first hop.
			if moved, err := c.MigrateRank(p, hop[0], hop[1]); err != nil || moved != 2+i {
				t.Errorf("MigrateRank(%d->%d) moved %d handles (err %v), want the %d in use", hop[0], hop[1], moved, err, 2+i)
			}
			if got := len(c.attached); got != idle+1 {
				t.Errorf("%d handles attached after MigrateRank(%d->%d), want %d", got, hop[0], hop[1], idle+1)
			}
		}
		if a.Rank() != 3 {
			t.Fatalf("handle on rank %d after two migrations, want 3", a.Rank())
		}
		if n := cb.daemons[2].OpenSessions(); n != 1 {
			t.Errorf("%d sessions open on the final daemon, want the tenant's one", n)
		}
		got := make([]byte, len(src))
		if err := a.MemcpyD2H(p, got, ptr, 0, len(got)); err != nil || !bytes.Equal(got, src) {
			t.Errorf("contents after two migrations: err %v, equal %v", err, bytes.Equal(got, src))
		}
		if err := a.CloseSession(p); err != nil {
			t.Fatal(err)
		}
		for i, d := range cb.daemons {
			if n := d.OpenSessions(); n != 0 {
				t.Errorf("daemon %d: %d sessions still open after CloseSession", i, n)
			}
			if used := cb.devs[i].MemUsed(); used != 0 {
				t.Errorf("daemon %d: %d bytes still allocated", i, used)
			}
		}
		if got := len(c.attached); got != idle {
			t.Errorf("%d handles attached after CloseSession, want %d", got, idle)
		}
	})
}

// TestAttachedHandlesStayBounded: a handle leaves the client's list when
// Reset, CloseSession or Shutdown leaves it nothing on its daemon, so
// acquire/attach/work/reset rounds do not grow the list, and enters it again
// with its next request.
func TestAttachedHandlesStayBounded(t *testing.T) {
	cb := newChaosBed(t, 2, false, DefaultOptions())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		c := cb.client
		idle := len(c.attached)
		for round := 0; round < 1000; round++ {
			h := c.Attach(1)
			ptr, err := h.MemAlloc(p, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.MemFree(p, ptr); err != nil {
				t.Fatal(err)
			}
			if err := h.Reset(p); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(c.attached); got != idle {
			t.Errorf("%d handles attached after 1000 attach/alloc/free/Reset rounds, want %d", got, idle)
		}
		// A reset handle used again is in use again.
		h := c.Attach(1)
		if err := h.Reset(p); err != nil {
			t.Fatal(err)
		}
		if _, err := h.MemAlloc(p, 256); err != nil {
			t.Fatal(err)
		}
		if moved, err := c.MigrateRank(p, 1, 2); err != nil || moved != 2 || h.Rank() != 2 {
			t.Errorf("reused handle: moved %d (err %v), now on rank %d, want it and the bed's moved to rank 2", moved, err, h.Rank())
		}
		if err := h.Reset(p); err != nil {
			t.Fatal(err)
		}
	})
}

// reapSessions is the blocking form of ReapSessionsAsync, which the ARM
// runs from scheduler context.
func reapSessions(p *sim.Proc, a *Accel, clientRank int) error {
	return a.status(p, request{op: OpSessionReap, peer: clientRank})
}
