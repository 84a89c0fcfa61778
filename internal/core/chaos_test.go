package core

// Chaos suite: every scenario injects a failure — daemon crash, GPU
// death, severed link — and asserts the middleware either recovers or
// returns a clean typed error. Nothing may hang: each scenario runs
// under a virtual-time watchdog and the simulation must drain (killed
// daemons excepted) before the test passes.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// chaosBed is a testbed whose daemons are expected to die: unlike
// runTestbed it exposes the world (for link filters and endpoint resets)
// and only shuts down daemons that survived the scenario.
type chaosBed struct {
	sim     *sim.Simulation
	world   *minimpi.World
	client  *Client
	accels  []*Accel
	daemons []*Daemon
	devs    []*gpu.Device
}

func newChaosBed(t *testing.T, nAC int, exec bool, opts Options) *chaosBed {
	t.Helper()
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	return newChaosBedModel(t, nAC, exec, opts, model)
}

func newChaosBedModel(t *testing.T, nAC int, exec bool, opts Options, model gpu.Model) *chaosBed {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, nAC+1, fastNet())
	if err != nil {
		t.Fatal(err)
	}
	cb := &chaosBed{sim: s, world: w}
	reg := gpu.NewRegistry()
	registerTestKernels(reg)
	for i := 0; i < nAC; i++ {
		dev, err := gpu.NewDevice(s, gpu.Config{
			Name: fmt.Sprintf("ac%d", i), Model: model, Registry: reg, Execute: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		cb.devs = append(cb.devs, dev)
		d := NewDaemon(w.Comm(i+1), dev, DefaultDaemonConfig())
		cb.daemons = append(cb.daemons, d)
		s.Spawn(fmt.Sprintf("daemon%d", i), d.Run)
	}
	cb.client, err = NewClient(w.Comm(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nAC; i++ {
		cb.accels = append(cb.accels, cb.client.Attach(i+1))
	}
	return cb
}

// run executes fn as the compute-node process under a watchdog: if the
// scenario has not completed by the virtual deadline, the test fails
// instead of hanging. Surviving daemons are shut down afterwards.
func (cb *chaosBed) run(t *testing.T, limit sim.Duration, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	cb.sim.Spawn("cn", func(p *sim.Proc) {
		fn(p)
		done = true
		for _, d := range cb.daemons {
			if d.Alive() {
				if err := cb.client.Attach(d.Rank()).Shutdown(p); err != nil {
					t.Errorf("shutdown of surviving daemon rank %d: %v", d.Rank(), err)
				}
			}
		}
	})
	err := cb.sim.RunUntil(sim.Time(0).Add(limit))
	if !done {
		t.Fatalf("scenario still running at virtual watchdog %v (sim err: %v)", limit, err)
	}
	if err != nil {
		t.Fatalf("simulation error: %v", err)
	}
}

// chaosOpts is the fault-aware client configuration the scenarios use.
func chaosOpts() Options {
	o := DefaultOptions()
	o.Timeout = 50 * sim.Millisecond
	o.Retries = 2
	return o
}

// The three phases of "daemon killed around a pipelined memcpy".

func TestChaosDaemonKilledBeforeMemcpy(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 4<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		cb.daemons[0].Kill()
		err = a.MemcpyH2D(p, ptr, 0, nil, 4<<20)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("memcpy to killed daemon: got %v, want timeout", err)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("error is %T, want *TimeoutError", err)
		}
	})
}

func TestChaosDaemonKilledDuringMemcpy(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 16<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		// A 16 MiB pipelined transfer takes ~16 ms on the 1 GB/s test
		// fabric; the daemon dies mid-pipeline.
		cb.sim.After(4*sim.Millisecond, func() { cb.daemons[0].Kill() })
		err = a.MemcpyH2D(p, ptr, 0, nil, 16<<20)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("memcpy with daemon killed mid-stream: got %v, want timeout", err)
		}
	})
}

func TestChaosDaemonKilledAfterMemcpy(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 4<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := a.MemcpyH2D(p, ptr, 0, nil, 4<<20); err != nil {
			t.Fatalf("memcpy before kill: %v", err)
		}
		cb.daemons[0].Kill()
		if err := a.Sync(p); !errors.Is(err, ErrTimeout) {
			t.Fatalf("sync after kill: got %v, want timeout", err)
		}
	})
}

func TestChaosGPUFailsMidKernel(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		n := 1 << 21 // vadd moves 48 MiB: ~500 us on the C1060 model
		ptr, err := a.MemAlloc(p, 3*8*n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		cb.sim.After(150*sim.Microsecond, func() { cb.devs[0].Fail("ecc error") })
		k := a.KernelCreate("vadd").SetArgs(
			gpu.PtrArg(ptr), gpu.PtrArg(ptr), gpu.PtrArg(ptr), gpu.IntArg(int64(n)))
		err = k.Run(p, gpu.Dim3{X: 256}, gpu.Dim3{X: 256})
		if err == nil {
			t.Fatal("kernel on failed GPU succeeded")
		}
		if errors.Is(err, ErrTimeout) {
			t.Fatalf("want device error, got timeout: %v", err)
		}
		if !strings.Contains(err.Error(), "device failed") {
			t.Fatalf("error does not name the device failure: %v", err)
		}
		// The daemon itself survived its GPU: it still answers requests.
		if _, err := a.Info(p); err != nil {
			t.Fatalf("daemon unreachable after GPU failure: %v", err)
		}
	})
}

func TestChaosLinkSeveredDuringMemcpy(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	severed := false
	cb.world.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		if severed && ((src == 0 && dst == 1) || (src == 1 && dst == 0)) {
			return minimpi.LinkVerdict{Drop: true}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 16<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		cb.sim.After(4*sim.Millisecond, func() { severed = true })
		err = a.MemcpyH2D(p, ptr, 0, nil, 16<<20)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("memcpy over severed link: got %v, want timeout", err)
		}
		// The daemon is stuck waiting for payload blocks that were dropped;
		// only a crash (operator restart) can reclaim it.
		cb.daemons[0].Kill()
	})
}

// TestChaosLinkSeveredDuringD2D severs the accelerator-to-accelerator
// link mid-broadcast — the failure mode of a QR panel broadcast over
// direct AC-to-AC transfers. The client must get a timeout, not hang.
func TestChaosLinkSeveredDuringD2D(t *testing.T) {
	cb := newChaosBed(t, 2, false, chaosOpts())
	severed := false
	cb.world.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		if severed && ((src == 1 && dst == 2) || (src == 2 && dst == 1)) {
			return minimpi.LinkVerdict{Drop: true}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		src, dst := cb.accels[0], cb.accels[1]
		n := 16 << 20
		sp, err := src.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc src: %v", err)
		}
		dp, err := dst.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc dst: %v", err)
		}
		cb.sim.After(4*sim.Millisecond, func() { severed = true })
		err = cb.client.CopyD2D(p, src, sp, 0, n, 1, n, dst, dp, 0, 0, 0)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("direct copy over severed link: got %v, want timeout", err)
		}
		// Both daemons may be wedged mid-stream; crash whichever is.
		cb.daemons[0].Kill()
		cb.daemons[1].Kill()
	})
}

// TestChaosRetryHealsDroppedResponse drops exactly one daemon response on
// the floor: the client's retransmission must hit the daemon's dedup
// table (the request already executed) and get the cached response
// replayed, ending in success, not a duplicate execution.
func TestChaosRetryHealsDroppedResponse(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	dropped := false
	cb.world.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		if !dropped && src == 1 && dst == 0 {
			dropped = true
			return minimpi.LinkVerdict{Drop: true}
		}
		return minimpi.LinkVerdict{}
	})
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		if _, err := a.MemAlloc(p, 1<<20); err != nil {
			t.Fatalf("alloc with dropped response: %v", err)
		}
		if !dropped {
			t.Fatal("filter never dropped a response")
		}
		st := cb.daemons[0].Stats()
		if st.DupsDropped == 0 {
			t.Fatal("daemon never saw the retransmission (dedup table unused)")
		}
		if st.Requests != 1 {
			t.Fatalf("daemon admitted %d requests, want 1 (idempotent retransmit)", st.Requests)
		}
	})
}

// stubReplacer hands out a fixed replacement rank (unit-level stand-in
// for the ARM's replacement assignment).
type stubReplacer struct {
	rank     int
	reported []int
}

func (r *stubReplacer) Replace(p *sim.Proc, failedRank int) (int, error) {
	r.reported = append(r.reported, failedRank)
	return r.rank, nil
}

// TestChaosFailoverReplaysState kills a daemon and fails the handle over
// to a spare: allocations must be rebuilt on the replacement and every
// byte the host ever uploaded must survive, under the original pointers.
func TestChaosFailoverReplaysState(t *testing.T) {
	cb := newChaosBed(t, 2, true, chaosOpts())
	rep := &stubReplacer{rank: 2}
	cb.client.SetReplacer(rep)
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		n := 1 << 20
		ptr, err := a.MemAlloc(p, n)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		if err := a.MemcpyH2D(p, ptr, 0, src, n); err != nil {
			t.Fatalf("upload: %v", err)
		}
		if err := a.Memset(p, ptr, 100, 50, 0xAB); err != nil {
			t.Fatalf("memset: %v", err)
		}
		copy(src[100:150], bytes.Repeat([]byte{0xAB}, 50))

		cb.daemons[0].Kill()
		if err := a.Sync(p); !errors.Is(err, ErrTimeout) {
			t.Fatalf("sync after kill: got %v, want timeout", err)
		}
		if err := a.Failover(p); err != nil {
			t.Fatalf("failover: %v", err)
		}
		if len(rep.reported) != 1 || rep.reported[0] != 1 {
			t.Fatalf("replacer saw failure reports %v, want [1]", rep.reported)
		}
		if a.Rank() != 2 {
			t.Fatalf("handle rank after failover = %d, want 2", a.Rank())
		}

		// The original pointer must read back the recovered contents.
		got := make([]byte, n)
		if err := a.MemcpyD2H(p, got, ptr, 0, n); err != nil {
			t.Fatalf("download after failover: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("recovered contents differ from host-shadowed state")
		}
		// And the handle is fully usable: fresh allocations, frees, kernels.
		p2, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Fatalf("alloc after failover: %v", err)
		}
		if err := a.MemFree(p, p2); err != nil {
			t.Fatalf("free after failover: %v", err)
		}
		if err := a.MemFree(p, ptr); err != nil {
			t.Fatalf("free of migrated alloc: %v", err)
		}
	})
}

// TestChaosDaemonRestart reboots a crashed accelerator rank in place:
// endpoint and engine state from the crash must not leak into the fresh
// daemon.
func TestChaosDaemonRestart(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		a := cb.accels[0]
		ptr, err := a.MemAlloc(p, 16<<20)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		// Crash mid-transfer so the daemon dies with a half-run pipeline.
		cb.sim.After(4*sim.Millisecond, func() { cb.daemons[0].Kill() })
		if err := a.MemcpyH2D(p, ptr, 0, nil, 16<<20); !errors.Is(err, ErrTimeout) {
			t.Fatalf("memcpy into crash: got %v, want timeout", err)
		}

		// Reboot the rank: reset NIC endpoint and stranded engines, wipe
		// device memory, start a fresh daemon (what cluster.RestartDaemon
		// does).
		dev := cb.devs[0]
		cb.world.ResetEndpoint(1)
		dev.ResetEngines()
		dev.Reset(p)
		d := NewDaemon(cb.world.Comm(1), dev, DefaultDaemonConfig())
		cb.daemons[0] = d
		cb.sim.Spawn("daemon0-reborn", d.Run)

		ptr2, err := a.MemAlloc(p, 4<<20)
		if err != nil {
			t.Fatalf("alloc after restart: %v", err)
		}
		if err := a.MemcpyH2D(p, ptr2, 0, nil, 4<<20); err != nil {
			t.Fatalf("memcpy after restart: %v", err)
		}
		if err := a.MemFree(p, ptr2); err != nil {
			t.Fatalf("free after restart: %v", err)
		}
	})
}

// The daemon's request-dedup window, probed with hand-crafted requests.

// rawSend ships an encoded request from the test's client rank to
// daemon rank 1 without going through the front-end, so tests control
// the request ID exactly.
func (cb *chaosBed) rawSend(reqID uint64, q *request) {
	q.reqID = reqID
	cb.world.Comm(0).Isend(1, TagRequest, encodeRequest(q))
}

// rawCall is rawSend plus the response round trip.
func (cb *chaosBed) rawCall(t *testing.T, p *sim.Proc, reqID uint64, q *request) *response {
	t.Helper()
	resp := cb.world.Comm(0).Irecv(1, respTag(reqID))
	cb.rawSend(reqID, q)
	data, _ := resp.Wait(p)
	rsp, err := decodeResponse(data)
	if err != nil {
		t.Fatalf("raw call reqID=%d: %v", reqID, err)
	}
	return rsp
}

// Two requests whose IDs collide modulo the response-tag window are
// still distinct to the dedup table (it keys on the full 64-bit ID):
// both must execute, neither may be treated as a retransmit.
func TestChaosDedupTagWindowWraparound(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, sim.Second, func(p *sim.Proc) {
		const base = uint64(7)
		comm := cb.world.Comm(0)
		// Same respTag for both: post both receives up front and match
		// responses by their echoed request ID.
		r1 := comm.Irecv(1, respTag(base))
		r2 := comm.Irecv(1, respTag(base+tagWindow))
		cb.rawSend(base, &request{op: OpMemAlloc, size: 1 << 20})
		cb.rawSend(base+tagWindow, &request{op: OpMemAlloc, size: 1 << 20})
		seen := map[uint64]gpu.Ptr{}
		for _, rr := range []*minimpi.Request{r1, r2} {
			data, _ := rr.Wait(p)
			rsp, err := decodeResponse(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := rsp.err(); err != nil {
				t.Fatalf("alloc reqID=%d: %v", rsp.reqID, err)
			}
			seen[rsp.reqID] = rsp.ptr
		}
		if len(seen) != 2 {
			t.Fatalf("got responses for %d distinct reqIDs, want 2: %v", len(seen), seen)
		}
		if seen[base] == seen[base+tagWindow] {
			t.Fatalf("wrapped request did not execute: both returned ptr %#x", seen[base])
		}
		st := cb.daemons[0].Stats()
		if st.DupsDropped != 0 || st.Requests != 2 {
			t.Fatalf("stats = %+v, want 2 executed requests and no dups", st)
		}
	})
}

// A retransmit that arrives after its entry was evicted from the dedup
// window is indistinguishable from a new request and executes again —
// the documented limit of the window, pinned here so a regression in
// eviction order is caught.
func TestChaosDedupWindowEviction(t *testing.T) {
	cb := newChaosBed(t, 1, false, chaosOpts())
	cb.run(t, 10*sim.Second, func(p *sim.Proc) {
		const victim = uint64(1)
		first := cb.rawCall(t, p, victim, &request{op: OpMemAlloc, size: 4096})
		if err := first.err(); err != nil {
			t.Fatalf("first alloc: %v", err)
		}
		// Flood the window with distinct requests so the victim's entry
		// is evicted (IDs chosen to share no respTag with the victim).
		for i := 0; i < dedupWindow; i++ {
			id := uint64(1000 + i)
			if rsp := cb.rawCall(t, p, id, &request{op: OpMemset, ptr: first.ptr, size: 1}); rsp.err() != nil {
				t.Fatalf("flood request %d: %v", id, rsp.err())
			}
		}
		// The "retransmit" now re-executes: a fresh allocation, no dup hit.
		second := cb.rawCall(t, p, victim, &request{op: OpMemAlloc, size: 4096})
		if err := second.err(); err != nil {
			t.Fatalf("replayed alloc: %v", err)
		}
		if second.ptr == first.ptr {
			t.Fatalf("replay after eviction returned the cached ptr %#x", first.ptr)
		}
		st := cb.daemons[0].Stats()
		if st.DupsDropped != 0 {
			t.Fatalf("DupsDropped = %d, want 0 (entry should have been evicted)", st.DupsDropped)
		}
		if st.Requests != int64(dedupWindow)+2 {
			t.Fatalf("Requests = %d, want %d", st.Requests, dedupWindow+2)
		}
	})
}

// A link delay longer than the client timeout forces a retransmit of a
// request the daemon already served: the duplicate must be absorbed by
// the dedup table (answered from cache, executed once).
func TestChaosDedupDuplicateAfterLinkDelay(t *testing.T) {
	opts := DefaultOptions()
	opts.Timeout = 5 * sim.Millisecond
	opts.Retries = 2
	cb := newChaosBed(t, 1, false, opts)
	// Delay daemon->client traffic beyond the timeout so the client
	// retransmits while the original response is still in flight.
	lag := true
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
			t.Fatalf("alloc through lossy link: %v", err)
		}
		lag = false // let teardown run at full speed
		st := cb.daemons[0].Stats()
		if st.Requests != 1 {
			t.Fatalf("Requests = %d, want 1 (duplicate must not re-execute)", st.Requests)
		}
		if st.DupsDropped < 1 {
			t.Fatalf("DupsDropped = %d, want >= 1", st.DupsDropped)
		}
		if got := cb.devs[0].MemUsed(); got != 1<<20 {
			t.Fatalf("device has %d bytes allocated, want one 1MiB allocation", got)
		}
		if err := a.MemFree(p, ptr); err != nil {
			t.Fatalf("free: %v", err)
		}
	})
}
