package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// A workload is one named set of inputs. Load is closed-loop with one
// client everywhere: the next iteration starts when the previous one has
// completed.
//
// setup does everything a user pays before the first measured iteration —
// generating inputs from the seed, computing references, verifying the
// program, and for the socket workloads listening, starting the three
// processes and shaking hands — and counts its checks in acct. teardown
// undoes it, so that set-up can be timed several times in one run.
//
// loop runs the phases in order on the instance setup prepared and, on
// sockets, tears it down; stuck is closed by the watchdog to abandon a
// hung run.
type workload interface {
	setup(seed int64, acct *account) error
	teardown() error
	loop(phases []*phase, stuck <-chan struct{}) error
	// endToEnd reports the workload's own end-to-end metrics from an
	// untraced phase; layers reports the per-layer metrics from a traced
	// phase. headline picks, from any phase, the timing trace.overhead_pct
	// compares.
	endToEnd(ph *phase, out, pct map[string]float64)
	layers(ph *phase, out map[string]float64) error
	headline(ph *phase) float64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlSimQR:
		return &simQR{n: 10240}, nil // the paper's headline matrix size (Fig. 9)
	case wlSimFleet:
		return &simFleet{daemons: 32, tenants: 96}, nil
	case wlSockSoak:
		return &sockSoak{}, nil
	case wlSockStream:
		return &sockStream{bytes: 16 * mib}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---------------------------------------------------------------------
// sim_qr
// ---------------------------------------------------------------------

const (
	simQRGPUs   = 3
	simQRCheckN = 384
	// simQRVirtBound is the virtual-time watchdog: a factorization that
	// needs more than ten times today's 8.8 virtual seconds has hung.
	simQRVirtBound = 90e9
)

// simQR is the paper's headline point: hybrid QR of N=10240 on three
// network-attached GPUs, model mode, paper defaults. It is data-plane
// heavy and touches the ARM once per iteration.
type simQR struct {
	n           int
	localVirtNS int64 // one node-local GPU, the speedup's base
	last        qrOutcome
	virtNS      int64 // first iteration's virtual time; every later one must repeat it
}

func (w *simQR) teardown() error { return nil }

func (w *simQR) setup(seed int64, acct *account) error {
	base, err := qrSim{n: w.n}.run(nil, 0)
	if err != nil {
		return fmt.Errorf("local-GPU baseline: %w", err)
	}
	w.localVirtNS = base.virtNS
	acct.ok(1)

	// Execute mode on real data: the factors must match host LAPACK.
	a := randomMatrix(seed, simQRCheckN)
	got, err := qrSim{n: simQRCheckN, gpus: simQRGPUs, matrix: a}.run(nil, 0)
	if err != nil {
		return fmt.Errorf("execute-mode check: %w", err)
	}
	ref, refTau := lapackQR(a, simQRCheckN, qrBlockWidth())
	if err := closeTo(got.factors, ref, 1e-10*maxAbs(ref)); err != nil {
		acct.fail(1, "execute-mode factors: %v", err)
	} else if err := closeTo(got.tau, refTau, 1e-10); err != nil {
		acct.fail(1, "execute-mode tau: %v", err)
	} else {
		acct.ok(1)
	}
	return nil
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("element %d differs from LAPACK by %.3g (tolerance %.3g)", i, d, tol)
		}
	}
	return nil
}

func (w *simQR) loop(phases []*phase, _ <-chan struct{}) error {
	for _, ph := range phases {
		for {
			it, ok := ph.begin()
			if !ok {
				break
			}
			out, err := qrSim{n: w.n, gpus: simQRGPUs}.run(ph.tr, ph.round)
			good := false
			switch {
			case err != nil:
				ph.acct.fail(1, "iteration %d: %v", ph.round, err)
			case out.virtNS > simQRVirtBound:
				ph.acct.fail(1, "iteration %d: %d virtual ns exceeds the watchdog", ph.round, out.virtNS)
			case w.virtNS != 0 && out.virtNS != w.virtNS:
				ph.acct.fail(1, "iteration %d: virtual time %d ns differs from the first iteration's %d", ph.round, out.virtNS, w.virtNS)
			default:
				good = true
				ph.acct.ok(1)
				w.virtNS, w.last = out.virtNS, out
			}
			ph.end(it, good)
			if good && it.measured {
				ph.sample("sim_host_ns").add(float64(out.hostNS))
			}
		}
	}
	return nil
}

func (w *simQR) headline(ph *phase) float64 { return ph.iterMS.median() }

func (w *simQR) endToEnd(ph *phase, out, _ map[string]float64) {
	if w.virtNS == 0 {
		return
	}
	out["virt_gflops"] = qrFlops(w.n) / float64(w.virtNS)
	out["virt_speedup_vs_local"] = float64(w.localVirtNS) / float64(w.virtNS)
}

func (w *simQR) layers(ph *phase, out map[string]float64) error {
	tr, o := ph.tr, w.last
	if w.virtNS == 0 {
		return fmt.Errorf("no traced iteration completed")
	}
	// Every iteration repeats the same virtual schedule, so the counters
	// of the last one stand for all; the tracer's totals are per round.
	rounds := float64(tr.dur["magma.dgeqrf"].n())
	virt := float64(o.virtNS)
	out["magma.host_virt_s"] = float64(tr.self["magma.dgeqrf"]) / rounds / 1e9
	out["accel.wait_virt_s"] = float64(o.accel.waitNS) / 1e9
	out["accel.h2d_virt_s"] = float64(o.accel.h2dNS) / 1e9
	out["accel.d2h_virt_s"] = float64(o.accel.d2hNS) / 1e9
	out["accel.launch_virt_s"] = float64(o.accel.launchNS) / 1e9
	out["accel.h2d_calls"] = float64(o.accel.h2dCalls)
	out["accel.d2h_calls"] = float64(o.accel.d2hCalls)
	out["accel.launch_calls"] = float64(o.accel.launchCalls)
	out["gpu.busy_share"] = float64(o.gpuBusyNS) / (virt * simQRGPUs)
	out["gpu.bytes_in"] = float64(o.gpuBytesIn)
	out["gpu.bytes_out"] = float64(o.gpuBytesOut)
	out["minimpi.tx_busy_share"] = float64(o.txBusyNS) / virt
	out["core.staging_peak_bytes"] = float64(o.stagingPeak)
	out["minimpi.wire_msgs"] = float64(o.wireMsgs)
	out["minimpi.wire_bytes"] = float64(o.wireBytes)
	out["core.daemon_requests"] = float64(o.daemonRequests)
	out["sim.host_ns_per_wire_msg"] = ph.sample("sim_host_ns").median() / float64(o.wireMsgs)

	var err error
	if out["core.virt_MiBps_h2d_16MiB"], out["core.virt_MiBps_d2h_16MiB"], out["core.host_us_per_copy_16MiB"], err = probeCoreCopy(200); err != nil {
		return fmt.Errorf("core copy probe: %w", err)
	}
	if out["minimpi.host_ns_per_msg_8B"], err = probeMinimpi(8, 400_000); err != nil {
		return fmt.Errorf("minimpi 8 B probe: %w", err)
	}
	if out["minimpi.host_ns_per_msg_1MiB"], err = probeMinimpi(mib, 10_000); err != nil {
		return fmt.Errorf("minimpi 1 MiB probe: %w", err)
	}
	if out["sim.host_ns_per_event"], err = probeSimEvents(1_000_000); err != nil {
		return fmt.Errorf("sim event probe: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// sim_fleet
// ---------------------------------------------------------------------

// simFleetVirtBound is the virtual-time watchdog for one fleet
// simulation: the replicated half needs 47 virtual ms today.
const simFleetVirtBound = 1e9

// simFleet is the control-plane and session-layer workload: a 32-daemon /
// 96-tenant rack under a mixed round, simulated once under the single ARM
// (legacy client) and once under 3 shards with followers (sharded,
// replicated client) per iteration.
type simFleet struct {
	daemons, tenants int
	jitter           []int64
	single, ha       fleetOutcome // last good outcome of each half
	virtNS, virtHA   int64        // first iteration's virtual times
}

func (w *simFleet) sim(ha, poolCheck bool) fleetSim {
	return fleetSim{daemons: w.daemons, tenants: w.tenants, ha: ha, jitter: w.jitter, poolCheck: poolCheck}
}

// ops is the op count of one half (1632 at full size).
func (w *simFleet) ops() int { return w.sim(false, false).ops() }

func (w *simFleet) teardown() error { return nil }

func (w *simFleet) setup(seed int64, acct *account) error {
	w.jitter = fleetJitter(seed, w.tenants)
	// One verified simulation of each half: all ops complete and the ARM
	// counts every accelerator free once the last tenant has released.
	for _, ha := range []bool{false, true} {
		out, err := w.sim(ha, true).run(nil, 0)
		w.check(acct, "set-up", ha, out, err, true)
	}
	return nil
}

// check accounts one fleet simulation: ops that did not complete are
// failed, and so is the whole simulation when it errors, overruns the
// virtual-time watchdog or leaves the pool partly assigned.
func (w *simFleet) check(acct *account, what string, ha bool, out fleetOutcome, err error, pool bool) bool {
	half := "single ARM"
	if ha {
		half = "3 shards + followers"
	}
	switch {
	case err != nil:
		acct.fail(w.ops(), "%s, %s: %v", what, half, err)
	case out.virtNS > simFleetVirtBound:
		acct.fail(w.ops(), "%s, %s: %d virtual ns exceeds the watchdog", what, half, out.virtNS)
	case out.ops != w.ops():
		acct.ok(out.ops)
		acct.fail(w.ops()-out.ops, "%s, %s: %d ops completed, want %d", what, half, out.ops, w.ops())
	case pool && out.poolFree != out.poolTotal:
		acct.fail(w.ops(), "%s, %s: %d of %d accelerators free at the end", what, half, out.poolFree, out.poolTotal)
	default:
		acct.ok(w.ops())
		return true
	}
	return false
}

func (w *simFleet) loop(phases []*phase, _ <-chan struct{}) error {
	for _, ph := range phases {
		traced := ph.tr != nil
		for {
			it, ok := ph.begin()
			if !ok {
				break
			}
			what := fmt.Sprintf("iteration %d", ph.round)
			single, err := w.sim(false, traced).run(ph.tr, ph.round)
			good := w.check(&ph.acct, what, false, single, err, traced)
			ha, err := w.sim(true, traced).run(ph.tr, ph.round)
			good = w.check(&ph.acct, what, true, ha, err, traced) && good
			if good && !traced {
				// The pool query costs a request, so only untraced runs
				// yield the virtual times behind virt_ops_per_s.
				if w.virtNS == 0 {
					w.virtNS, w.virtHA = single.virtNS, ha.virtNS
				} else if single.virtNS != w.virtNS || ha.virtNS != w.virtHA {
					ph.acct.fail(1, "%s: virtual times %d/%d ns differ from the first iteration's %d/%d",
						what, single.virtNS, ha.virtNS, w.virtNS, w.virtHA)
					good = false
				}
			}
			ph.end(it, good)
			if good {
				w.single, w.ha = single, ha
				if it.measured {
					ph.sample("host_ms_single").add(float64(single.hostNS) / 1e6)
					ph.sample("host_ms_ha").add(float64(ha.hostNS) / 1e6)
					ph.sample("build_ms").add(float64(single.buildNS+ha.buildNS) / 2e6)
				}
			}
		}
	}
	return nil
}

func (w *simFleet) headline(ph *phase) float64 { return ph.iterMS.median() }

func (w *simFleet) endToEnd(ph *phase, out, _ map[string]float64) {
	if w.virtNS == 0 {
		return
	}
	out["virt_ops_per_s"] = float64(w.ops()) / (float64(w.virtNS) / 1e9)
	out["virt_ops_per_s_ha"] = float64(w.ops()) / (float64(w.virtHA) / 1e9)
}

func (w *simFleet) layers(ph *phase, out map[string]float64) error {
	tr := ph.tr
	if w.single.ops == 0 {
		return fmt.Errorf("no traced iteration completed")
	}
	for _, sfx := range []string{"", "_ha"} {
		for _, call := range fleetCallMetrics {
			out[call+"_virt_us"+sfx] = tr.medianNS(call+sfx) / 1e3
		}
	}
	out["arm.wait_virt_s"] = w.single.armWaitS
	out["arm.wait_virt_s_ha"] = w.ha.armWaitS
	out["minimpi.wire_msgs"] = float64(w.single.wireMsgs)
	out["minimpi.wire_bytes"] = float64(w.single.wireBytes)
	out["minimpi.wire_msgs_ha"] = float64(w.ha.wireMsgs)
	out["minimpi.wire_bytes_ha"] = float64(w.ha.wireBytes)
	out["sim.host_ms_single"] = ph.sample("host_ms_single").median()
	out["sim.host_ms_ha"] = ph.sample("host_ms_ha").median()
	out["cluster.build_ms"] = ph.sample("build_ms").median()
	out["cluster.teardown_virt_ms"] = float64(w.single.virtNS-w.single.workNS) / 1e6
	out["cluster.teardown_virt_ms_ha"] = float64(w.ha.virtNS-w.ha.workNS) / 1e6
	out["sim.host_ns_per_wire_msg"] = (out["sim.host_ms_single"] + out["sim.host_ms_ha"]) * 1e6 /
		float64(w.single.wireMsgs+w.ha.wireMsgs)

	var err error
	if out["arm.host_ns_per_acquire"], out["arm.virt_us_per_acquire"], err = probeARM(100_000); err != nil {
		return fmt.Errorf("arm probe: %w", err)
	}
	if out["core.host_ns_per_request"], err = probeCoreRequests(100_000); err != nil {
		return fmt.Errorf("core request probe: %w", err)
	}
	if out["core.virt_us_per_launch"], err = probeLaunches(1000, false); err != nil {
		return fmt.Errorf("launch probe: %w", err)
	}
	if out["core.virt_us_per_launch_batched"], err = probeLaunches(1000, true); err != nil {
		return fmt.Errorf("batched launch probe: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// sock_soak
// ---------------------------------------------------------------------

const (
	soakDaemons = 3
	soakShare   = 2
	soakQRGPUs  = 2
	soakQRN     = 96
	soakQRNB    = 16
	// soakRoundDeadline is the wall watchdog per round. Every request
	// already times out after 2 s in socket mode; a round that still takes
	// longer than this has hung and ends the run.
	soakRoundDeadline = 10 * time.Second
)

// sockSoak continues cmd/acsoak's mix over real TCP on loopback: one
// exclusive QR round, then one two-tenant shared round. Some 220 small
// dependent frames per pair make it latency-bound.
type sockSoak struct {
	sc      *sockCluster
	qr      qrInput
	payload []byte
}

func (w *sockSoak) setup(seed int64, acct *account) error {
	w.qr = newQRInput(seed, soakQRN, soakQRNB, soakQRGPUs)
	w.payload = make([]byte, tenantBytes)
	rand.New(rand.NewSource(seed + 1)).Read(w.payload)
	sc, err := startSock(soakDaemons, soakShare)
	if err != nil {
		return err
	}
	w.sc = sc
	return nil
}

func (w *sockSoak) teardown() error { return sockTeardown(w.sc) }

func (w *sockSoak) loop(phases []*phase, stuck <-chan struct{}) error {
	return w.sc.run(stuck, func(rt *sockRT) {
		back := make([]byte, tenantBytes)
		for _, ph := range phases {
			ln := ph.tr.lane(0)
			ph.counters = rt.counters
			for {
				it, ok := ph.begin()
				if !ok {
					break
				}
				ln.setRound(ph.round)
				t0 := time.Now()
				qrErr := rt.qrRound(ln, w.qr)
				t1 := time.Now()
				tenErr := rt.tenantRound(ln, w.payload, back)
				t2 := time.Now()
				qrOK := ph.timed("QR", qrErr, t1.Sub(t0), soakRoundDeadline)
				tenOK := ph.timed("tenant", tenErr, t2.Sub(t1), soakRoundDeadline)
				ph.end(it, qrOK && tenOK)
				if it.measured && qrOK {
					ph.sample("qr_ms").add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
				}
				if it.measured && tenOK {
					ph.sample("session_us").add(float64(t2.Sub(t1).Nanoseconds()) / 1e3)
				}
				if t2.Sub(t0) > 2*soakRoundDeadline {
					return // hung: abandon the run, the failures are counted
				}
			}
		}
		checkPoolFree(rt, &phases[len(phases)-1].acct)
	})
}

// checkPoolFree is the socket workloads' teardown check: every
// accelerator is back in the ARM's pool.
func checkPoolFree(rt *sockRT, acct *account) {
	if free, total, err := rt.poolFree(); err != nil {
		acct.fail(1, "pool statistics: %v", err)
	} else if free != total {
		acct.fail(1, "%d of %d accelerators free after the last round", free, total)
	} else {
		acct.ok(1)
	}
}

// sockTeardown shuts a prepared deployment down without running anything
// on it (between repeated set-ups).
func sockTeardown(sc *sockCluster) error { return sc.run(nil, func(*sockRT) {}) }

func (w *sockSoak) headline(ph *phase) float64 { return ph.sample("qr_ms").median() }

// endToEnd reads the two tails at p99 when 1000 rounds were measured (a
// 20 s run measures some 2500) and otherwise at the highest percentile
// with ten samples beyond it, recording which in pct.
func (w *sockSoak) endToEnd(ph *phase, out, pct map[string]float64) {
	qr, sess := ph.sample("qr_ms"), ph.sample("session_us")
	out["qr_p50_ms"] = qr.median()
	pct["qr_p99_ms"], out["qr_p99_ms"] = qr.tail(99)
	out["session_p50_us"] = sess.median()
	pct["session_p99_us"], out["session_p99_us"] = sess.tail(99)
}

func (w *sockSoak) layers(ph *phase, out map[string]float64) error {
	tr := ph.tr
	pairs := float64(ph.iterMS.n())
	if pairs == 0 {
		return fmt.Errorf("no traced pair completed")
	}
	for _, call := range soakCallMetrics {
		out[call+"_p50_us"] = tr.medianNS(call) / 1e3
	}
	c0, c1 := ph.c0, ph.c1
	wall := ph.pc.wall.Seconds()
	// The counters bracket every pair of the window, failed ones too.
	all := float64(ph.pc.iters)
	out["nettrans.frames_per_pair"] = float64(c1.frames-c0.frames) / all
	out["nettrans.bytes_per_pair"] = float64(c1.wireBytes-c0.wireBytes) / all
	out["nettrans.frames_resent"] = float64(c1.framesResent - c0.framesResent)
	out["nettrans.reconnects"] = float64(c1.reconnects - c0.reconnects)
	out["gpu.modelled_busy_share"] = float64(c1.gpuBusyNS-c0.gpuBusyNS) / 1e9 / wall
	cpu := (ph.p1.cpu - ph.p0.cpu).Seconds()
	out["host.cpu_s_per_pair"] = cpu / all
	out["host.cpu_busy_share"] = cpu / wall / float64(runtime.NumCPU())
	out["host.allocs_per_pair"] = ph.allocs.median()

	s, err := probePingPong(8, 20_000)
	if err != nil {
		return fmt.Errorf("8 B ping-pong probe: %w", err)
	}
	out["nettrans.pingpong_8B_p50_us"] = s.median() / 1e3
	if s, err = probePingPong(64*kib, 5_000); err != nil {
		return fmt.Errorf("64 KiB ping-pong probe: %w", err)
	}
	out["nettrans.pingpong_64KiB_p50_us"] = s.median() / 1e3
	if s, err = probeInjectWake(5_000); err != nil {
		return fmt.Errorf("inject probe: %w", err)
	}
	out["sim.inject_wake_p50_us"] = s.median() / 1e3
	if s, err = probeTimerOvershoot(250); err != nil {
		return fmt.Errorf("timer probe: %w", err)
	}
	out["sim.timer_overshoot_p50_us"] = s.median() / 1e3
	out["blas.dgemm_host_gflops"] = probeDgemm(256, 20)
	out["lapack.dgeqrf_host_gflops"] = probeDgeqrf(256, 20)
	return nil
}

// ---------------------------------------------------------------------
// sock_stream
// ---------------------------------------------------------------------

// streamCopyDeadline is the wall watchdog per 16 MiB copy (≈15 ms today).
const streamCopyDeadline = 5 * time.Second

// sockStream is the bandwidth-bound socket workload: 16 MiB up, 16 MiB
// back, byte-compare, on one exclusive execute-mode accelerator with the
// paper's default copy protocols. Writes sit beside reads, so a gain for
// one direction that costs the other shows.
type sockStream struct {
	bytes   int
	sc      *sockCluster
	payload []byte
}

func (w *sockStream) setup(seed int64, acct *account) error {
	w.payload = make([]byte, w.bytes)
	rand.New(rand.NewSource(seed)).Read(w.payload)
	sc, err := startSock(1, 0)
	if err != nil {
		return err
	}
	w.sc = sc
	return nil
}

func (w *sockStream) teardown() error { return sockTeardown(w.sc) }

func (w *sockStream) loop(phases []*phase, stuck <-chan struct{}) error {
	return w.sc.run(stuck, func(rt *sockRT) {
		first := phases[0]
		st, err := rt.openStream(first.tr.lane(0), w.bytes)
		if err != nil {
			first.acct.fail(1, "open stream: %v", err)
			return
		}
		first.acct.ok(1)
		back := make([]byte, w.bytes)
		for _, ph := range phases {
			ln := ph.tr.lane(0)
			ph.counters = rt.counters
			for {
				it, ok := ph.begin()
				if !ok {
					break
				}
				ln.setRound(ph.round)
				up, upErr := st.h2d(ln, w.payload)
				upOK := ph.timed("H2D", upErr, up, streamCopyDeadline)
				down, downErr := st.d2h(ln, back)
				if downErr == nil && !bytes.Equal(back, w.payload) {
					downErr = fmt.Errorf("D2H bytes differ from H2D bytes")
				}
				downOK := ph.timed("D2H", downErr, down, streamCopyDeadline)
				ph.end(it, upOK && downOK)
				if it.measured && upOK {
					ph.sample("h2d_ms").add(float64(up.Nanoseconds()) / 1e6)
				}
				if it.measured && downOK {
					ph.sample("d2h_ms").add(float64(down.Nanoseconds()) / 1e6)
				}
				if up+down > 4*streamCopyDeadline {
					return // hung: abandon the run, the failures are counted
				}
			}
		}
		last := phases[len(phases)-1]
		if err := st.close(last.tr.lane(0)); err != nil {
			last.acct.fail(1, "close stream: %v", err)
			return
		}
		checkPoolFree(rt, &last.acct)
	})
}

func (w *sockStream) headline(ph *phase) float64 { return ph.sample("h2d_ms").median() }

// mbps is one copy over ms milliseconds, in MB/s (10^6 bytes per second).
func (w *sockStream) mbps(ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(w.bytes) / 1e6 / (ms / 1e3)
}

func (w *sockStream) endToEnd(ph *phase, out, _ map[string]float64) {
	out["h2d_MBps"] = w.mbps(ph.sample("h2d_ms").median())
	out["d2h_MBps"] = w.mbps(ph.sample("d2h_ms").median())
}

func (w *sockStream) layers(ph *phase, out map[string]float64) error {
	tr := ph.tr
	rounds := float64(ph.pc.iters)
	if ph.iterMS.n() == 0 {
		return fmt.Errorf("no traced round completed")
	}
	copies := 2 * rounds
	out["core.h2d_16m_p50_ms"] = tr.medianNS("core.h2d_16m") / 1e6
	out["core.d2h_16m_p50_ms"] = tr.medianNS("core.d2h_16m") / 1e6
	both := &samples{}
	for _, n := range []string{"core.h2d_16m", "core.d2h_16m"} {
		if s := tr.dur[n]; s != nil {
			both.xs = append(both.xs, s.xs...)
		}
	}
	out["core.copy_16m_p90_ms"] = both.quantile(0.9) / 1e6
	c0, c1 := ph.c0, ph.c1
	out["core.blocks_per_copy"] = float64(c1.blocks-c0.blocks) / copies
	out["core.staging_peak_bytes"] = float64(c1.stagingPeak)
	out["nettrans.frames_per_copy"] = float64(c1.frames-c0.frames) / copies
	payload := copies * float64(w.bytes)
	out["nettrans.wire_bytes_per_payload_byte"] = float64(c1.wireBytes-c0.wireBytes) / payload
	out["host.cpu_s_per_GB"] = (ph.p1.cpu - ph.p0.cpu).Seconds() / (payload / 1e9)
	out["host.allocs_per_copy"] = float64(ph.p1.mallocs-ph.p0.mallocs) / copies
	out["host.alloc_bytes_per_copy"] = float64(ph.p1.allocBytes-ph.p0.allocBytes) / copies
	out["gpu.modelled_busy_share"] = float64(c1.gpuBusyNS-c0.gpuBusyNS) / 1e9 / ph.pc.wall.Seconds()

	var err error
	if out["nettrans.stream_1MiB_MBps"], err = probeStream(1000); err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	return nil
}
