package main

// layers.go is the only file of the benchmark that imports the repo. Every
// call into the program under test goes through here, on the narrowest
// public surface that does the job (cluster.Node / NodeARM, core.Accel,
// accel.Device, magma.NewDist / Dgeqrf, minimpi.Comm, each layer's public
// Stats), so an API rename is a one-file fix. It deliberately does not
// import internal/bench or cmd/*: the drivers those packages hold are
// rebuilt here, which lets the benchmark outlive their refactoring.
//
// Each driver takes a *tracer (nil in the untraced runs) and wraps every
// call into a layer in a span named "<layer>.<call>".

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/blas"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/magma"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/nettrans"
	"dynacc/internal/sim"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

func magmaRegistry() *gpu.Registry {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	return reg
}

// wireTotals sums the messages and bytes every rank of a world has sent.
func wireTotals(w *minimpi.World) (msgs, bytes int64) {
	for r := 0; r < w.Size(); r++ {
		t := w.Traffic(r)
		msgs += t.MsgsSent
		bytes += t.BytesSent
	}
	return msgs, bytes
}

// simClock makes the tracer read a simulation's virtual clock, continuing
// the trace timeline where the previous simulation left off.
func simClock(tr *tracer, s *sim.Simulation) {
	if tr == nil {
		return
	}
	base := tr.last
	tr.clock, tr.clockName = func() int64 { return base + int64(s.Now()) }, "virtual"
}

// randomMatrix fills an n×n column-major matrix from the seed.
func randomMatrix(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

// ---------------------------------------------------------------------
// sim_qr: hybrid QR on network-attached GPUs in the deterministic
// simulator.
// ---------------------------------------------------------------------

// qrSim is one simulated QR factorization of an n×n matrix. gpus == 0
// selects the paper's baseline: one GPU attached to the compute node.
type qrSim struct {
	n, gpus int
	// matrix, when set, runs in execute mode on real data; nil runs model
	// mode (virtual time only), the paper-scale setting.
	matrix []float64
}

type qrOutcome struct {
	virtNS  int64 // virtual ns inside magma.Dgeqrf (the upload is outside the timer, as in MAGMA's testers)
	hostNS  int64 // host ns to simulate it
	endNS   int64 // virtual ns at the end of the simulation
	factors []float64
	tau     []float64

	wireMsgs, wireBytes int64 // whole simulation, all ranks
	daemonRequests      int64
	stagingPeak         int64
	// Over the Dgeqrf interval only:
	gpuBusyNS               int64 // Σ over GPUs
	gpuBytesIn, gpuBytesOut int64
	txBusyNS                int64 // compute node 0's NIC
	accel                   accelCounts
}

// accelCounts is what the accel.Device decorator sees magma issue during
// Dgeqrf (traced runs only).
type accelCounts struct {
	h2dCalls, d2hCalls, launchCalls int64
	h2dNS, d2hNS, launchNS          int64 // Σ issue→completion
	waitNS                          int64 // caller blocked in Pending.Wait / Sync
}

// tracedDev decorates an accel.Device so that every call magma makes
// becomes a span below whatever magma call is open on the lane. It embeds
// the interface only: optional capabilities (peer copies) stay hidden,
// which the paper-default configuration never uses.
type tracedDev struct {
	accel.Device
	ln     *lane
	counts *accelCounts // nil outside Dgeqrf
}

func (d *tracedDev) MemAlloc(p *sim.Proc, n int) (gpu.Ptr, error) {
	d.ln.begin("accel.alloc")
	defer d.ln.end()
	return d.Device.MemAlloc(p, n)
}

func (d *tracedDev) MemFree(p *sim.Proc, ptr gpu.Ptr) error {
	d.ln.begin("accel.free")
	defer d.ln.end()
	return d.Device.MemFree(p, ptr)
}

func (d *tracedDev) Sync(p *sim.Proc) error {
	start := d.ln.t.now()
	d.ln.begin("accel.sync")
	err := d.Device.Sync(p)
	d.ln.end()
	if d.counts != nil {
		d.counts.waitNS += d.ln.t.now() - start
	}
	return err
}

func (d *tracedDev) CopyH2DAsync(dst gpu.Ptr, off int, src []byte, n int, stream uint8) accel.Pending {
	f := d.ln.takeoff("accel.h2d")
	return d.track(f, d.Device.CopyH2DAsync(dst, off, src, n, stream))
}

func (d *tracedDev) CopyD2HAsync(dst []byte, src gpu.Ptr, off, n int, stream uint8) accel.Pending {
	f := d.ln.takeoff("accel.d2h")
	return d.track(f, d.Device.CopyD2HAsync(dst, src, off, n, stream))
}

func (d *tracedDev) CopyH2D2DAsync(dst gpu.Ptr, off, colBytes, cols, pitch int, src []byte, stream uint8) accel.Pending {
	f := d.ln.takeoff("accel.h2d")
	return d.track(f, d.Device.CopyH2D2DAsync(dst, off, colBytes, cols, pitch, src, stream))
}

func (d *tracedDev) CopyD2H2DAsync(dst []byte, src gpu.Ptr, off, colBytes, cols, pitch int, stream uint8) accel.Pending {
	f := d.ln.takeoff("accel.d2h")
	return d.track(f, d.Device.CopyD2H2DAsync(dst, src, off, colBytes, cols, pitch, stream))
}

func (d *tracedDev) LaunchAsync(kernel string, l gpu.Launch, stream uint8) accel.Pending {
	f := d.ln.takeoff("accel.launch")
	return d.track(f, d.Device.LaunchAsync(kernel, l, stream))
}

// track closes the flight when the operation completes. The completion
// callback only reads the clock, so it cannot move virtual time
// (TestTracedQRKeepsVirtualTime pins that).
func (d *tracedDev) track(f flight, pd accel.Pending) accel.Pending {
	counts := d.counts
	if ev, ok := pd.(interface{ Done() *sim.Event }); ok {
		tr := d.ln.t
		ev.Done().OnTrigger(func() {
			tr.land(f)
			if counts == nil {
				return
			}
			ns := tr.now() - f.start
			switch f.name {
			case "accel.h2d":
				counts.h2dCalls++
				counts.h2dNS += ns
			case "accel.d2h":
				counts.d2hCalls++
				counts.d2hNS += ns
			default:
				counts.launchCalls++
				counts.launchNS += ns
			}
		})
	}
	return tracedPending{Pending: pd, d: d}
}

type tracedPending struct {
	accel.Pending
	d *tracedDev
}

func (tp tracedPending) Wait(p *sim.Proc) error {
	ln := tp.d.ln
	start := ln.t.now()
	ln.begin("accel.wait")
	err := tp.Pending.Wait(p)
	ln.end()
	if c := tp.d.counts; c != nil {
		c.waitNS += ln.t.now() - start
	}
	return err
}

// run simulates the factorization once.
func (q qrSim) run(tr *tracer, round int) (qrOutcome, error) {
	var out qrOutcome
	exec := q.matrix != nil
	localGPUs := 0
	if q.gpus == 0 {
		localGPUs = 1
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: q.gpus,
		Registry:     magmaRegistry(),
		LocalGPUs:    localGPUs,
		Execute:      exec,
	})
	if err != nil {
		return out, fmt.Errorf("cluster.New: %w", err)
	}
	simClock(tr, cl.Sim)
	ln := tr.lane(0)
	ln.setRound(round)

	var runErr error
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		runErr = q.body(p, node, cl, ln, &out)
	})
	t1 := time.Now()
	end, err := cl.Run()
	out.hostNS = time.Since(t1).Nanoseconds()
	if err != nil {
		return out, fmt.Errorf("cluster.Run: %w", err)
	}
	if runErr != nil {
		return out, runErr
	}
	out.endNS = int64(end)
	out.wireMsgs, out.wireBytes = wireTotals(cl.World)
	for _, d := range cl.Daemons {
		st := d.Stats()
		out.daemonRequests += st.Requests
		if st.StagingPeak > out.stagingPeak {
			out.stagingPeak = st.StagingPeak
		}
	}
	return out, nil
}

func (q qrSim) body(p *sim.Proc, node *cluster.Node, cl *cluster.Cluster, ln *lane, out *qrOutcome) error {
	exec := q.matrix != nil
	var devs []accel.Device
	var traced []*tracedDev
	if q.gpus > 0 {
		ln.begin("arm.acquire")
		handles, err := node.ARM.Acquire(p, q.gpus, false)
		ln.end()
		if err != nil {
			return fmt.Errorf("arm acquire: %w", err)
		}
		defer func() {
			ln.begin("arm.release")
			_ = node.ARM.Release(p, handles)
			ln.end()
		}()
		for _, h := range handles {
			var d accel.Device = accel.Remote(node.Attach(h))
			if ln != nil {
				td := &tracedDev{Device: d, ln: ln}
				traced = append(traced, td)
				d = td
			}
			devs = append(devs, d)
		}
	} else {
		ld := accel.Local(p, node.Local[0])
		defer ld.Close()
		devs = []accel.Device{ld}
	}
	cfg := magma.DefaultConfig()
	ln.begin("magma.newdist")
	dist, err := magma.NewDist(p, devs, q.n, q.n, cfg.NB, exec)
	ln.end()
	if err != nil {
		return fmt.Errorf("magma.NewDist: %w", err)
	}
	defer func() {
		ln.begin("magma.free")
		dist.Free(p)
		ln.end()
	}()
	ln.begin("magma.upload")
	err = dist.Upload(p, q.matrix)
	ln.end()
	if err != nil {
		return fmt.Errorf("magma upload: %w", err)
	}
	var tau []float64
	if exec {
		tau = make([]float64, q.n)
	}

	gpuStats := func() (busy, in, outB int64) {
		for _, d := range cl.Daemons {
			st := d.Device().Stats()
			busy += int64(st.Busy)
			in += st.BytesIn
			outB += st.BytesOut
		}
		return
	}
	busy0, in0, out0 := gpuStats()
	tx0 := int64(cl.World.Traffic(0).TxBusy)
	for _, td := range traced {
		td.counts = &out.accel
	}
	start := p.Now()
	ln.begin("magma.dgeqrf")
	err = magma.Dgeqrf(p, dist, tau, cfg)
	ln.end()
	out.virtNS = int64(p.Now().Sub(start))
	for _, td := range traced {
		td.counts = nil
	}
	if err != nil {
		return fmt.Errorf("magma.Dgeqrf: %w", err)
	}
	busy1, in1, out1 := gpuStats()
	out.gpuBusyNS, out.gpuBytesIn, out.gpuBytesOut = busy1-busy0, in1-in0, out1-out0
	out.txBusyNS = int64(cl.World.Traffic(0).TxBusy) - tx0

	if exec {
		out.factors = make([]float64, q.n*q.n)
		ln.begin("magma.download")
		err = dist.Download(p, out.factors)
		ln.end()
		if err != nil {
			return fmt.Errorf("magma download: %w", err)
		}
		out.tau = tau
	}
	return nil
}

// qrFlops is the flop count behind every GFlop/s figure (paper Fig. 9).
func qrFlops(n int) float64 { return magma.QRFlops(n, n) }

// lapackQR factors a copy of a on the host: the reference the hybrid
// factorization must reproduce.
func lapackQR(a []float64, n, nb int) (factors, tau []float64) {
	factors = append([]float64(nil), a...)
	tau = make([]float64, n)
	lapack.Dgeqrf(n, n, factors, n, tau, nb)
	return factors, tau
}

// qrBlockWidth is magma.DefaultConfig's panel width.
func qrBlockWidth() int { return magma.DefaultConfig().NB }

// ---------------------------------------------------------------------
// sim_fleet: a 32-daemon / 96-tenant rack under a mixed round, in the
// deterministic simulator.
// ---------------------------------------------------------------------

const (
	fleetRounds    = 4
	fleetCopyBytes = 512 * kib
	// fleetJitterNS bounds the seed-drawn delay before each tenant starts.
	fleetJitterNS = 10_000
)

// fleetSim is one fleet simulation. ha selects 3 ARM shards with a
// follower replica each (the sharded/replicated client path); otherwise a
// single ARM serves the rack (the legacy client path).
type fleetSim struct {
	daemons, tenants int
	ha               bool
	jitter           []int64 // per tenant, virtual ns
	// poolCheck makes the last tenant to finish ask the ARM for its pool
	// statistics. It costs one extra request, so the runs behind
	// virt_ops_per_s leave it off; set-up and the traced pass turn it on.
	poolCheck bool
}

type fleetOutcome struct {
	ops     int
	virtNS  int64 // virtual ns until the simulation, teardown included, ends
	workNS  int64 // virtual ns until the last tenant has released its lease
	buildNS int64
	hostNS  int64

	wireMsgs, wireBytes int64
	poolFree, poolTotal int     // with poolCheck
	armWaitS            float64 // PoolStats.WaitSeconds, with poolCheck
}

// fleetNames holds the span names of one half, so that the HA half's
// spans aggregate apart from the single-ARM half's.
type fleetNames struct {
	acquire, open, alloc, h2d, launch, d2h, free, close, release string
}

func newFleetNames(suffix string) fleetNames {
	return fleetNames{
		acquire: "arm.acquire" + suffix,
		open:    "core.session_open" + suffix,
		alloc:   "core.alloc" + suffix,
		h2d:     "core.h2d_512k" + suffix,
		launch:  "core.launch" + suffix,
		d2h:     "core.d2h_512k" + suffix,
		free:    "core.free" + suffix,
		close:   "core.session_close" + suffix,
		release: "arm.release" + suffix,
	}
}

var (
	fleetSingleNames = newFleetNames("")
	fleetHANames     = newFleetNames("_ha")
)

// ops is what one fleet simulation must complete: per tenant a lease
// (shared acquire + session open, counted as one op so that the figure
// continues the ROADMAP's 1632-op series), an alloc, 4×{H2D, launch, D2H},
// a free, a session close and a release.
func (f fleetSim) ops() int { return f.tenants * (2 + 3*fleetRounds + 3) }

func fleetJitter(seed int64, tenants int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	j := make([]int64, tenants)
	for i := range j {
		j[i] = rng.Int63n(fleetJitterNS)
	}
	return j
}

func (f fleetSim) run(tr *tracer, round int) (fleetOutcome, error) {
	var out fleetOutcome
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "fleet.gemm",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 250 * sim.Microsecond },
	})
	cfg := cluster.Config{
		ComputeNodes:  f.tenants,
		Accelerators:  f.daemons,
		Registry:      reg,
		ShareCapacity: (f.tenants+f.daemons-1)/f.daemons + 1,
	}
	names := fleetSingleNames
	if f.ha {
		cfg.ARMShards, cfg.ARMReplicas = 3, true
		names = fleetHANames
	}
	t0 := time.Now()
	cl, err := cluster.New(cfg)
	if err != nil {
		return out, fmt.Errorf("cluster.New: %w", err)
	}
	out.buildNS = time.Since(t0).Nanoseconds()
	simClock(tr, cl.Sim)

	var firstErr error
	finished := 0
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		ln := tr.lane(node.Rank)
		ln.setRound(round)
		if err := f.tenant(p, node, ln, names, &out.ops); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %d: %w", node.Rank, err)
		}
		finished++
		out.workNS = int64(p.Now()) // tenants finish in time order; the last one stays
		if f.poolCheck && finished == f.tenants {
			st, err := node.ARM.Stats(p)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("arm stats: %w", err)
			}
			out.poolFree, out.poolTotal, out.armWaitS = st.Free, st.Total, st.WaitSeconds
		}
	})
	t1 := time.Now()
	end, err := cl.Run()
	out.hostNS = time.Since(t1).Nanoseconds()
	if err != nil {
		return out, fmt.Errorf("cluster.Run: %w", err)
	}
	out.virtNS = int64(end)
	out.wireMsgs, out.wireBytes = wireTotals(cl.World)
	return out, firstErr
}

func (f fleetSim) tenant(p *sim.Proc, node *cluster.Node, ln *lane, nm fleetNames, ops *int) error {
	p.Wait(sim.Duration(f.jitter[node.Rank]))
	ln.begin(nm.acquire)
	handles, err := node.ARM.AcquireShared(p, 1, true)
	ln.end()
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	ln.begin(nm.open)
	ac, err := node.AttachSession(p, handles[0])
	ln.end()
	if err != nil {
		return fmt.Errorf("session open: %w", err)
	}
	*ops++
	ln.begin(nm.alloc)
	ptr, err := ac.MemAlloc(p, fleetCopyBytes)
	ln.end()
	if err != nil {
		return fmt.Errorf("alloc: %w", err)
	}
	*ops++
	k := ac.KernelCreate("fleet.gemm").SetArgs(gpu.PtrArg(ptr), gpu.IntArg(fleetCopyBytes/8))
	for r := 0; r < fleetRounds; r++ {
		ln.begin(nm.h2d)
		err = ac.MemcpyH2D(p, ptr, 0, nil, fleetCopyBytes)
		ln.end()
		if err != nil {
			return fmt.Errorf("h2d: %w", err)
		}
		*ops++
		ln.begin(nm.launch)
		err = k.Run(p, gpu.Dim3{X: 64}, gpu.Dim3{X: 256})
		ln.end()
		if err != nil {
			return fmt.Errorf("launch: %w", err)
		}
		*ops++
		ln.begin(nm.d2h)
		err = ac.MemcpyD2H(p, nil, ptr, 0, fleetCopyBytes)
		ln.end()
		if err != nil {
			return fmt.Errorf("d2h: %w", err)
		}
		*ops++
	}
	ln.begin(nm.free)
	err = ac.MemFree(p, ptr)
	ln.end()
	if err != nil {
		return fmt.Errorf("free: %w", err)
	}
	*ops++
	ln.begin(nm.close)
	err = ac.CloseSession(p)
	ln.end()
	if err != nil {
		return fmt.Errorf("session close: %w", err)
	}
	*ops++
	ln.begin(nm.release)
	err = node.ARM.Release(p, handles)
	ln.end()
	if err != nil {
		return fmt.Errorf("release: %w", err)
	}
	*ops++
	return nil
}

// ---------------------------------------------------------------------
// Socket mode: client, daemons and ARM each on their own loopback
// listener inside this process, joined by real TCP (as cmd/acsoak does).
// ---------------------------------------------------------------------

// sockCluster is a running three-tier loopback deployment.
type sockCluster struct {
	cfg    cluster.Config
	client *cluster.Member
	infra  []*cluster.Member
	wg     sync.WaitGroup
	mu     sync.Mutex
	srvErr error
}

// startSock listens, builds the three processes and starts the two
// infrastructure ones. accels daemons serve; share is the shared-lease
// capacity per accelerator (0 = exclusive only).
func startSock(accels, share int) (*sockCluster, error) {
	sc := &sockCluster{cfg: cluster.Config{
		ComputeNodes:  1,
		Accelerators:  accels,
		ShareCapacity: share,
		Execute:       true,
		Registry:      magmaRegistry(),
	}}
	topo, err := cluster.ListenTopology("dynacc-benchmark", cluster.ThreeTierSplit(sc.cfg))
	if err != nil {
		return nil, err
	}
	for pid := 1; pid < len(topo.Procs); pid++ {
		m, err := cluster.StartProcess(sc.cfg, topo, pid)
		if err != nil {
			sc.abort(topo.Listeners[pid:])
			return nil, fmt.Errorf("start proc %d: %w", pid, err)
		}
		sc.infra = append(sc.infra, m)
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			if err := m.Serve(); err != nil {
				sc.mu.Lock()
				sc.srvErr = errors.Join(sc.srvErr, fmt.Errorf("infra proc %d: %w", m.ProcID, err))
				sc.mu.Unlock()
			}
		}()
	}
	sc.client, err = cluster.StartProcess(sc.cfg, topo, 0)
	if err != nil {
		sc.abort(topo.Listeners[:1])
		return nil, fmt.Errorf("start client proc: %w", err)
	}
	// Ready means every pair of processes has shaken hands, the
	// daemon-to-ARM pair too. (A transport closed while one of its dials
	// is still completing never returns from Close, so a deployment must
	// not be torn down before this point.)
	for _, m := range append([]*cluster.Member{sc.client}, sc.infra...) {
		if err := m.Transport().WaitReady(5 * time.Second); err != nil {
			sc.client.Stop()
			sc.abort(nil)
			return nil, err
		}
	}
	return sc, nil
}

// abort unwinds a half-started deployment.
func (sc *sockCluster) abort(unused []net.Listener) {
	for _, ln := range unused {
		ln.Close()
	}
	sc.stopInfra()
}

func (sc *sockCluster) stopInfra() {
	for _, m := range sc.infra {
		m.Stop()
	}
	sc.wg.Wait()
}

// run executes main as compute node 0's process, tears the deployment
// down over the wire and waits for the infrastructure to drain. stuck is
// closed by the caller's watchdog to abandon a hung run.
func (sc *sockCluster) run(stuck <-chan struct{}, main func(rt *sockRT)) error {
	err := sc.client.Spawn(0, func(p *sim.Proc, n *cluster.Node) {
		main(&sockRT{p: p, n: n, sc: sc})
	})
	if err != nil {
		sc.client.Stop()
		sc.stopInfra()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- sc.client.Run() }()
	select {
	case err = <-done:
	case <-stuck:
		sc.client.Stop()
		err = errors.Join(errors.New("socket run abandoned by the watchdog"), <-done)
	}
	// The client's teardown asked every daemon and the ARM to shut down;
	// give them a moment to drain, then stop whatever is left.
	drained := make(chan struct{})
	go func() { sc.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		sc.stopInfra()
		err = errors.Join(err, errors.New("infrastructure did not drain after teardown"))
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return errors.Join(err, sc.srvErr)
}

// sockRT is what a socket workload's loop sees: compute node 0, running
// as a process of the client's real-time simulation.
type sockRT struct {
	p  *sim.Proc
	n  *cluster.Node
	sc *sockCluster
}

// sockCounters is a snapshot of the cumulative counters of all three
// processes.
type sockCounters struct {
	frames, framesResent, reconnects int64
	wireBytes                        int64
	gpuBusyNS                        int64 // Σ modelled device time (the daemons slept through it)
	blocks                           int64 // pipeline blocks staged, both directions
	stagingPeak                      int64
}

// counters reads the transports (atomics) and, inside each infrastructure
// process's scheduler, the device and daemon statistics.
func (rt *sockRT) counters() sockCounters {
	var c sockCounters
	members := append([]*cluster.Member{rt.sc.client}, rt.sc.infra...)
	for _, m := range members {
		st := m.Transport().Stats()
		c.frames += st.FramesSent
		c.framesResent += st.FramesResent
		c.reconnects += st.Reconnects
		c.wireBytes += st.BytesSent
	}
	for _, m := range rt.sc.infra {
		got := make(chan sockCounters, 1)
		m.Cluster.Sim.Inject(func() {
			var d sockCounters
			for _, dm := range m.Cluster.Daemons {
				if dm == nil {
					continue
				}
				ds := dm.Stats()
				d.gpuBusyNS += int64(dm.Device().Stats().Busy)
				d.blocks += ds.BlocksIn + ds.BlocksOut
				if ds.StagingPeak > d.stagingPeak {
					d.stagingPeak = ds.StagingPeak
				}
			}
			got <- d
		})
		select {
		case d := <-got:
			c.gpuBusyNS += d.gpuBusyNS
			c.blocks += d.blocks
			if d.stagingPeak > c.stagingPeak {
				c.stagingPeak = d.stagingPeak
			}
		case <-time.After(2 * time.Second):
			// The process has stopped serving; its counters are lost.
		}
	}
	return c
}

// qrInput is sock_soak's QR problem: the matrix and its LAPACK reference.
type qrInput struct {
	n, nb, gpus int
	matrix, ref []float64
}

func newQRInput(seed int64, n, nb, gpus int) qrInput {
	in := qrInput{n: n, nb: nb, gpus: gpus, matrix: randomMatrix(seed, n)}
	in.ref, _ = lapackQR(in.matrix, n, nb)
	return in
}

// qrRound is one exclusive QR round: acquire, upload, factor, download,
// verify against LAPACK to 1e-8, release.
func (rt *sockRT) qrRound(ln *lane, in qrInput) error {
	p, n := rt.p, rt.n
	ln.begin("arm.acquire")
	handles, err := n.ARM.Acquire(p, in.gpus, true)
	ln.end()
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	release := func() error {
		ln.begin("arm.release")
		defer ln.end()
		return n.ARM.Release(p, handles)
	}
	devs := make([]magma.Device, 0, len(handles))
	for _, h := range handles {
		devs = append(devs, accel.Remote(n.Attach(h)))
	}
	err = rt.qrOnDevices(ln, devs, in)
	if rerr := release(); err == nil && rerr != nil {
		err = fmt.Errorf("release: %w", rerr)
	}
	return err
}

func (rt *sockRT) qrOnDevices(ln *lane, devs []magma.Device, in qrInput) (err error) {
	p := rt.p
	ln.begin("magma.newdist")
	dist, err := magma.NewDist(p, devs, in.n, in.n, in.nb, true)
	ln.end()
	if err != nil {
		return fmt.Errorf("newdist: %w", err)
	}
	defer func() {
		ln.begin("magma.free")
		dist.Free(p)
		ln.end()
	}()
	ln.begin("magma.upload")
	err = dist.Upload(p, in.matrix)
	ln.end()
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	tau := make([]float64, in.n)
	cfg := magma.DefaultConfig()
	cfg.NB = in.nb
	ln.begin("magma.dgeqrf")
	err = magma.Dgeqrf(p, dist, tau, cfg)
	ln.end()
	if err != nil {
		return fmt.Errorf("dgeqrf: %w", err)
	}
	got := make([]float64, in.n*in.n)
	ln.begin("magma.download")
	err = dist.Download(p, got)
	ln.end()
	if err != nil {
		return fmt.Errorf("download: %w", err)
	}
	ln.begin("lapack.verify")
	defer ln.end()
	for i := range got {
		if d := math.Abs(got[i] - in.ref[i]); !(d <= 1e-8) {
			return fmt.Errorf("QR diverged from LAPACK at %d: |diff| = %.2e", i, d)
		}
	}
	return nil
}

const tenantBytes = 64 * kib

// tenantRound is one multi-tenant round: a shared lease on one
// accelerator, two isolated sessions on it, and in each an
// alloc/memset/H2D/D2H/verify/free cycle.
func (rt *sockRT) tenantRound(ln *lane, payload, back []byte) error {
	p, n := rt.p, rt.n
	ln.begin("arm.acquire_shared")
	handles, err := n.ARM.AcquireShared(p, 1, true)
	ln.end()
	if err != nil {
		return fmt.Errorf("acquire shared: %w", err)
	}
	err = rt.tenants(ln, handles[0], payload, back)
	ln.begin("arm.release_shared")
	rerr := n.ARM.Release(p, handles)
	ln.end()
	if err == nil && rerr != nil {
		err = fmt.Errorf("release: %w", rerr)
	}
	return err
}

func (rt *sockRT) tenants(ln *lane, h arm.Handle, payload, back []byte) (err error) {
	p, n := rt.p, rt.n
	var open []*core.Accel
	defer func() {
		for _, ac := range open {
			ln.begin("core.session_close")
			cerr := ac.CloseSession(p)
			ln.end()
			if err == nil && cerr != nil {
				err = fmt.Errorf("session close: %w", cerr)
			}
		}
	}()
	for t := 0; t < 2; t++ {
		ln.begin("core.session_open")
		ac, err := n.AttachSession(p, h)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d session open: %w", t, err)
		}
		open = append(open, ac)
		ln.begin("core.alloc")
		ptr, err := ac.MemAlloc(p, tenantBytes)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d alloc: %w", t, err)
		}
		ln.begin("core.memset")
		err = ac.Memset(p, ptr, 0, tenantBytes, 0)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d memset: %w", t, err)
		}
		ln.begin("core.h2d_64k")
		err = ac.MemcpyH2D(p, ptr, 0, payload, tenantBytes)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d h2d: %w", t, err)
		}
		ln.begin("core.d2h_64k")
		err = ac.MemcpyD2H(p, back, ptr, 0, tenantBytes)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d d2h: %w", t, err)
		}
		if !bytes.Equal(back, payload) {
			return fmt.Errorf("tenant %d: D2H bytes differ from H2D bytes", t)
		}
		ln.begin("core.free")
		err = ac.MemFree(p, ptr)
		ln.end()
		if err != nil {
			return fmt.Errorf("tenant %d free: %w", t, err)
		}
	}
	return nil
}

// poolFree reports how many accelerators the ARM counts free, and how
// many it has.
func (rt *sockRT) poolFree() (free, total int, err error) {
	st, err := rt.n.ARM.Stats(rt.p)
	return st.Free, st.Total, err
}

// stream is sock_stream's attachment: one exclusive accelerator and one
// allocation of the copy size on it.
type stream struct {
	rt      *sockRT
	bytes   int
	handles []arm.Handle
	ac      *core.Accel
	ptr     gpu.Ptr
}

func (rt *sockRT) openStream(ln *lane, bytes int) (*stream, error) {
	ln.begin("arm.acquire")
	handles, err := rt.n.ARM.Acquire(rt.p, 1, true)
	ln.end()
	if err != nil {
		return nil, fmt.Errorf("acquire: %w", err)
	}
	s := &stream{rt: rt, bytes: bytes, handles: handles, ac: rt.n.Attach(handles[0])}
	ln.begin("core.alloc")
	s.ptr, err = s.ac.MemAlloc(rt.p, bytes)
	ln.end()
	if err != nil {
		_ = rt.n.ARM.Release(rt.p, handles)
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return s, nil
}

// h2d and d2h move the whole allocation with the paper's default protocols
// and return the wall time of the call.
func (s *stream) h2d(ln *lane, src []byte) (time.Duration, error) {
	t0 := time.Now()
	ln.begin("core.h2d_16m")
	err := s.ac.MemcpyH2D(s.rt.p, s.ptr, 0, src, s.bytes)
	ln.end()
	return time.Since(t0), err
}

func (s *stream) d2h(ln *lane, dst []byte) (time.Duration, error) {
	t0 := time.Now()
	ln.begin("core.d2h_16m")
	err := s.ac.MemcpyD2H(s.rt.p, dst, s.ptr, 0, s.bytes)
	ln.end()
	return time.Since(t0), err
}

func (s *stream) close(ln *lane) error {
	ln.begin("core.free")
	err := s.ac.MemFree(s.rt.p, s.ptr)
	ln.end()
	ln.begin("arm.release")
	rerr := s.rt.n.ARM.Release(s.rt.p, s.handles)
	ln.end()
	return errors.Join(err, rerr)
}

// ---------------------------------------------------------------------
// Layer probes: one layer alone, through its public API, with fixed
// iteration counts.
// ---------------------------------------------------------------------

// daemonPair is the smallest core deployment: a front-end on rank 0 and
// one daemon with its device on rank 1 of a two-rank simulated world.
func daemonPair(opts core.Options, reg *gpu.Registry, body func(p *sim.Proc, ac *core.Accel)) error {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		return err
	}
	dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060(), Registry: reg})
	if err != nil {
		return err
	}
	daemon := core.NewDaemon(w.Comm(1), dev, core.DefaultDaemonConfig())
	s.Spawn("daemon", daemon.Run)
	var bodyErr error
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := core.NewClient(w.Comm(0), opts)
		if err != nil {
			bodyErr = err
			return
		}
		ac := client.Attach(1)
		body(p, ac)
		bodyErr = ac.Shutdown(p)
	})
	if err := s.Run(); err != nil {
		return err
	}
	return bodyErr
}

// probeCoreCopy times 16 MiB pipelined copies through core alone: the
// virtual bandwidth of each direction (the paper's Fig. 5/6 point, exact)
// and the host cost of simulating one copy.
func probeCoreCopy(copies int) (h2dMiBps, d2hMiBps, hostUSPerCopy float64, err error) {
	const n = 16 * mib
	var h2dNS, d2hNS int64
	t0 := time.Now()
	err = daemonPair(core.DefaultOptions(), nil, func(p *sim.Proc, ac *core.Accel) {
		ptr, aerr := ac.MemAlloc(p, n)
		if aerr != nil {
			err = aerr
			return
		}
		for i := 0; i < copies && err == nil; i++ {
			start := p.Now()
			err = ac.MemcpyH2D(p, ptr, 0, nil, n)
			mid := p.Now()
			if err == nil {
				err = ac.MemcpyD2H(p, nil, ptr, 0, n)
			}
			// Every copy costs the same virtual time; keep the last.
			h2dNS, d2hNS = int64(mid.Sub(start)), int64(p.Now().Sub(mid))
		}
	})
	host := time.Since(t0)
	if err != nil || h2dNS == 0 || d2hNS == 0 {
		return 0, 0, 0, errors.Join(err, errors.New("core copy probe measured nothing"))
	}
	mibps := func(ns int64) float64 { return float64(n) / mib / (float64(ns) / 1e9) }
	return mibps(h2dNS), mibps(d2hNS), float64(host.Microseconds()) / float64(2*copies), nil
}

// probeCoreRequests times the smallest request pair (alloc + free)
// through core alone: host ns per request.
func probeCoreRequests(pairs int) (hostNSPerRequest float64, err error) {
	t0 := time.Now()
	err = daemonPair(core.DefaultOptions(), nil, func(p *sim.Proc, ac *core.Accel) {
		for i := 0; i < pairs && err == nil; i++ {
			var ptr gpu.Ptr
			if ptr, err = ac.MemAlloc(p, 4*kib); err == nil {
				err = ac.MemFree(p, ptr)
			}
		}
	})
	return float64(time.Since(t0).Nanoseconds()) / float64(2*pairs), err
}

// probeLaunches times a storm of small kernel launches through core
// alone, one wire message per launch or batched: virtual µs per launch.
func probeLaunches(launches int, batched bool) (virtUSPerLaunch float64, err error) {
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "probe.small",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 2 * sim.Microsecond },
	})
	opts := core.DefaultOptions()
	if batched {
		opts = core.BatchedOptions()
	}
	var virtNS int64
	err = daemonPair(opts, reg, func(p *sim.Proc, ac *core.Accel) {
		k := ac.KernelCreate("probe.small")
		start := p.Now()
		for i := 0; i < launches; i++ {
			k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 64}, 0)
		}
		err = ac.Sync(p)
		virtNS = int64(p.Now().Sub(start))
	})
	return float64(virtNS) / 1e3 / float64(launches), err
}

// probeARM times acquire+release pairs against an ARM alone (no daemons):
// host ns and virtual µs per acquire/release pair.
func probeARM(pairs int) (hostNSPerAcquire, virtUSPerAcquire float64, err error) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		return 0, 0, err
	}
	srv, err := arm.NewServer(w.Comm(1), []arm.Handle{{ID: 0, Rank: 1}}, arm.FIFO)
	if err != nil {
		return 0, 0, err
	}
	s.Spawn("arm", srv.Run)
	var virtNS int64
	var callErr error
	s.Spawn("cn", func(p *sim.Proc) {
		c := arm.NewClient(w.Comm(0), 1)
		start := p.Now()
		for i := 0; i < pairs && callErr == nil; i++ {
			var hs []arm.Handle
			if hs, callErr = c.Acquire(p, 1, true); callErr == nil {
				callErr = c.Release(p, hs)
			}
		}
		virtNS = int64(p.Now().Sub(start))
		if err := c.Shutdown(p); callErr == nil {
			callErr = err
		}
	})
	t0 := time.Now()
	err = s.Run()
	host := time.Since(t0)
	return float64(host.Nanoseconds()) / float64(pairs), float64(virtNS) / 1e3 / float64(pairs), errors.Join(err, callErr)
}

// probeMinimpi times ping-pongs of size-byte messages between two ranks
// of a simulated world: host ns per message.
func probeMinimpi(size, msgs int) (hostNSPerMsg float64, err error) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	reps := msgs / 2
	s.Spawn("rank0", func(p *sim.Proc) {
		c := w.Comm(0)
		for i := 0; i < reps; i++ {
			c.Send(p, 1, 0, payload)
			c.Recv(p, 1, 0)
		}
	})
	s.Spawn("rank1", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < reps; i++ {
			c.Recv(p, 0, 0)
			c.Send(p, 0, 0, payload)
		}
	})
	t0 := time.Now()
	err = s.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(2*reps), err
}

// probeSimEvents times the bare event engine: one process waking from
// timed waits, host ns per event.
func probeSimEvents(events int) (hostNSPerEvent float64, err error) {
	s := sim.New()
	s.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < events; i++ {
			p.Wait(sim.Microsecond)
		}
	})
	t0 := time.Now()
	err = s.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(events), err
}

// rtLoop is a simulation driven by RunRealtime on its own goroutine.
type rtLoop struct {
	s    *sim.Simulation
	stop chan struct{}
	done chan error
}

func startRTLoop(s *sim.Simulation) *rtLoop {
	l := &rtLoop{s: s, stop: make(chan struct{}), done: make(chan error, 1)}
	go func() { l.done <- s.RunRealtime(l.stop) }()
	return l
}

func (l *rtLoop) halt() error {
	close(l.stop)
	return <-l.done
}

// probeInjectWake times sim.Inject into a parked real-time loop: from the
// Inject call until the injected function runs, in ns.
func probeInjectWake(wakes int) (*samples, error) {
	l := startRTLoop(sim.New())
	out := &samples{}
	ran := make(chan time.Time)
	for i := 0; i < wakes; i++ {
		time.Sleep(50 * time.Microsecond) // let the loop park again
		t0 := time.Now()
		l.s.Inject(func() { ran <- time.Now() })
		out.add(float64((<-ran).Sub(t0).Nanoseconds()))
	}
	return out, l.halt()
}

// probeTimerOvershoot times a 2 ms AfterCall under RunRealtime: how long
// after its due time the callback ran, in ns.
func probeTimerOvershoot(timers int) (*samples, error) {
	l := startRTLoop(sim.New())
	out := &samples{}
	const due = 2 * time.Millisecond
	ran := make(chan time.Time)
	for i := 0; i < timers; i++ {
		var t0 time.Time
		l.s.Inject(func() {
			t0 = time.Now()
			l.s.AfterCall(sim.Duration(due), func(any) { ran <- time.Now() }, nil)
		})
		at := <-ran
		out.add(float64((at.Sub(t0) - due).Nanoseconds()))
	}
	return out, l.halt()
}

// netPair is a two-process nettrans world on loopback with nothing above
// minimpi: rank 0 and rank 1 each own a simulation, a world and a
// transport.
type netPair struct {
	loops  [2]*rtLoop
	worlds [2]*minimpi.World
	trs    [2]*nettrans.Transport
}

func startNetPair() (*netPair, error) {
	np := &netPair{}
	var lns [2]net.Listener
	procs := make([]nettrans.ProcSpec, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		procs[i] = nettrans.ProcSpec{Addr: ln.Addr().String(), Ranks: []int{i}}
	}
	for i := range lns {
		s := sim.New()
		w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
		if err == nil {
			np.trs[i], err = nettrans.New(nettrans.Config{World: w, ProcID: i, Procs: procs, Listener: lns[i], Token: "probe"})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			np.close()
			return nil, err
		}
		w.SetTransport(np.trs[i])
		np.worlds[i] = w
		np.loops[i] = startRTLoop(s)
	}
	if err := np.trs[0].WaitReady(5 * time.Second); err != nil {
		np.close()
		return nil, err
	}
	return np, nil
}

func (np *netPair) close() error {
	var err error
	for i, l := range np.loops {
		if l != nil {
			err = errors.Join(err, l.halt())
		}
		if np.trs[i] != nil {
			np.trs[i].Close()
		}
	}
	return err
}

// spawn starts fn as a process of rank's simulation; the channel closes
// when fn returns.
func (np *netPair) spawn(rank int, fn func(p *sim.Proc, c *minimpi.Comm)) chan struct{} {
	ch := make(chan struct{})
	s := np.loops[rank].s
	c := np.worlds[rank].Comm(rank)
	s.Inject(func() {
		s.Spawn("probe", func(p *sim.Proc) {
			defer close(ch)
			fn(p, c)
		})
	})
	return ch
}

func awaitBoth(a, b chan struct{}, limit time.Duration) error {
	deadline := time.After(limit)
	for _, ch := range []chan struct{}{a, b} {
		select {
		case <-ch:
		case <-deadline:
			return errors.New("nettrans probe did not finish")
		}
	}
	return nil
}

// probePingPong times raw minimpi Send/Recv round trips of size bytes
// over the TCP transport, nothing above it: ns per round trip.
func probePingPong(size, trips int) (*samples, error) {
	np, err := startNetPair()
	if err != nil {
		return nil, err
	}
	out := &samples{}
	payload := make([]byte, size)
	pong := np.spawn(1, func(p *sim.Proc, c *minimpi.Comm) {
		for i := 0; i < trips; i++ {
			data, _ := c.Recv(p, 0, 7)
			c.Send(p, 0, 8, data)
		}
	})
	ping := np.spawn(0, func(p *sim.Proc, c *minimpi.Comm) {
		for i := 0; i < trips; i++ {
			t0 := time.Now()
			c.Send(p, 1, 7, payload)
			c.Recv(p, 1, 8)
			out.add(float64(time.Since(t0).Nanoseconds()))
		}
	})
	err = awaitBoth(ping, pong, 60*time.Second)
	return out, errors.Join(err, np.close())
}

// probeStream pushes msgs 1 MiB messages one way over the TCP transport,
// a window of streamWindow at a time with a one-byte acknowledgement per
// window (sends complete at enqueue, so the window is what bounds the
// bytes queued): MB/s.
func probeStream(msgs int) (mbps float64, err error) {
	const streamWindow = 8
	np, err := startNetPair()
	if err != nil {
		return 0, err
	}
	payload := make([]byte, mib)
	windows := msgs / streamWindow
	var elapsed time.Duration
	sink := np.spawn(1, func(p *sim.Proc, c *minimpi.Comm) {
		for w := 0; w < windows; w++ {
			for i := 0; i < streamWindow; i++ {
				c.Recv(p, 0, 7)
			}
			c.Send(p, 0, 8, []byte{1})
		}
	})
	source := np.spawn(0, func(p *sim.Proc, c *minimpi.Comm) {
		t0 := time.Now()
		for w := 0; w < windows; w++ {
			for i := 0; i < streamWindow; i++ {
				c.Send(p, 1, 7, payload)
			}
			c.Recv(p, 1, 8)
		}
		elapsed = time.Since(t0)
	})
	err = awaitBoth(source, sink, 60*time.Second)
	err = errors.Join(err, np.close())
	if err != nil || elapsed <= 0 {
		return 0, errors.Join(err, errors.New("stream probe measured nothing"))
	}
	return float64(windows*streamWindow) * mib / 1e6 / elapsed.Seconds(), nil
}

// probeDgemm and probeDgeqrf time the host kernels the execute-mode
// devices and the verification run on: GFlop/s on this machine.
func probeDgemm(n, reps int) float64 {
	a, b := randomMatrix(1, n), randomMatrix(2, n)
	c := make([]float64, n*n)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	}
	return 2 * float64(n) * float64(n) * float64(n) * float64(reps) / time.Since(t0).Seconds() / 1e9
}

func probeDgeqrf(n, reps int) float64 {
	a := randomMatrix(3, n)
	work := make([]float64, n*n)
	tau := make([]float64, n)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		copy(work, a)
		lapack.Dgeqrf(n, n, work, n, tau, 32)
	}
	return qrFlops(n) * float64(reps) / time.Since(t0).Seconds() / 1e9
}
