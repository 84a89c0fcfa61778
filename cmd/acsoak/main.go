// Command acsoak is an open-loop soak driver for the socket-mode cluster:
// it runs the paper's two headline workloads — hybrid QR factorization on
// network-attached GPUs and multi-tenant shared sessions — over real TCP
// for a fixed wall-clock duration and reports message/byte/retry counters
// as JSON.
//
// By default it is self-contained: the client process, the accelerator
// daemons and the resource manager each get their own loopback listener
// inside this one OS process, joined by real sockets. With -topo/-proc it
// instead joins an externally started topology (see cmd/acnode) as the
// process hosting compute node 0.
//
// The exit status asserts the soak's health: nonzero when any handshake
// failed, when no operation completed, or when any operation errored.
//
// Usage:
//
//	acsoak -duration 5s                  # self-contained loopback soak
//	acsoak -ac 4 -shards 2 -duration 10s # sharded resource management
//	acsoak -topo "cn@...;ac@...;arm@..." -proc 0   # join acnodes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/magma"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

type transportReport struct {
	Proc              int   `json:"proc"`
	Dials             int64 `json:"dials"`
	Reconnects        int64 `json:"reconnects"`
	HandshakeFailures int64 `json:"handshake_failures"`
	FramesSent        int64 `json:"frames_sent"`
	FramesReceived    int64 `json:"frames_received"`
	FramesResent      int64 `json:"frames_resent"`
	BytesSent         int64 `json:"bytes_sent"`
	BytesReceived     int64 `json:"bytes_received"`
}

type report struct {
	DurationSec float64           `json:"duration_sec"`
	QROps       int               `json:"qr_ops"`
	SessionOps  int               `json:"session_ops"`
	Errors      int               `json:"errors"`
	Client      transportReport   `json:"client"`
	Infra       []transportReport `json:"infra,omitempty"`
}

func main() {
	var (
		duration = flag.Duration("duration", 5*time.Second, "soak length (wall clock)")
		ac       = flag.Int("ac", 3, "accelerator nodes (self-contained mode)")
		shards   = flag.Int("shards", 1, "ARM shards (self-contained mode; <2 = single manager)")
		share    = flag.Int("share", 2, "shared-lease capacity per accelerator")
		qrGPUs   = flag.Int("qr-gpus", 2, "network-attached GPUs per QR factorization")
		qrN      = flag.Int("qr-n", 96, "QR matrix size")
		qrNB     = flag.Int("qr-nb", 16, "QR block width")
		topoSpec = flag.String("topo", "", "join an external topology instead of self-hosting (see acnode)")
		proc     = flag.Int("proc", 0, "this process's index in -topo (must host compute node 0)")
		token    = flag.String("token", "", "connection token for -topo mode")
	)
	flag.Parse()

	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cfg := cluster.Config{
		ComputeNodes:  1,
		Accelerators:  *ac,
		ShareCapacity: *share,
		ARMShards:     *shards,
		Execute:       true,
		Registry:      reg,
	}

	var topo cluster.Topology
	var joinInfra func() []transportReport
	var err error
	if *topoSpec != "" {
		// External mode: the acnodes own the infrastructure ranks.
		topo, err = cluster.ParseTopology(cfg, *topoSpec)
		if err != nil {
			fatal(err)
		}
		topo.Token = *token
		joinInfra = func() []transportReport { return nil }
	} else {
		// Self-contained: every tier on its own loopback listener in this
		// process — client, daemons, resource manager(s).
		topo, err = cluster.ListenTopology("acsoak", cluster.ThreeTierSplit(cfg))
		if err != nil {
			fatal(err)
		}
		var wg sync.WaitGroup
		infra := make([]*cluster.Member, 0, 2)
		for pid := 1; pid < len(topo.Procs); pid++ {
			m, err := cluster.StartProcess(cfg, topo, pid)
			if err != nil {
				fatal(err)
			}
			infra = append(infra, m)
			wg.Add(1)
			go func(pid int, m *cluster.Member) {
				defer wg.Done()
				if err := m.Serve(); err != nil {
					fmt.Fprintf(os.Stderr, "acsoak: infra proc %d: %v\n", pid, err)
				}
			}(pid, m)
		}
		joinInfra = func() []transportReport {
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				fmt.Fprintln(os.Stderr, "acsoak: infrastructure did not drain; stopping it")
				for _, m := range infra {
					m.Stop()
				}
				<-done
			}
			out := make([]transportReport, 0, len(infra))
			for i, m := range infra {
				out = append(out, trReport(i+1, m.Transport().Stats()))
			}
			return out
		}
	}

	client, err := cluster.StartProcess(cfg, topo, *proc)
	if err != nil {
		fatal(err)
	}

	var rep report
	soak := func(p *sim.Proc, n *cluster.Node) {
		s := client.Cluster.Sim
		deadline := s.Now().Add(sim.Duration(duration.Nanoseconds()))
		gpus := *qrGPUs
		if gpus > *ac {
			gpus = *ac
		}
		// The QR reference factorization, computed once on the host.
		rng := rand.New(rand.NewSource(1))
		matrix := make([]float64, *qrN**qrN)
		for i := range matrix {
			matrix[i] = rng.NormFloat64()
		}
		ref := append([]float64(nil), matrix...)
		refTau := make([]float64, *qrN)
		lapack.Dgeqrf(*qrN, *qrN, ref, *qrN, refTau, *qrNB)

		for s.Now() < deadline {
			if err := qrRound(p, n, matrix, ref, *qrN, *qrNB, gpus); err != nil {
				fmt.Fprintf(os.Stderr, "acsoak: qr: %v\n", err)
				rep.Errors++
			} else {
				rep.QROps++
			}
			if s.Now() >= deadline {
				break
			}
			if err := sessionRound(p, n, rep.SessionOps); err != nil {
				fmt.Fprintf(os.Stderr, "acsoak: session: %v\n", err)
				rep.Errors++
			} else {
				rep.SessionOps++
			}
		}
	}
	if err := client.Spawn(0, soak); err != nil {
		fatal(err)
	}

	start := time.Now()
	if err := client.Run(); err != nil {
		fatal(err)
	}
	rep.DurationSec = time.Since(start).Seconds()
	rep.Client = trReport(*proc, client.Transport().Stats())
	rep.Infra = joinInfra()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	failures := rep.Client.HandshakeFailures
	for _, ir := range rep.Infra {
		failures += ir.HandshakeFailures
	}
	switch {
	case failures > 0:
		fmt.Fprintf(os.Stderr, "acsoak: FAIL: %d handshake failures\n", failures)
		os.Exit(1)
	case rep.QROps+rep.SessionOps == 0:
		fmt.Fprintln(os.Stderr, "acsoak: FAIL: no operations completed")
		os.Exit(1)
	case rep.Errors > 0:
		fmt.Fprintf(os.Stderr, "acsoak: FAIL: %d operations errored\n", rep.Errors)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "acsoak: ok: %d QR + %d session ops in %.1fs\n",
		rep.QROps, rep.SessionOps, rep.DurationSec)
}

// qrRound acquires GPUs from the pool, factors the matrix on them with
// the MAGMA-style hybrid QR, verifies the result against the host LAPACK
// reference, and releases the GPUs.
func qrRound(p *sim.Proc, n *cluster.Node, matrix, ref []float64, size, nb, gpus int) error {
	handles, err := n.ARM.Acquire(p, gpus, true)
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	defer n.ARM.Release(p, handles)
	devs := make([]magma.Device, 0, len(handles))
	for _, h := range handles {
		devs = append(devs, accel.Remote(n.Attach(h)))
	}
	dist, err := magma.NewDist(p, devs, size, size, nb, true)
	if err != nil {
		return err
	}
	defer dist.Free(p)
	if err := dist.Upload(p, matrix); err != nil {
		return err
	}
	tau := make([]float64, size)
	mcfg := magma.DefaultConfig()
	mcfg.NB = nb
	if err := magma.Dgeqrf(p, dist, tau, mcfg); err != nil {
		return err
	}
	got := make([]float64, size*size)
	if err := dist.Download(p, got); err != nil {
		return err
	}
	for i := range got {
		if d := math.Abs(got[i] - ref[i]); d > 1e-8 {
			return fmt.Errorf("QR diverged from LAPACK at %d: |diff| = %.2e", i, d)
		}
	}
	return nil
}

// sessionRound exercises the multi-tenant path: a shared lease on one
// accelerator, two isolated sessions on it, and an
// alloc/memset/upload/download/free cycle in each.
func sessionRound(p *sim.Proc, n *cluster.Node, round int) error {
	handles, err := n.ARM.AcquireShared(p, 1, true)
	if err != nil {
		return fmt.Errorf("acquire shared: %w", err)
	}
	defer n.ARM.Release(p, handles)
	const sz = 64 << 10
	payload := make([]byte, sz)
	for i := range payload {
		payload[i] = byte(i + round)
	}
	tenants := make([]*core.Accel, 0, 2)
	defer func() {
		for _, ac := range tenants {
			ac.CloseSession(p)
		}
	}()
	for t := 0; t < 2; t++ {
		ac, err := n.AttachSession(p, handles[0])
		if err != nil {
			return fmt.Errorf("tenant %d attach: %w", t, err)
		}
		tenants = append(tenants, ac)
		ptr, err := ac.MemAlloc(p, sz)
		if err != nil {
			return fmt.Errorf("tenant %d alloc: %w", t, err)
		}
		if err := ac.Memset(p, ptr, 0, sz, 0); err != nil {
			return fmt.Errorf("tenant %d memset: %w", t, err)
		}
		if err := ac.MemcpyH2D(p, ptr, 0, payload, sz); err != nil {
			return fmt.Errorf("tenant %d h2d: %w", t, err)
		}
		back := make([]byte, sz)
		if err := ac.MemcpyD2H(p, back, ptr, 0, sz); err != nil {
			return fmt.Errorf("tenant %d d2h: %w", t, err)
		}
		for i := range back {
			if back[i] != payload[i] {
				return fmt.Errorf("tenant %d corrupt at byte %d", t, i)
			}
		}
		if err := ac.MemFree(p, ptr); err != nil {
			return fmt.Errorf("tenant %d free: %w", t, err)
		}
	}
	return nil
}

func trReport(proc int, st minimpi.TransportStats) transportReport {
	return transportReport{
		Proc:              proc,
		Dials:             st.Dials,
		Reconnects:        st.Reconnects,
		HandshakeFailures: st.HandshakeFailures,
		FramesSent:        st.FramesSent,
		FramesReceived:    st.FramesReceived,
		FramesResent:      st.FramesResent,
		BytesSent:         st.BytesSent,
		BytesReceived:     st.BytesReceived,
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acsoak: %v\n", err)
	os.Exit(1)
}
