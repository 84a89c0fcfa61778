package conformance

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// nodeFn is compute node 0's main in a cluster-level scenario.
type nodeFn func(p *sim.Proc, n *cluster.Node)

// clusterBackend runs main on a cluster built from cfg, through teardown,
// and returns what is left: the stopped manager's books and the daemons.
type clusterBackend struct {
	name string
	run  func(t *testing.T, cfg cluster.Config, main nodeFn) (arm.PoolStats, []*core.Daemon)
}

func clusterBackends() []clusterBackend {
	return []clusterBackend{
		{name: "sim", run: runClusterSim},
		{name: "socket", run: runClusterSocket},
	}
}

// runClusterSim is the one-process topology: cluster.New and Run.
func runClusterSim(t *testing.T, cfg cluster.Config, main nodeFn) (arm.PoolStats, []*core.Daemon) {
	t.Helper()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Spawn(0, main); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return cl.ARMShardServer(0).Snapshot(), cl.Daemons
}

// runClusterSocket is the three-tier topology: compute nodes, daemons and
// the manager in a process each, joined over loopback TCP.
func runClusterSocket(t *testing.T, cfg cluster.Config, main nodeFn) (arm.PoolStats, []*core.Daemon) {
	t.Helper()
	topo, err := cluster.ListenTopology("conformance", cluster.ThreeTierSplit(cfg))
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*cluster.Member, len(topo.Procs))
	for pid := range members {
		if members[pid], err = cluster.StartProcess(cfg, topo, pid); err != nil {
			t.Fatalf("StartProcess(%d): %v", pid, err)
		}
	}
	var wg sync.WaitGroup
	for pid, m := range members[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Serve(); err != nil {
				t.Errorf("proc %d Serve: %v", pid+1, err)
			}
		}()
	}
	if err := members[0].Spawn(0, main); err != nil {
		t.Fatal(err)
	}
	if err := members[0].Run(); err != nil {
		t.Errorf("client Run: %v", err)
	}
	served := make(chan struct{})
	go func() { wg.Wait(); close(served) }()
	select {
	case <-served:
	case <-time.After(15 * time.Second):
		for _, m := range members {
			m.Stop()
		}
		t.Fatal("infrastructure did not shut down after the client's teardown")
	}
	for pid, m := range members {
		if st := m.Transport().Stats(); st.HandshakeFailures != 0 {
			t.Errorf("proc %d handshake failures: %+v", pid, st)
		}
	}
	return members[2].ARMShardServer(0).Snapshot(), members[1].Daemons
}

// TestClusterScenarioOnBothBackends runs one application — an exclusive
// two-GPU QR, then a tenant session on a shared lease, ending with the
// session open and two handles unreleased — through cluster.New and through
// three socket-joined processes. The backends must agree on every byte the
// application saw and on the state teardown left behind: the sim path is
// the oracle, and the socket path keeps its promises.
func TestClusterScenarioOnBothBackends(t *testing.T) {
	const n, nb = 64, 16
	rng := rand.New(rand.NewSource(7))
	matrix := make([]float64, n*n)
	for i := range matrix {
		matrix[i] = rng.NormFloat64()
	}

	type outcome struct {
		factors, tau []float64
		memset       []byte
		pool         arm.PoolStats
	}
	var outcomes []outcome
	for _, b := range clusterBackends() {
		t.Run(b.name, func(t *testing.T) {
			reg := gpu.NewRegistry()
			magma.RegisterKernels(reg)
			cfg := cluster.Config{ComputeNodes: 1, Accelerators: 2, ShareCapacity: 2, Execute: true, Registry: reg}
			out := outcome{factors: make([]float64, n*n), tau: make([]float64, n), memset: make([]byte, 4096)}

			pool, daemons := b.run(t, cfg, func(p *sim.Proc, node *cluster.Node) {
				handles, err := node.ARM.Acquire(p, 2, true)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				devs := make([]magma.Device, len(handles))
				for i, h := range handles {
					devs[i] = accel.Remote(node.Attach(h))
				}
				dist, err := magma.NewDist(p, devs, n, n, nb, true)
				if err != nil {
					t.Errorf("dist: %v", err)
					return
				}
				mcfg := magma.DefaultConfig()
				mcfg.NB = nb
				err = dist.Upload(p, matrix)
				if err == nil {
					err = magma.Dgeqrf(p, dist, out.tau, mcfg)
				}
				if err == nil {
					err = dist.Download(p, out.factors)
				}
				if err != nil {
					t.Errorf("qr: %v", err)
				}
				dist.Free(p)
				if err := node.ARM.Release(p, handles); err != nil {
					t.Errorf("release: %v", err)
				}

				shared, err := node.ARM.AcquireShared(p, 1, true)
				if err != nil {
					t.Errorf("acquire shared: %v", err)
					return
				}
				sac, err := node.AttachSession(p, shared[0])
				if err != nil {
					t.Errorf("attach session: %v", err)
					return
				}
				ptr, err := sac.MemAlloc(p, len(out.memset))
				if err == nil {
					err = sac.Memset(p, ptr, 0, len(out.memset), 0xA5)
				}
				if err == nil {
					err = sac.MemcpyD2H(p, out.memset, ptr, 0, len(out.memset))
				}
				if err != nil {
					t.Errorf("session work: %v", err)
				}
				// Left for teardown: the session and its shared lease, and
				// an exclusive handle with device memory on the other GPU.
				held, err := node.ARM.Acquire(p, 1, true)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if _, err := node.Attach(held[0]).MemAlloc(p, 1<<16); err != nil {
					t.Errorf("alloc: %v", err)
				}
			})

			for i, d := range daemons {
				if s, used := d.OpenSessions(), d.Device().MemUsed(); s != 0 || used != 0 {
					t.Errorf("ac%d after teardown: %d open sessions, %d bytes in use", i, s, used)
				}
			}
			if pool.Free != 2 || pool.Total != 2 {
				t.Errorf("pool after teardown: %+v, want both accelerators free", pool)
			}
			// The time integrals are virtual seconds on one backend and
			// wall-clock on the other; everything else must agree.
			pool.BusySeconds, pool.WaitSeconds = 0, 0
			out.pool = pool
			outcomes = append(outcomes, out)
		})
	}
	if len(outcomes) != 2 {
		t.Fatal("a backend did not finish")
	}
	inSim, sock := outcomes[0], outcomes[1]
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(inSim.factors), bits(sock.factors)) || slices.Equal(inSim.factors, matrix) {
		t.Error("QR factors differ between the backends (or were never computed)")
	}
	if !slices.Equal(bits(inSim.tau), bits(sock.tau)) {
		t.Errorf("tau differs between the backends:\n sim    %v\n socket %v", inSim.tau, sock.tau)
	}
	if want := bytes.Repeat([]byte{0xA5}, len(inSim.memset)); !bytes.Equal(inSim.memset, want) || !bytes.Equal(sock.memset, want) {
		t.Error("session memset did not read back on both backends")
	}
	if !reflect.DeepEqual(inSim.pool, sock.pool) {
		t.Errorf("final ARM books differ:\n sim    %+v\n socket %+v", inSim.pool, sock.pool)
	}
}
