package minimpi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// outcome is what one run of the scenario below leaves to compare: its
// virtual end time, the messages and bytes the compute node posted
// (WireStats) and every rank sent, and a digest of the factor's bits.
type outcome struct {
	end          sim.Time
	posted       minimpi.WireStats
	msgs, bytes  int64
	factorDigest string
}

// scenario builds a fresh cluster of three execute-mode accelerators and
// runs, from one compute node, a hybrid QR of a 128×128 matrix in
// 32-column panels on all three, then a shared lease of one accelerator on
// which two tenant sessions each upload 4 KiB, read it back and close.
func scenario() (outcome, error) {
	const n, share = 128, 4 << 10
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 3, ShareCapacity: 2, Execute: true, Registry: reg})
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	var runErr error
	err = cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		runErr = func() error {
			handles, err := node.ARM.Acquire(p, 3, true)
			if err != nil {
				return err
			}
			devs := make([]magma.Device, len(handles))
			for i, h := range handles {
				devs[i] = accel.Remote(node.Attach(h))
			}
			rng := rand.New(rand.NewSource(1))
			a, tau := make([]float64, n*n), make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			cfg := magma.DefaultConfig()
			cfg.NB = 32 // four panels, dealt over all three devices
			dist, err := magma.NewDist(p, devs, n, n, cfg.NB, true)
			if err != nil {
				return err
			}
			if err = dist.Upload(p, a); err == nil {
				err = magma.Dgeqrf(p, dist, tau, cfg)
			}
			if err == nil {
				err = dist.Download(p, a)
			}
			dist.Free(p)
			if err != nil {
				return err
			}
			if err := node.ARM.Release(p, handles); err != nil {
				return err
			}
			h := sha256.New()
			var b [8]byte
			for _, xs := range [][]float64{a, tau} {
				for _, v := range xs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			out.factorDigest = hex.EncodeToString(h.Sum(nil)[:8])

			shared, err := node.ARM.AcquireShared(p, 1, true)
			if err != nil {
				return err
			}
			payload, back := bytes.Repeat([]byte{0xA5}, share), make([]byte, share)
			for tenant := 0; tenant < 2; tenant++ {
				ac, err := node.AttachSession(p, shared[0])
				if err != nil {
					return err
				}
				ptr, err := ac.MemAlloc(p, share)
				if err == nil {
					err = ac.MemcpyH2D(p, ptr, 0, payload, share)
				}
				if err == nil {
					err = ac.MemcpyD2H(p, back, ptr, 0, share)
				}
				if err == nil {
					err = ac.MemFree(p, ptr)
				}
				if err == nil {
					err = ac.CloseSession(p)
				}
				if err != nil {
					return fmt.Errorf("tenant %d: %v", tenant, err)
				}
				if !bytes.Equal(back, payload) {
					return fmt.Errorf("tenant %d: the download differs from the upload", tenant)
				}
			}
			return node.ARM.Release(p, shared)
		}()
		out.posted = node.World.WireStats()
	})
	if err != nil {
		return outcome{}, err
	}
	if out.end, err = cl.Run(); err != nil {
		return outcome{}, err
	}
	if runErr != nil {
		return outcome{}, runErr
	}
	for r := 0; r < cl.World.Size(); r++ {
		tr := cl.World.Traffic(r)
		out.msgs += tr.MsgsSent
		out.bytes += tr.BytesSent
	}
	return out, nil
}

// first is the scenario's outcome as the first simulation this test
// process ran, before any test.
var first struct {
	out outcome
	err error
}

func TestMain(m *testing.M) {
	first.out, first.err = scenario()
	os.Exit(m.Run())
}

// TestScenarioIgnoresProcessHistory: what a process has run before, and
// what runs beside it on another goroutine, cannot move a simulation. The
// same scenario gives the same end time, wire counts and factor bits as
// the first simulation in the process, after other simulations, and as
// one of two running at once.
func TestScenarioIgnoresProcessHistory(t *testing.T) {
	if first.err != nil {
		t.Fatalf("the scenario failed as the process's first simulation: %v", first.err)
	}
	want := first.out
	if want.posted.Msgs == 0 || want.msgs == 0 || want.factorDigest == "" {
		t.Fatalf("the first run left nothing to compare: %+v", want)
	}
	check := func(when string, got outcome, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", when, err)
		} else if got != want {
			t.Errorf("%s: %+v, want %+v as the process's first simulation", when, got, want)
		}
	}
	got, err := scenario()
	check("after other simulations", got, err)

	var wg sync.WaitGroup
	var side [2]outcome
	var sideErr [2]error
	for i := range side {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side[i], sideErr[i] = scenario()
		}()
	}
	wg.Wait()
	for i := range side {
		check(fmt.Sprintf("alongside another simulation (goroutine %d)", i), side[i], sideErr[i])
	}
}
