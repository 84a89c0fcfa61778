package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dynacc/internal/accel"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// The records clause: a leak planted through the public API fails Run,
// with the report World.Close makes of it.
func TestRunReportsRecordsLeftOut(t *testing.T) {
	for _, tc := range []struct {
		name string
		main func(p *sim.Proc, n *Node)
		want string
	}{
		{"a receive posted and never waited", func(p *sim.Proc, n *Node) {
			if n.Rank == 0 {
				n.App.Irecv(1, 7)
			}
		}, "1 requests and 0 messages still out at Close; rank 0: 1 posted receives, 0 unexpected messages"},
		{"a send whose Free is skipped", func(p *sim.Proc, n *Node) {
			if n.Rank == 0 {
				n.App.Isend(1, 7, []byte{1})
			} else {
				n.App.Recv(p, 0, 7)
			}
		}, "1 requests and 0 messages still out at Close"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(Config{ComputeNodes: 2, Accelerators: 1})
			if err != nil {
				t.Fatal(err)
			}
			cl.SpawnAll(tc.main)
			if _, err := cl.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want the report %q", err, tc.want)
			}
		})
	}
}

// depotOutcome is what one run of depotScenario leaves to compare.
type depotOutcome struct {
	end          sim.Time
	msgs, bytes  int64
	factorDigest string
}

// depotScenario runs, on a fresh cluster of three execute-mode accelerators
// under an ARM with a follower and with command batching on, a hybrid QR of
// a 96×96 matrix in 16-column panels, then two tenant sessions on one
// shared accelerator that each upload 4 KiB, read it back and close: every
// depot a run hands records to gets some.
func depotScenario() (depotOutcome, error) {
	const n, share = 96, 4 << 10
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	opts := core.BatchedOptions()
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 3, ShareCapacity: 2, Execute: true,
		Registry: reg, Options: &opts, ARMReplicas: true})
	if err != nil {
		return depotOutcome{}, err
	}
	var out depotOutcome
	var runErr error
	cl.Spawn(0, func(p *sim.Proc, node *Node) {
		runErr = func() error {
			handles, err := node.ARM.Acquire(p, 3, true)
			if err != nil {
				return err
			}
			devs := make([]magma.Device, len(handles))
			for i, h := range handles {
				devs[i] = accel.Remote(node.Attach(h))
			}
			rng := rand.New(rand.NewSource(5))
			a, tau := make([]float64, n*n), make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			cfg := magma.DefaultConfig()
			cfg.NB = 16
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
			if err == nil {
				err = node.ARM.Release(p, handles)
			}
			if err != nil {
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
			payload, back := bytes.Repeat([]byte{0x5A}, share), make([]byte, share)
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
	})
	if out.end, err = cl.Run(); err != nil {
		return depotOutcome{}, err
	}
	if runErr != nil {
		return depotOutcome{}, runErr
	}
	for r := 0; r < cl.World.Size(); r++ {
		tr := cl.World.Traffic(r)
		out.msgs += tr.MsgsSent
		out.bytes += tr.BytesSent
	}
	return out, nil
}

// A run on records an ended run handed back repeats exactly: the same
// scenario gives the same end time, wire counts and factor bits after a
// closed cluster as before it, and again while another copy of it runs on
// a second goroutine, both drawing from the same depots.
func TestScenarioRepeatsOnHandedBackRecords(t *testing.T) {
	want, err := depotScenario()
	if err != nil {
		t.Fatal(err)
	}
	if want.msgs == 0 || want.factorDigest == "" {
		t.Fatalf("the first run left nothing to compare: %+v", want)
	}
	check := func(when string, got depotOutcome, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", when, err)
		} else if got != want {
			t.Errorf("%s: %+v, want %+v", when, got, want)
		}
	}
	got, err := depotScenario()
	check("after a closed cluster", got, err)

	var side depotOutcome
	var sideErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		side, sideErr = depotScenario()
	}()
	got, err = depotScenario()
	<-done
	check("beside another run", got, err)
	check("on a second goroutine", side, sideErr)
}
