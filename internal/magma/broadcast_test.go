package magma

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// TestBroadcastPanelTreeDeliversBytes checks the segmented tree fan-out
// at the primitive level: for several fleet sizes (covering trees of
// depth 1..3), a multi-segment odd-sized panel broadcast from a
// non-zero owner must land byte-identical in every device's workspace —
// exactly what the classic host loop would have delivered.
func TestBroadcastPanelTreeDeliversBytes(t *testing.T) {
	for _, g := range []int{2, 3, 5, 8} {
		withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			const nbytes = 3<<20 + 8 // > 2 segments, not segment-aligned
			rng := rand.New(rand.NewSource(int64(g)))
			panel := make([]byte, nbytes)
			rng.Read(panel)

			dV := make([]gpu.Ptr, len(devs))
			for i, dev := range devs {
				ptr, err := dev.MemAlloc(p, nbytes)
				if err != nil {
					t.Fatal(err)
				}
				dV[i] = ptr
			}
			owner := g / 2
			if err := BroadcastPanel(p, devs, owner, dV, panel, nbytes, true); err != nil {
				t.Fatalf("G=%d: tree broadcast: %v", g, err)
			}
			for i, dev := range devs {
				got := make([]byte, nbytes)
				if err := dev.CopyD2HAsync(got, dV[i], 0, nbytes, 0).Wait(p); err != nil {
					t.Fatalf("G=%d: download dev %d: %v", g, i, err)
				}
				if !bytes.Equal(got, panel) {
					t.Errorf("G=%d: device %d holds wrong panel bytes", g, i)
				}
			}
		})
	}
}

// TestDgeqrfTreeBroadcastBitIdentical factors the same matrix with the
// classic host-loop broadcast and with Config.Direct and
// requires bit-identical factors and tau: the fast path changes only
// how the panel bytes travel, never what any kernel computes. Both are
// also checked against the LAPACK reference.
func TestDgeqrfTreeBroadcastBitIdentical(t *testing.T) {
	const n, nb = 80, 16
	for _, g := range []int{2, 3, 4} {
		run := func(tree bool) ([]float64, []float64) {
			var got, tau []float64
			withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
				rng := rand.New(rand.NewSource(101))
				a := randSquare(rng, n)
				dist, err := NewDist(p, devs, n, n, nb, true)
				if err != nil {
					t.Fatal(err)
				}
				defer dist.Free(p)
				if err := dist.Upload(p, a); err != nil {
					t.Fatal(err)
				}
				tau = make([]float64, n)
				cfg := DefaultConfig()
				cfg.NB = nb
				cfg.Direct = tree
				if err := Dgeqrf(p, dist, tau, cfg); err != nil {
					t.Fatal(err)
				}
				got = make([]float64, n*n)
				if err := dist.Download(p, got); err != nil {
					t.Fatal(err)
				}
			})
			return got, tau
		}
		classic, classicTau := run(false)
		treed, treeTau := run(true)
		for i := range classic {
			if classic[i] != treed[i] {
				t.Fatalf("G=%d: factor bit-differs at %d: %x vs %x",
					g, i, math.Float64bits(classic[i]), math.Float64bits(treed[i]))
			}
		}
		for i := range classicTau {
			if classicTau[i] != treeTau[i] {
				t.Fatalf("G=%d: tau bit-differs at %d", g, i)
			}
		}

		rng := rand.New(rand.NewSource(101))
		ref := randSquare(rng, n)
		refTau := make([]float64, n)
		lapack.Dgeqrf(n, n, ref, n, refTau, nb)
		scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
		for i := range treed {
			if math.Abs(treed[i]-ref[i]) > 1e-10*scale {
				t.Fatalf("G=%d: tree factor differs from LAPACK at %d: %g vs %g", g, i, treed[i], ref[i])
			}
		}
	}
}

// TestRedistributeDirectPreservesData grows a distribution 2 -> 4
// devices through the daemon-to-daemon fast path and requires the
// downloaded matrix to be bit-identical to the host-staged legacy move
// of the same matrix — same bytes, different route.
func TestRedistributeDirectPreservesData(t *testing.T) {
	const n, nb = 96, 16
	run := func(redist func(d *Dist, p *sim.Proc, devs []Device) error) []float64 {
		var got []float64
		withCluster(t, 4, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			rng := rand.New(rand.NewSource(7))
			a := randSquare(rng, n)
			dist, err := NewDist(p, devs[:2], n, n, nb, true)
			if err != nil {
				t.Fatal(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, a); err != nil {
				t.Fatal(err)
			}
			if err := redist(dist, p, devs); err != nil {
				t.Fatal(err)
			}
			if len(dist.Devs) != 4 {
				t.Fatalf("redistribute left %d devices, want 4", len(dist.Devs))
			}
			got = make([]float64, n*n)
			if err := dist.Download(p, got); err != nil {
				t.Fatal(err)
			}
		})
		return got
	}
	staged := run(func(d *Dist, p *sim.Proc, devs []Device) error { return d.redistributeStaged(p, devs) })
	direct := run(func(d *Dist, p *sim.Proc, devs []Device) error { return d.Redistribute(p, devs, true) })
	for i := range staged {
		if staged[i] != direct[i] {
			t.Fatalf("direct redistribution differs from staged at %d", i)
		}
	}
}
