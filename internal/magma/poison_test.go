package magma

// A Dist's staged transfer records and host workspace are reused while it
// lives; under DYNACC_POISON=1 a record once waited for is retired and a
// workspace reads NaN whenever a factorization takes it up again, so a
// holder that still uses either fails. These tests turn the guard on
// themselves. (The staging buffers are the payload pool's, which scribbles
// them under the same guard.)

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// withPoison turns the guard on for the rest of the test.
func withPoison(t *testing.T) {
	old := poisonFreed
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = old })
}

// A staged download's record is the Dist's next staged transfer's; under
// the guard it is retired, and a second wait on it panics.
func TestStagedRecordRetiredUnderPoison(t *testing.T) {
	const n, nb = 16, 8
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		d, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Free(p)
		host := make([]float64, n*nb)
		fetch := func() *staged {
			pd := d.downloadCols(p, 0, 0, n, 0, nb, host, 0)
			if err := pd.Wait(p); err != nil {
				t.Fatal(err)
			}
			return pd.(*staged)
		}
		if first := fetch(); fetch() != first && !poisonFreed {
			t.Error("the next staged transfer did not reuse the record")
		}
		withPoison(t)
		s := fetch()
		if fetch() == s {
			t.Error("a record waited for was reused under the guard")
		}
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "waited for twice") {
				t.Errorf("a second wait: panic %v, want one", r)
			}
		}()
		_ = s.Wait(p)
	})
}

// A second factorization on the same Dist takes the first one's host
// workspace up again: under the guard what the first left there reads NaN,
// and the factor is still the first one's, bit for bit.
func TestWorkspaceScribbledOnReuseUnderPoison(t *testing.T) {
	const n, nb = 64, 16
	withPoison(t)
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		a := randSquare(rand.New(rand.NewSource(3)), n)
		d, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Free(p)
		cfg := DefaultConfig()
		cfg.NB = nb
		factor := func() []float64 {
			got, tau := slices.Clone(a), make([]float64, n)
			if err := d.Upload(p, got); err != nil {
				t.Fatal(err)
			}
			if err := Dgeqrf(p, d, tau, cfg); err != nil {
				t.Fatal(err)
			}
			if err := d.Download(p, got); err != nil {
				t.Fatal(err)
			}
			return append(got, tau...)
		}
		first := factor()
		stale := d.ws[2*n*nb:] // T's first element, which the first factorization wrote
		if math.IsNaN(stale[0]) {
			t.Fatal("the first factorization left no T in its workspace")
		}
		cfg.Rebalance = func(_ *sim.Proc, panels int) []Device {
			if panels == 0 && !math.IsNaN(stale[0]) {
				t.Errorf("the first factorization's workspace reads %v in the second, want NaN", stale[0])
			}
			return nil
		}
		second := factor()
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
				t.Fatalf("element %d: %v in the second factorization, %v in the first", i, second[i], first[i])
			}
		}
	})
}
