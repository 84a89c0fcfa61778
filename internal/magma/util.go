package magma

import (
	"encoding/binary"
	"math"

	"dynacc/internal/sim"
)

func putF64(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Config tunes the hybrid factorizations.
type Config struct {
	// NB is the panel width (MAGMA's blocking factor).
	NB int
	// CPUGFlops is the host panel-factorization rate in GFlop/s; skinny
	// panels run memory-bound, far below dense CPU peak.
	CPUGFlops float64
	// Lookahead overlaps the next panel's download and CPU factorization
	// with the wide trailing update, as MAGMA does.
	Lookahead bool
	// Direct moves blocks accelerator-to-accelerator (the paper's AC-to-AC
	// transfers, Section III) wherever accel.CopyD2D finds a direct path
	// between the two ends, and host-staged otherwise: Cholesky's L21
	// broadcast goes owner-to-peer, the QR panel fans out over a binomial
	// tree of daemon-to-daemon links (broadcast.go) — the host uploads it
	// once instead of G times — and a Rebalance redistribution moves
	// re-homed blocks between their two accelerators. Off is MAGMA 1.1's
	// host-staged routes, the ones Figures 9-10 reproduce, wire traffic
	// byte-identical.
	Direct bool
	// Rebalance, when set, is consulted by Dgeqrf between panel steps
	// with the number of panels already factored. Returning a non-nil
	// device list that differs from the distribution's current one
	// quiesces the GPUs and redistributes the matrix onto the new set
	// (see Dist.Redistribute) before the next panel — the malleability
	// hook that lets a running job expand onto accelerators registered
	// with the ARM mid-factorization, or vacate ones being retired.
	// Returning nil (or the same list) continues unchanged.
	Rebalance func(p *sim.Proc, panelsDone int) []Device
}

// DefaultConfig returns the MAGMA 1.1 style defaults on the paper's
// testbed: 128-wide panels, a dual-socket Westmere host worth ~12
// GFlop/s on skinny panels, lookahead on.
func DefaultConfig() Config {
	return Config{NB: 128, CPUGFlops: 12, Lookahead: true}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NB <= 0 {
		c.NB = d.NB
	}
	if c.CPUGFlops <= 0 {
		c.CPUGFlops = d.CPUGFlops
	}
	return c
}

// QRFlops is the standard flop count of an m×n QR factorization (the
// denominator of the paper's Figure 9 GFlop/s).
func QRFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	if m >= n {
		return 2*fm*fn*fn - 2.0/3.0*fn*fn*fn
	}
	return 2*fn*fm*fm - 2.0/3.0*fm*fm*fm
}

// CholeskyFlops is the flop count of an n×n Cholesky factorization
// (Figure 10).
func CholeskyFlops(n int) float64 {
	fn := float64(n)
	return fn * fn * fn / 3
}
