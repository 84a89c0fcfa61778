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
	// D2DBroadcast routes Cholesky's L21 broadcast directly between the
	// accelerators (the paper's AC-to-AC transfers, Section III) instead
	// of staging it through the compute node. Falls back to the host
	// route for devices without the capability (e.g. node-local GPUs).
	D2DBroadcast bool
	// TreeBroadcast fans the QR panel out over a binomial tree of direct
	// accelerator-to-accelerator links (minimpi.BcastTree schedule): the
	// host uploads the panel once, to the owner, and the G-1 remaining
	// copies travel daemon-to-daemon — O(log G) link-serialized rounds
	// instead of G uploads serialized on the compute node's NIC.
	// Destinations without a peer path degrade to a host upload per
	// block. Off by default, which keeps the paper's host-staged
	// broadcast (and its wire traffic) byte-identical.
	TreeBroadcast bool
	// Heterogeneous splits Dgeqrf's device roles across a mixed fleet:
	// the latency-bound lookahead work (next-panel update and download)
	// runs on PanelDevice — a fast-launch device outside the matrix
	// distribution — while the FLOP-bound wide trailing update stays on
	// the distribution's high-throughput devices. Off by default, which
	// keeps homogeneous runs byte-identical to the classic schedule.
	Heterogeneous bool
	// PanelDevice hosts the panel role in Heterogeneous mode (pick it
	// with PickPanelDevice, or supply any device with cheap launches).
	// The panel block moves device-to-device when both ends support
	// accel.PeerCopier, and stages through the host otherwise.
	PanelDevice Device
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
