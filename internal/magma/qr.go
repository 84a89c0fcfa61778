package magma

import (
	"fmt"
	"math"

	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// Dgeqrf computes the blocked QR factorization of the distributed m×n
// matrix (m >= n) in place, following magma_dgeqrf2_mgpu: each panel is
// downloaded to the host, factored on the CPU, broadcast back to every
// GPU, and applied to the trailing matrix on the GPUs; with lookahead the
// next panel is updated and downloaded first so the CPU factors it while
// the wide update is still running.
//
// In execute mode (the Dist was built with exec=true) tau must hold n
// entries and receives the reflector scales; the factors end up in the
// distributed matrix exactly as LAPACK Dgeqrf lays them out. In model
// mode tau is nil and only virtual time is spent.
func Dgeqrf(p *sim.Proc, d *Dist, tau []float64, cfg Config) error {
	cfg = cfg.withDefaults()
	m, n, nb := d.M, d.N, d.NB
	if m < n {
		return fmt.Errorf("magma: Dgeqrf requires m >= n, got %dx%d", m, n)
	}
	if d.exec && len(tau) < n {
		return fmt.Errorf("magma: tau needs %d entries, got %d", n, len(tau))
	}
	npanels := d.Blocks()

	// Workspaces: V (panel broadcast target) and T per GPU. They are freed
	// on wsDevs, the list they were allocated on: a rebalance replaces
	// d.Devs, also when it fails half-way. Their pointers, the host
	// workspaces and the Pending lists below live in storage the Dist keeps.
	var (
		wsDevs []Device
		dV, dT []gpu.Ptr
	)
	freeWS := func() {
		for g, dev := range wsDevs {
			for _, ptr := range [...]gpu.Ptr{dV[g], dT[g]} {
				if !ptr.IsNull() {
					_ = dev.MemFree(p, ptr)
				}
			}
		}
		wsDevs = nil
	}
	allocWS := func() error {
		G := len(d.Devs)
		if len(d.wsPtrs) < 2*G {
			d.wsPtrs = make([]gpu.Ptr, 2*G)
		}
		wsDevs, dV, dT = d.Devs, d.wsPtrs[:G], d.wsPtrs[G:2*G]
		clear(d.wsPtrs)
		for g, dev := range wsDevs {
			var err error
			if dV[g], err = dev.MemAlloc(p, 8*m*nb); err != nil {
				return err
			}
			if dT[g], err = dev.MemAlloc(p, 8*nb*nb); err != nil {
				return err
			}
		}
		return nil
	}
	defer freeWS()
	if err := allocWS(); err != nil {
		return err
	}

	var panel, nextPanel, tmat, work []float64
	if d.exec {
		mnb, t := m*nb, 2*m*nb+nb*nb
		if end := t + lapack.DefaultBlock*(nb+lapack.DefaultBlock); len(d.ws) < end {
			d.ws = make([]float64, end)
		}
		panel, nextPanel, tmat, work = d.ws[:mnb], d.ws[mnb:2*mnb], d.ws[2*mnb:t], d.ws[t:]
		for i := 0; poisonFreed && i < len(d.ws); i++ {
			d.ws[i] = math.NaN() // a factorization reads nothing it did not write
		}
	}

	// All asynchronous operations are collected so their errors surface
	// after the final device sync; bcast is each panel's broadcast.
	nIssued := npanels * (len(d.Devs) + 1)
	issued := d.pendList(nIssued + 2*len(d.Devs) + 1)
	issued, bcast := issued[:0:nIssued], issued[nIssued:nIssued]
	track := func(pends ...Pending) { issued = append(issued, pends...) }

	// Prologue: fetch panel 0.
	if err := d.downloadCols(p, 0, 0, m, 0, d.blockWidth(0), hostPanel(panel, m*d.blockWidth(0)), 0).Wait(p); err != nil {
		return err
	}

	for pj := 0; pj < npanels; pj++ {
		// Malleability: between panels the distribution may be rebalanced
		// onto a different device set (grown onto freshly registered
		// accelerators, or shrunk off retiring ones). Everything in flight
		// is drained first; the current host panel survives unchanged —
		// the devices hold the same bytes before and after the move.
		if cfg.Rebalance != nil {
			if devs := cfg.Rebalance(p, pj); devs != nil && !sameDevs(devs, d.Devs) {
				for _, dev := range d.Devs {
					if err := dev.Sync(p); err != nil {
						return err
					}
				}
				if err := waitAllPending(p, issued); err != nil {
					return err
				}
				issued = issued[:0]
				freeWS()
				if err := d.Redistribute(p, devs, cfg.Direct); err != nil {
					return err
				}
				if err := allocWS(); err != nil {
					return err
				}
			}
		}

		G := len(d.Devs)
		j := pj * nb
		jb := d.blockWidth(pj)
		mj := m - j
		owner := d.Owner(pj)

		// Host panel factorization (real math in execute mode) plus the
		// modelled CPU time: geqr2 (~2·mj·jb²) and larft (~mj·jb²).
		if d.exec {
			lapack.DgeqrfWork(mj, jb, panel, mj, tau[j:], lapack.DefaultBlock, work)
			lapack.Dlarft(mj, jb, panel, mj, tau[j:], tmat, jb)
		}
		p.Wait(cpuPanelTime(3 * float64(mj) * float64(jb) * float64(jb)))

		// Broadcast: factored panel back into the owner's matrix, V to the
		// other GPUs' workspaces, T everywhere. MAGMA 1.1's dsetmatrix is
		// synchronous, so by default the host waits for the broadcast.
		tBytes, panelBytes := d.hostBytes(tmat, jb*jb), d.hostBytes(panel, mj*jb)
		bcast = bcast[:0]
		var treePend Pending
		if cfg.Direct && G > 1 {
			// Direct route: the host seeds the owner's V
			// workspace segment by segment, then the panel fans out
			// accelerator-to-accelerator along the segmented binomial
			// tree (broadcast.go) — the host NIC carries the panel once
			// instead of G times. The owner's matrix copy and the small
			// T uploads stay host-staged as before.
			bcast = append(bcast, d.uploadCols(pj, j, mj, 0, jb, hostPanel(panel, mj*jb), 0))
			treePend = d.treeBroadcastV(p, owner, 8*mj*jb, dV, panelBytes)
			for g, dev := range d.Devs {
				bcast = append(bcast, dev.CopyH2DAsync(dT[g], 0, tBytes, 8*jb*jb, 0))
			}
		} else {
			for g, dev := range d.Devs {
				if g == owner {
					bcast = append(bcast, d.uploadCols(pj, j, mj, 0, jb, hostPanel(panel, mj*jb), 0))
				} else {
					bcast = append(bcast, dev.CopyH2DAsync(dV[g], 0, panelBytes, 8*mj*jb, 0))
				}
				bcast = append(bcast, dev.CopyH2DAsync(dT[g], 0, tBytes, 8*jb*jb, 0))
			}
		}
		// MAGMA 1.1 used the synchronous magma_dsetmatrix: the broadcast
		// stays on the critical path, which is exactly what makes the
		// factorizations sensitive to the host-accelerator bandwidth (paper
		// Figures 9-10).
		if err := waitAllPending(p, bcast); err != nil {
			return err
		}
		if treePend != nil {
			// The tree fan-out writes dV over dedicated daemon streams, so
			// stream-0 FIFO order cannot fence the trailing-update launches
			// behind it: the fan-out must complete before any kernel that
			// reads dV is issued.
			if err := treePend.Wait(p); err != nil {
				return err
			}
		}
		d.putScratch(tBytes, panelBytes)

		vLaunch := func(g int, cols, cOff int) gpu.Launch {
			if g == owner {
				return larfbArgs(d.args[:0], mj, cols, jb, d.ptrs[owner], d.elemOff(pj, j, 0), m,
					dT[g], 0, jb, d.ptrs[g], cOff, m)
			}
			return larfbArgs(d.args[:0], mj, cols, jb, dV[g], 0, mj,
				dT[g], 0, jb, d.ptrs[g], cOff, m)
		}

		next := pj + 1
		var nextPend Pending
		if next < npanels {
			owner2 := d.Owner(next)
			jbn := d.blockWidth(next)
			// Lookahead: update just the next panel's block on its owner,
			// then queue its download behind that update.
			track(d.Devs[owner2].LaunchAsync(KernelLarfb,
				vLaunch(owner2, jbn, d.elemOff(next, j, 0)), 0))
			nextPend = d.downloadCols(p, next, j+jb, m-j-jb, 0, jbn,
				hostPanel(nextPanel, (m-j-jb)*jbn), 0)
		}

		// Wide update: each GPU applies the block reflector to its
		// remaining trailing columns (excluding the lookahead block).
		for g, dev := range d.Devs {
			startBlk := firstOwnedBlock(g, pj+1, G)
			if next < npanels && g == d.Owner(next) && startBlk == next {
				startBlk = next + G
			}
			if startBlk >= d.Blocks() {
				continue
			}
			startCol := d.localCol(startBlk)
			width := d.widths[g] - startCol
			if width <= 0 {
				continue
			}
			track(dev.LaunchAsync(KernelLarfb, vLaunch(g, width, startCol*m+j), 0))
		}
		// Ship the wide-update launch storm: with command batching on the
		// launches above sit in each device's recorder, and the trailing
		// update must start before the host blocks on the lookahead
		// download. A no-op without batching.
		for _, dev := range d.Devs {
			dev.Flush(0)
		}

		if next < npanels {
			if !cfg.Lookahead {
				// Ablation: serialize the wide update before touching the
				// next panel.
				for _, dev := range d.Devs {
					if err := dev.Sync(p); err != nil {
						return err
					}
				}
			}
			if err := nextPend.Wait(p); err != nil {
				return err
			}
			panel, nextPanel = nextPanel, panel
		}
	}

	for _, dev := range d.Devs {
		if err := dev.Sync(p); err != nil {
			return err
		}
	}
	return waitAllPending(p, issued)
}

// sameDevs reports whether two device lists are elementwise identical.
func sameDevs(a, b []Device) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstOwnedBlock returns the smallest block index >= from owned by GPU g
// under round-robin ownership over G GPUs.
func firstOwnedBlock(g, from, G int) int {
	if from <= g {
		return g
	}
	r := (from - g) % G
	if r == 0 {
		return from
	}
	return from + G - r
}

// hostPanel returns the leading want elements of buf, or nil in model
// mode.
func hostPanel(buf []float64, want int) []float64 {
	if buf == nil {
		return nil
	}
	return buf[:want]
}
