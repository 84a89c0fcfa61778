package magma

import (
	"fmt"

	"dynacc/internal/blas"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// Dgetrf computes the blocked LU factorization with partial pivoting of
// the distributed m×n matrix in place, following magma_dgetrf_mgpu: each
// panel is downloaded to the host and factored there (pivot search
// included), the factored panel is broadcast to every GPU, the recorded
// row interchanges are applied on-device to all other local columns, and
// the trailing matrix is updated with a triangular solve plus a GEMM per
// GPU. ipiv receives min(m,n) global pivot indices (LAPACK convention);
// it may be nil in model mode.
func Dgetrf(p *sim.Proc, d *Dist, ipiv []int, cfg Config) error {
	cfg = cfg.withDefaults()
	m, n, nb := d.M, d.N, d.NB
	k := minInt(m, n)
	if d.exec && len(ipiv) < k {
		return fmt.Errorf("magma: ipiv needs %d entries, got %d", k, len(ipiv))
	}
	G := len(d.Devs)
	npanels := (k + nb - 1) / nb

	// Workspaces per GPU: the broadcast panel and the pivot list.
	dV := make([]gpu.Ptr, G)
	dP := make([]gpu.Ptr, G)
	for g, dev := range d.Devs {
		var err error
		if dV[g], err = dev.MemAlloc(p, 8*m*nb); err != nil {
			return err
		}
		if dP[g], err = dev.MemAlloc(p, 8*nb); err != nil {
			return err
		}
	}
	defer func() {
		for g, dev := range d.Devs {
			_ = dev.MemFree(p, dV[g])
			_ = dev.MemFree(p, dP[g])
		}
	}()

	var panel, nextPanel []float64
	if d.exec {
		panel = make([]float64, m*nb)
		nextPanel = make([]float64, m*nb)
	}
	locPiv := make([]int, nb)

	var issued []Pending
	track := func(pends ...Pending) { issued = append(issued, pends...) }

	// Prologue: fetch panel 0.
	if err := d.downloadCols(p, 0, 0, m, 0, minInt(nb, k),
		hostPanel(panel, m*minInt(nb, k)), 0).Wait(p); err != nil {
		return err
	}

	for pj := 0; pj < npanels; pj++ {
		j := pj * nb
		jb := minInt(nb, k-j)
		mj := m - j
		owner := d.Owner(pj)
		if d.exec {
			if err := lapack.Dgetf2(mj, jb, panel, mj, locPiv); err != nil {
				se := err.(*lapack.SingularError)
				return &lapack.SingularError{Pivot: se.Pivot + j}
			}
			for i := 0; i < jb; i++ {
				ipiv[j+i] = locPiv[i] + j
			}
		}
		p.Wait(cpuPanelTime(float64(mj) * float64(jb) * float64(jb)))

		// Broadcast: the factored panel back to the owner in place, the
		// full panel to the other GPUs' workspaces, and the pivot list
		// (as float64 values) everywhere.
		var pivF []float64
		if d.exec {
			pivF = make([]float64, jb)
			for i := 0; i < jb; i++ {
				pivF[i] = float64(locPiv[i])
			}
		}
		var bcast []Pending
		panelBytes, pivBytes := d.hostBytes(panel, mj*jb), d.hostBytes(pivF, jb)
		for g, dev := range d.Devs {
			if g == owner {
				bcast = append(bcast, d.uploadCols(pj, j, mj, 0, jb, hostPanel(panel, mj*jb), 0))
			} else {
				bcast = append(bcast, dev.CopyH2DAsync(dV[g], 0, panelBytes, 8*mj*jb, 0))
			}
			bcast = append(bcast, dev.CopyH2DAsync(dP[g], 0, pivBytes, 8*jb, 0))
		}
		if err := waitAllPending(p, bcast); err != nil {
			return err
		}
		d.putScratch(panelBytes, pivBytes)

		// Apply the interchanges to every local column except the panel's
		// own block (the host already pivoted those). The owner's local
		// storage splits into the ranges before and after the block.
		for g, dev := range d.Devs {
			ranges := [][2]int{{0, d.widths[g]}}
			if g == owner {
				lc := d.localCol(pj)
				ranges = [][2]int{{0, lc}, {lc + jb, d.widths[g]}}
			}
			for _, r := range ranges {
				if w := r[1] - r[0]; w > 0 {
					track(dev.LaunchAsync(KernelLaswp,
						laswpArgs(d.args[:0], w, d.ptrs[g], r[0]*m+j, m, dP[g], 0, jb), 0))
				}
			}
		}

		// l11l21 locates the broadcast panel on GPU g.
		l11l21 := func(g int) (gpu.Ptr, int, int) {
			if g == owner {
				return d.ptrs[owner], d.elemOff(pj, j, 0), m
			}
			return dV[g], 0, mj
		}

		// Trailing update per GPU: U12 = L11⁻¹·A12, then
		// A22 -= L21·U12, over the GPU's contiguous local trailing
		// columns.
		update := func(g int, startCol, width int) {
			if width <= 0 {
				return
			}
			dev := d.Devs[g]
			vPtr, vOff, ldv := l11l21(g)
			track(dev.LaunchAsync(KernelTrsm, trsmArgs(d.args[:0],
				blas.Left, blas.Lower, blas.NoTrans, blas.Unit, jb, width, 1,
				vPtr, vOff, ldv,
				d.ptrs[g], startCol*m+j, m), 0))
			if mj > jb {
				track(dev.LaunchAsync(KernelGemm, gemmArgs(d.args[:0],
					blas.NoTrans, blas.NoTrans, mj-jb, width, jb, -1,
					vPtr, vOff+jb, ldv,
					d.ptrs[g], startCol*m+j, m,
					1, d.ptrs[g], startCol*m+j+jb, m), 0))
			}
		}

		next := pj + 1
		var nextPend Pending
		if next < npanels {
			// Lookahead: update the next panel's block first and queue its
			// download right behind the update, so the CPU factors it while
			// the wide updates run.
			owner2 := d.Owner(next)
			update(owner2, d.localCol(next), d.blockWidth(next))
			nextPend = d.downloadCols(p, next, j+jb, m-j-jb, 0, minInt(nb, k-j-jb),
				hostPanel(nextPanel, (m-j-jb)*minInt(nb, k-j-jb)), 0)
		}
		for g := range d.Devs {
			startBlk := firstOwnedBlock(g, pj+1, G)
			if next < npanels && g == d.Owner(next) && startBlk == next {
				startBlk = next + G
			}
			startCol := d.widths[g]
			if startBlk < d.Blocks() {
				startCol = d.localCol(startBlk)
			}
			// A wide matrix's final panel (jb < nb) leaves trailing columns
			// inside the panel's own block; the owner updates that straddle
			// too. (Only the last panel can have jb < nb, so this never
			// interferes with the lookahead exclusion above.)
			if g == owner && jb < nb {
				if s := d.localCol(pj) + jb; s < startCol {
					startCol = s
				}
			}
			update(g, startCol, d.widths[g]-startCol)
		}
		// Ship the row-swap + trailing-update launch storm (no-op when
		// command batching is off).
		for _, dev := range d.Devs {
			dev.Flush(0)
		}
		if next < npanels {
			if !cfg.Lookahead {
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
