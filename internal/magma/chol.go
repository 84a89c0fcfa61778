package magma

import (
	"errors"
	"fmt"

	"dynacc/internal/accel"
	"dynacc/internal/blas"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// Dpotrf computes the blocked lower Cholesky factorization of the
// distributed n×n symmetric positive definite matrix in place, following
// magma_dpotrf_mgpu: the diagonal block is factored on the host CPU, the
// panel below it is solved on its owner GPU, the resulting L21 is
// broadcast to every GPU, and each GPU updates its local trailing
// columns; with lookahead the next diagonal block's update and download
// run ahead of the wide update.
func Dpotrf(p *sim.Proc, d *Dist, cfg Config) error {
	cfg = cfg.withDefaults()
	n, nb := d.N, d.NB
	if d.M != n {
		return fmt.Errorf("magma: Dpotrf requires a square matrix, got %dx%d", d.M, d.N)
	}
	G := len(d.Devs)
	npanels := d.Blocks()

	// Workspace per GPU for the broadcast L21 ((n-j-jb)×jb at most).
	dW := make([]gpu.Ptr, G)
	for g, dev := range d.Devs {
		var err error
		if dW[g], err = dev.MemAlloc(p, 8*n*nb); err != nil {
			return err
		}
	}
	defer func() {
		for g, dev := range d.Devs {
			_ = dev.MemFree(p, dW[g])
		}
	}()

	var diag, l21 []float64
	if d.exec {
		diag = make([]float64, nb*nb)
		l21 = make([]float64, n*nb)
	}

	var issued []Pending
	track := func(pends ...Pending) { issued = append(issued, pends...) }

	// Prologue: fetch diagonal block 0.
	if err := d.downloadCols(p, 0, 0, d.blockWidth(0), 0, d.blockWidth(0),
		hostPanel(diag, d.blockWidth(0)*d.blockWidth(0)), 0).Wait(p); err != nil {
		return err
	}

	for pj := 0; pj < npanels; pj++ {
		j := pj * nb
		jb := d.blockWidth(pj)
		mt := n - j - jb // trailing rows below the diagonal block
		owner := d.Owner(pj)
		dev := d.Devs[owner]

		// Host: factor the diagonal block (~jb³/3 flops).
		if d.exec {
			if err := lapack.Dpotf2(jb, diag, jb); err != nil {
				pe := err.(*lapack.PositiveDefiniteError)
				return &lapack.PositiveDefiniteError{Pivot: pe.Pivot + j}
			}
		}
		p.Wait(cpuPanelTime(float64(jb) * float64(jb) * float64(jb) / 3))

		// Upload L11 back to the owner.
		track(d.uploadCols(pj, j, jb, 0, jb, hostPanel(diag, jb*jb), 0))

		if mt > 0 {
			// Owner: A21 = A21 · L11⁻ᵀ on the device.
			track(dev.LaunchAsync(KernelTrsm, trsmArgs(d.args[:0],
				blas.Right, blas.Lower, blas.Trans, blas.NonUnit, mt, jb, 1,
				d.ptrs[owner], d.elemOff(pj, j, 0), n,
				d.ptrs[owner], d.elemOff(pj, j+jb, 0), n), 0))

			// With more than one GPU, broadcast L21 to the others (a
			// single GPU keeps everything in place — no host round trip
			// at all, which is what makes Cholesky less bandwidth-
			// sensitive than QR in the paper). The broadcast either stages
			// through the compute node (download + uploads, the MAGMA
			// port's behaviour) or flows directly between the accelerators
			// when cfg.Direct is set.
			if G > 1 {
				if err := d.broadcastL21(p, cfg, pj, j, jb, mt, owner, l21, dW); err != nil {
					return err
				}
			}

			// l21Src locates the L21 operand on GPU g.
			l21Src := func(g, rowOff int) (gpu.Ptr, int, int) {
				if g == owner {
					return d.ptrs[owner], d.elemOff(pj, j+jb+rowOff, 0), n
				}
				return dW[g], rowOff, mt
			}

			launchUpdate := func(c int) {
				cs := c * nb
				wc := d.blockWidth(c)
				mc := n - cs
				g := d.Owner(c)
				aPtr, aOff, lda := l21Src(g, cs-j-jb)
				// Diagonal part: the wc×wc block at (cs, cs) is symmetric —
				// a rank-jb SYRK on the lower triangle, as MAGMA issues.
				track(d.Devs[g].LaunchAsync(KernelSyrk, syrkArgs(d.args[:0],
					blas.Lower, blas.NoTrans, wc, jb, -1,
					aPtr, aOff, lda,
					1, d.ptrs[g], d.elemOff(c, cs, 0), n), 0))
				// Off-diagonal rows below the block: a plain GEMM.
				if mc > wc {
					bPtr, bOff, ldb := l21Src(g, cs-j-jb)
					track(d.Devs[g].LaunchAsync(KernelGemm, gemmArgs(d.args[:0],
						blas.NoTrans, blas.Trans, mc-wc, wc, jb, -1,
						aPtr, aOff+wc, lda,
						bPtr, bOff, ldb,
						1, d.ptrs[g], d.elemOff(c, cs+wc, 0), n), 0))
				}
			}

			next := pj + 1
			var nextPend Pending
			if next < npanels {
				// Lookahead: update and download the next diagonal block
				// first.
				launchUpdate(next)
				jbn := d.blockWidth(next)
				nextPend = d.downloadCols(p, next, j+jb, jbn, 0, jbn,
					hostPanel(diag, jbn*jbn), 0)
			}
			for c := pj + 2; c < npanels; c++ {
				launchUpdate(c)
			}
			// Ship the trailing-update launch storm (two launches per
			// column block were just recorded per device); a no-op when
			// batching is off.
			for _, dv := range d.Devs {
				dv.Flush(0)
			}
			if next < npanels {
				if !cfg.Lookahead {
					for _, dv := range d.Devs {
						if err := dv.Sync(p); err != nil {
							return err
						}
					}
				}
				if err := nextPend.Wait(p); err != nil {
					return err
				}
			}
		}
	}

	for _, dev := range d.Devs {
		if err := dev.Sync(p); err != nil {
			return err
		}
	}
	return waitAllPending(p, issued)
}

// broadcastL21 distributes the just-solved panel L21 (mt×jb, stored in
// the owner's matrix below the diagonal block of panel pj) to every
// other GPU's workspace.
func (d *Dist) broadcastL21(p *sim.Proc, cfg Config, pj, j, jb, mt, owner int, l21 []float64, dW []gpu.Ptr) error {
	if cfg.Direct {
		// Direct accelerator-to-accelerator: the strided L21 columns
		// reach each peer's workspace packed, never touching the compute
		// node's memory. Without a direct path to every peer, all of
		// them take the host route.
		w := accel.Window{Off: 8 * d.elemOff(pj, j+jb, 0), ColBytes: 8 * mt, Cols: jb, Pitch: 8 * d.M}
		var err error
		for g, other := range d.Devs {
			if g != owner && err == nil {
				err = accel.CopyD2D(p, d.Devs[owner], d.ptrs[owner], w, other, dW[g], 0, 0, 0)
			}
		}
		if !errors.Is(err, core.ErrNoPeerPath) {
			return err
		}
	}
	if err := d.downloadCols(p, pj, j+jb, mt, 0, jb,
		hostPanel(l21, mt*jb), 0).Wait(p); err != nil {
		return err
	}
	l21Bytes := d.hostBytes(l21, mt*jb)
	var bcast []Pending
	for g, other := range d.Devs {
		if g == owner {
			continue
		}
		bcast = append(bcast, other.CopyH2DAsync(dW[g], 0, l21Bytes, 8*mt*jb, 0))
	}
	err := waitAllPending(p, bcast)
	if err == nil {
		d.putScratch(l21Bytes)
	}
	return err
}
