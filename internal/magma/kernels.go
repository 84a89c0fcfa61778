package magma

import (
	"dynacc/internal/blas"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// Kernel names registered by RegisterKernels.
const (
	KernelGemm  = "magma.dgemm"
	KernelSyrk  = "magma.dsyrk"
	KernelTrsm  = "magma.dtrsm"
	KernelLarfb = "magma.dlarfb"
	KernelLaswp = "magma.dlaswp"
)

// dgemm efficiency model for the Tesla-C1060 class: large square GEMMs
// reach maxGemmEff of double-precision peak; skinny inner dimensions (the
// rank-nb updates of blocked factorizations) ramp down, which is what
// keeps whole-factorization throughput below the GEMM roofline.
const (
	maxGemmEff = 0.92
	effRamp    = 28.0
)

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func gemmEff(m, n, k int) float64 {
	d := float64(min3(m, n, k))
	if d <= 0 {
		return maxGemmEff
	}
	return maxGemmEff * d / (d + effRamp)
}

// flopTime converts a flop count at the given efficiency into virtual
// time on the device model. The model may override the size-derived
// efficiency (gpu.Model.KernelEff): FPGA-style devices run every kernel
// at their fixed pipelined rate regardless of problem shape.
func flopTime(flops, eff float64, m gpu.Model) sim.Duration {
	if flops <= 0 {
		return 0
	}
	eff = m.KernelEff(eff)
	return sim.Duration(flops / (eff * m.PeakDP) * 1e9)
}

// GemmTime is the modelled execution time of an m×n×k DGEMM on the
// device; exported for the benchmark harness and tests.
func GemmTime(m, n, k int, model gpu.Model) sim.Duration {
	return flopTime(2*float64(m)*float64(n)*float64(k), gemmEff(m, n, k), model)
}

// readWin reads a column-major window of rows×cols elements with leading
// dimension ld starting at element offset off. The returned slice spans
// the full stride window and is addressed with the same ld.
func readWin(dev *gpu.Device, ptr gpu.Ptr, off, rows, cols, ld int) ([]float64, error) {
	if rows == 0 || cols == 0 {
		return nil, nil
	}
	span := (cols-1)*ld + rows
	return dev.ReadFloat64s(ptr, 8*off, span)
}

func writeWin(dev *gpu.Device, ptr gpu.Ptr, off int, data []float64) error {
	if len(data) == 0 {
		return nil
	}
	return dev.WriteFloat64s(ptr, 8*off, data)
}

// RegisterKernels adds the MAGMA device kernels to a registry. Each
// kernel has a cost model (always used) and a real implementation run in
// execute mode, so numerics tested at small sizes validate the code path
// the paper-scale benchmarks time.
func RegisterKernels(reg *gpu.Registry) {
	reg.Register(gpu.FuncKernel{
		KernelName: KernelGemm,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			mm, nn, kk := int(l.Arg(2).Int), int(l.Arg(3).Int), int(l.Arg(4).Int)
			return GemmTime(mm, nn, kk, m)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			tA := blas.Transpose(l.Arg(0).Int == 1)
			tB := blas.Transpose(l.Arg(1).Int == 1)
			m, n, k := int(l.Arg(2).Int), int(l.Arg(3).Int), int(l.Arg(4).Int)
			alpha := l.Arg(5).F64
			aPtr, aOff, lda := l.Arg(6).Ptr, int(l.Arg(7).Int), int(l.Arg(8).Int)
			bPtr, bOff, ldb := l.Arg(9).Ptr, int(l.Arg(10).Int), int(l.Arg(11).Int)
			beta := l.Arg(12).F64
			cPtr, cOff, ldc := l.Arg(13).Ptr, int(l.Arg(14).Int), int(l.Arg(15).Int)
			if m == 0 || n == 0 {
				return nil
			}
			arows, acols := m, k
			if tA == blas.Trans {
				arows, acols = k, m
			}
			brows, bcols := k, n
			if tB == blas.Trans {
				brows, bcols = n, k
			}
			a, err := readWin(dev, aPtr, aOff, arows, acols, lda)
			if err != nil {
				return err
			}
			b, err := readWin(dev, bPtr, bOff, brows, bcols, ldb)
			if err != nil {
				return err
			}
			c, err := readWin(dev, cPtr, cOff, m, n, ldc)
			if err != nil {
				return err
			}
			blas.Dgemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
			return writeWin(dev, cPtr, cOff, c)
		},
	})

	reg.Register(gpu.FuncKernel{
		KernelName: KernelSyrk,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			n, k := int(l.Arg(2).Int), int(l.Arg(3).Int)
			return flopTime(float64(n)*float64(n)*float64(k), gemmEff(n, n, k), m)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			uplo := blas.UpLo(l.Arg(0).Int)
			trans := blas.Transpose(l.Arg(1).Int == 1)
			n, k := int(l.Arg(2).Int), int(l.Arg(3).Int)
			alpha := l.Arg(4).F64
			aPtr, aOff, lda := l.Arg(5).Ptr, int(l.Arg(6).Int), int(l.Arg(7).Int)
			beta := l.Arg(8).F64
			cPtr, cOff, ldc := l.Arg(9).Ptr, int(l.Arg(10).Int), int(l.Arg(11).Int)
			if n == 0 {
				return nil
			}
			arows, acols := n, k
			if trans == blas.Trans {
				arows, acols = k, n
			}
			a, err := readWin(dev, aPtr, aOff, arows, acols, lda)
			if err != nil {
				return err
			}
			c, err := readWin(dev, cPtr, cOff, n, n, ldc)
			if err != nil {
				return err
			}
			blas.Dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
			return writeWin(dev, cPtr, cOff, c)
		},
	})

	reg.Register(gpu.FuncKernel{
		KernelName: KernelTrsm,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			mm, nn := int(l.Arg(4).Int), int(l.Arg(5).Int)
			side := blas.Side(l.Arg(0).Int)
			order := mm
			if side == blas.Right {
				order = nn
			}
			flops := float64(order) * float64(order) * float64(mm*nn/order)
			// Triangular solves run below GEMM efficiency on this class of
			// hardware.
			return flopTime(flops, 0.6*gemmEff(mm, nn, order), m)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			side := blas.Side(l.Arg(0).Int)
			uplo := blas.UpLo(l.Arg(1).Int)
			trans := blas.Transpose(l.Arg(2).Int == 1)
			diag := blas.Diag(l.Arg(3).Int)
			m, n := int(l.Arg(4).Int), int(l.Arg(5).Int)
			alpha := l.Arg(6).F64
			aPtr, aOff, lda := l.Arg(7).Ptr, int(l.Arg(8).Int), int(l.Arg(9).Int)
			bPtr, bOff, ldb := l.Arg(10).Ptr, int(l.Arg(11).Int), int(l.Arg(12).Int)
			if m == 0 || n == 0 {
				return nil
			}
			order := m
			if side == blas.Right {
				order = n
			}
			a, err := readWin(dev, aPtr, aOff, order, order, lda)
			if err != nil {
				return err
			}
			b, err := readWin(dev, bPtr, bOff, m, n, ldb)
			if err != nil {
				return err
			}
			blas.Dtrsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
			return writeWin(dev, bPtr, bOff, b)
		},
	})

	reg.Register(gpu.FuncKernel{
		KernelName: KernelLaswp,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			cols, k := int(l.Arg(0).Int), int(l.Arg(6).Int)
			// Two rows read + written per interchange and column.
			bytes := 4 * 8 * float64(cols) * float64(k)
			return sim.Duration(bytes / m.MemBandwidth * 1e9)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			cols := int(l.Arg(0).Int)
			cPtr, cOff, ldc := l.Arg(1).Ptr, int(l.Arg(2).Int), int(l.Arg(3).Int)
			pivPtr, pivOff, k := l.Arg(4).Ptr, int(l.Arg(5).Int), int(l.Arg(6).Int)
			if cols == 0 || k == 0 {
				return nil
			}
			pivF, err := dev.ReadFloat64s(pivPtr, 8*pivOff, k)
			if err != nil {
				return err
			}
			// The window must reach the largest pivot row.
			maxRow := k - 1
			for _, pf := range pivF {
				if int(pf) > maxRow {
					maxRow = int(pf)
				}
			}
			win, err := readWin(dev, cPtr, cOff, maxRow+1, cols, ldc)
			if err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				p := int(pivF[i])
				if p == i {
					continue
				}
				for c := 0; c < cols; c++ {
					win[i+c*ldc], win[p+c*ldc] = win[p+c*ldc], win[i+c*ldc]
				}
			}
			return writeWin(dev, cPtr, cOff, win)
		},
	})

	reg.Register(gpu.FuncKernel{
		KernelName: KernelLarfb,
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			mm, nn, kk := int(l.Arg(0).Int), int(l.Arg(1).Int), int(l.Arg(2).Int)
			// W = CᵀV (2mnk) + W·T (nk²) + C -= V·Wᵀ (2mnk)
			flops := 4*float64(mm)*float64(nn)*float64(kk) + float64(nn)*float64(kk)*float64(kk)
			return flopTime(flops, gemmEff(mm, nn, kk), m)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			m, n, k := int(l.Arg(0).Int), int(l.Arg(1).Int), int(l.Arg(2).Int)
			vPtr, vOff, ldv := l.Arg(3).Ptr, int(l.Arg(4).Int), int(l.Arg(5).Int)
			tPtr, tOff, ldt := l.Arg(6).Ptr, int(l.Arg(7).Int), int(l.Arg(8).Int)
			cPtr, cOff, ldc := l.Arg(9).Ptr, int(l.Arg(10).Int), int(l.Arg(11).Int)
			if m == 0 || n == 0 || k == 0 {
				return nil
			}
			v, err := readWin(dev, vPtr, vOff, m, k, ldv)
			if err != nil {
				return err
			}
			tm, err := readWin(dev, tPtr, tOff, k, k, ldt)
			if err != nil {
				return err
			}
			c, err := readWin(dev, cPtr, cOff, m, n, ldc)
			if err != nil {
				return err
			}
			lapack.Dlarfb(blas.Trans, m, n, k, v, ldv, tm, ldt, c, ldc, dev.Scratch(n*k))
			return writeWin(dev, cPtr, cOff, c)
		},
	})
}

// laswpArgs: apply k row interchanges (pivot rows stored as float64
// values at pivPtr) to cols columns starting at element offset cOff with
// leading dimension ldc. Row indices are relative to the window at cOff.
func laswpArgs(args []gpu.Value, cols int, c gpu.Ptr, cOff, ldc int, piv gpu.Ptr, pivOff, k int) gpu.Launch {
	return gpu.Launch{Grid: gpu.Dim3{X: ceilDiv(cols, 64)}, Block: gpu.Dim3{X: 64},
		Args: append(args[:0],
			gpu.IntArg(int64(cols)),
			gpu.PtrArg(c), gpu.IntArg(int64(cOff)), gpu.IntArg(int64(ldc)),
			gpu.PtrArg(piv), gpu.IntArg(int64(pivOff)), gpu.IntArg(int64(k)))}
}

// Launch-argument builders keep call sites readable and the wire format
// in one place. Each builds into args's array (the Dist's, whose devices copy
// a launch's arguments before LaunchAsync returns).

func gemmArgs(args []gpu.Value, tA, tB blas.Transpose, m, n, k int, alpha float64, a gpu.Ptr, aOff, lda int, b gpu.Ptr, bOff, ldb int, beta float64, c gpu.Ptr, cOff, ldc int) gpu.Launch {
	bi := func(t blas.Transpose) int64 {
		if t == blas.Trans {
			return 1
		}
		return 0
	}
	return gpu.Launch{Grid: gpu.Dim3{X: ceilDiv(m, 64), Y: ceilDiv(n, 16)}, Block: gpu.Dim3{X: 64, Y: 16},
		Args: append(args[:0],
			gpu.IntArg(bi(tA)), gpu.IntArg(bi(tB)),
			gpu.IntArg(int64(m)), gpu.IntArg(int64(n)), gpu.IntArg(int64(k)),
			gpu.FloatArg(alpha),
			gpu.PtrArg(a), gpu.IntArg(int64(aOff)), gpu.IntArg(int64(lda)),
			gpu.PtrArg(b), gpu.IntArg(int64(bOff)), gpu.IntArg(int64(ldb)),
			gpu.FloatArg(beta),
			gpu.PtrArg(c), gpu.IntArg(int64(cOff)), gpu.IntArg(int64(ldc)))}
}

func syrkArgs(args []gpu.Value, uplo blas.UpLo, trans blas.Transpose, n, k int, alpha float64, a gpu.Ptr, aOff, lda int, beta float64, c gpu.Ptr, cOff, ldc int) gpu.Launch {
	ti := int64(0)
	if trans == blas.Trans {
		ti = 1
	}
	return gpu.Launch{Grid: gpu.Dim3{X: ceilDiv(n, 64)}, Block: gpu.Dim3{X: 64},
		Args: append(args[:0],
			gpu.IntArg(int64(uplo)), gpu.IntArg(ti),
			gpu.IntArg(int64(n)), gpu.IntArg(int64(k)),
			gpu.FloatArg(alpha),
			gpu.PtrArg(a), gpu.IntArg(int64(aOff)), gpu.IntArg(int64(lda)),
			gpu.FloatArg(beta),
			gpu.PtrArg(c), gpu.IntArg(int64(cOff)), gpu.IntArg(int64(ldc)))}
}

func trsmArgs(args []gpu.Value, side blas.Side, uplo blas.UpLo, trans blas.Transpose, diag blas.Diag, m, n int, alpha float64, a gpu.Ptr, aOff, lda int, b gpu.Ptr, bOff, ldb int) gpu.Launch {
	ti := int64(0)
	if trans == blas.Trans {
		ti = 1
	}
	return gpu.Launch{Grid: gpu.Dim3{X: ceilDiv(m, 64)}, Block: gpu.Dim3{X: 64},
		Args: append(args[:0],
			gpu.IntArg(int64(side)), gpu.IntArg(int64(uplo)), gpu.IntArg(ti), gpu.IntArg(int64(diag)),
			gpu.IntArg(int64(m)), gpu.IntArg(int64(n)),
			gpu.FloatArg(alpha),
			gpu.PtrArg(a), gpu.IntArg(int64(aOff)), gpu.IntArg(int64(lda)),
			gpu.PtrArg(b), gpu.IntArg(int64(bOff)), gpu.IntArg(int64(ldb)))}
}

func larfbArgs(args []gpu.Value, m, n, k int, v gpu.Ptr, vOff, ldv int, t gpu.Ptr, tOff, ldt int, c gpu.Ptr, cOff, ldc int) gpu.Launch {
	return gpu.Launch{Grid: gpu.Dim3{X: ceilDiv(m, 64), Y: ceilDiv(n, 16)}, Block: gpu.Dim3{X: 64, Y: 16},
		Args: append(args[:0],
			gpu.IntArg(int64(m)), gpu.IntArg(int64(n)), gpu.IntArg(int64(k)),
			gpu.PtrArg(v), gpu.IntArg(int64(vOff)), gpu.IntArg(int64(ldv)),
			gpu.PtrArg(t), gpu.IntArg(int64(tOff)), gpu.IntArg(int64(ldt)),
			gpu.PtrArg(c), gpu.IntArg(int64(cOff)), gpu.IntArg(int64(ldc)))}
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 1
	}
	return (a + b - 1) / b
}

// cpuGFlops is the host panel-factorization rate in GFlop/s: a dual-socket
// Westmere host on skinny panels, which run memory-bound, far below the
// CPU's dense peak.
const cpuGFlops = 12

// cpuPanelTime is the host time to factor a panel of the given flops.
func cpuPanelTime(flops float64) sim.Duration {
	if flops <= 0 {
		return 0
	}
	return sim.Duration(flops / (cpuGFlops * 1e9) * 1e9)
}
