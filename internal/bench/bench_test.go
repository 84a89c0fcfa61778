package bench

import (
	"strings"
	"testing"

	"dynacc/internal/core"
	"dynacc/internal/magma"
	"dynacc/internal/netmodel"
)

// The quick grids keep these tests fast; the shapes they assert are the
// paper's headline claims, so a regression here means the reproduction
// broke, not just a number moved.

func quickFig(t *testing.T, gen Generator) *Figure {
	t.Helper()
	return gen(Options{Quick: true})
}

func last(s *Series) float64 { return s.Y[len(s.Y)-1] }

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	for _, id := range FigureOrder() {
		if figs[id] == nil {
			t.Errorf("missing generator for %s", id)
		}
	}
	if len(figs) != len(FigureOrder()) {
		t.Errorf("registry has %d entries, order lists %d", len(figs), len(FigureOrder()))
	}
}

func TestFig5Shapes(t *testing.T) {
	f := quickFig(t, Fig5)
	naive, pipe, adaptive, mpi := f.Col("naive"), f.Col("pipeline-128K"), f.Col("pipeline-128-512K"), f.Col("MPI-PingPong")
	if naive == nil || pipe == nil || adaptive == nil || mpi == nil {
		t.Fatal("missing series")
	}
	// At the largest size the pipeline clearly beats the naive protocol...
	if last(pipe) < 1.25*last(naive) {
		t.Errorf("pipeline %0.f not >= 1.25x naive %.0f", last(pipe), last(naive))
	}
	// ...and approaches (but never exceeds) the MPI bound.
	if last(adaptive) > last(mpi) {
		t.Errorf("adaptive %.0f exceeds MPI bound %.0f", last(adaptive), last(mpi))
	}
	if last(adaptive) < 0.9*last(mpi) {
		t.Errorf("adaptive %.0f below 90%% of MPI bound %.0f", last(adaptive), last(mpi))
	}
	// MPI peak calibration anchor (paper: ~2660 MiB/s).
	if last(mpi) < 2600 || last(mpi) > 2720 {
		t.Errorf("MPI peak = %.0f, want ~2660", last(mpi))
	}
	// Naive anchor (paper: ~1800 MiB/s plateau).
	if last(naive) < 1700 || last(naive) > 1950 {
		t.Errorf("naive plateau = %.0f, want ~1800", last(naive))
	}
}

func TestFig5BlockSizeCrossover(t *testing.T) {
	// Full-resolution check of the paper's central tuning observation:
	// 128K blocks beat 512K blocks at 1 MiB, 512K wins at 64 MiB.
	f := Fig5(Options{})
	small128, _ := f.At("pipeline-128K", 1024)
	small512, _ := f.At("pipeline-512K", 1024)
	big128, _ := f.At("pipeline-128K", 65536)
	big512, _ := f.At("pipeline-512K", 65536)
	if small128 <= small512 {
		t.Errorf("at 1 MiB: 128K (%.0f) should beat 512K (%.0f)", small128, small512)
	}
	if big512 <= big128 {
		t.Errorf("at 64 MiB: 512K (%.0f) should beat 128K (%.0f)", big512, big128)
	}
	// Adaptive tracks the better of the two at both ends.
	ad1, _ := f.At("pipeline-128-512K", 1024)
	ad64, _ := f.At("pipeline-128-512K", 65536)
	if ad1 < small128*0.99 || ad64 < big512*0.99 {
		t.Errorf("adaptive (%.0f, %.0f) does not track max (%.0f, %.0f)", ad1, ad64, small128, big512)
	}
}

func TestFig6Shapes(t *testing.T) {
	f := quickFig(t, Fig6)
	if last(f.Col("pipeline-128K")) < 1.25*last(f.Col("naive")) {
		t.Error("D2H pipeline not beating naive")
	}
	if last(f.Col("pipeline-128K")) > last(f.Col("MPI-PingPong")) {
		t.Error("D2H pipeline exceeds MPI bound")
	}
}

func TestFig7Ordering(t *testing.T) {
	f := quickFig(t, Fig7)
	pinned, pageable := last(f.Col("CUDA-local-pinned")), last(f.Col("CUDA-local-pageable"))
	mpi, dyn := last(f.Col("MPI-PingPong")), last(f.Col("dyn-pipeline-128-512K"))
	if !(pinned > pageable && pageable > mpi && mpi >= dyn) {
		t.Errorf("ordering broken: pinned=%.0f pageable=%.0f mpi=%.0f dyn=%.0f", pinned, pageable, mpi, dyn)
	}
	// Calibration anchors from the paper: ~5700 and ~4700 MiB/s.
	if pinned < 5550 || pinned > 5850 {
		t.Errorf("pinned peak %.0f, want ~5700", pinned)
	}
	if pageable < 4550 || pageable > 4850 {
		t.Errorf("pageable peak %.0f, want ~4700", pageable)
	}
}

func TestFig8Ordering(t *testing.T) {
	f := quickFig(t, Fig8)
	if !(last(f.Col("CUDA-local-pinned")) > last(f.Col("CUDA-local-pageable")) &&
		last(f.Col("CUDA-local-pageable")) > last(f.Col("dyn-pipeline-128K"))) {
		t.Error("D2H ordering broken")
	}
}

func TestFig9Shapes(t *testing.T) {
	f := quickFig(t, Fig9)
	nMax := f.X[len(f.X)-1]
	local, _ := f.At("CUDA-local-GPU", nMax)
	one, _ := f.At("1-network-GPU", nMax)
	three, _ := f.At("3-network-GPUs", nMax)
	if one >= local {
		t.Errorf("1 network GPU (%.1f) not below local (%.1f)", one, local)
	}
	if (local-one)/local > 0.15 {
		t.Errorf("remote penalty %.0f%%, implausibly large", (local-one)/local*100)
	}
	if ratio := three / local; ratio < 1.6 || ratio > 3.2 {
		t.Errorf("3-GPU speedup %.2fx outside the plausible band around the paper's 2.2x", ratio)
	}
	// At the smallest size extra GPUs must NOT pay off (paper: curves
	// converge at small N).
	nMin := f.X[0]
	localSmall, _ := f.At("CUDA-local-GPU", nMin)
	threeSmall, _ := f.At("3-network-GPUs", nMin)
	if threeSmall > 1.15*localSmall {
		t.Errorf("at N=%v 3 GPUs (%.1f) should not beat local (%.1f)", nMin, threeSmall, localSmall)
	}
}

func TestFig10Shapes(t *testing.T) {
	f9 := quickFig(t, Fig9)
	f10 := quickFig(t, Fig10)
	nMax := f10.X[len(f10.X)-1]
	local, _ := f10.At("CUDA-local-GPU", nMax)
	one, _ := f10.At("1-network-GPU", nMax)
	if one >= local {
		t.Errorf("Cholesky: 1 network GPU (%.1f) not below local (%.1f)", one, local)
	}
	// QR is more bandwidth-sensitive than Cholesky (paper Section V-B).
	qrLocal, _ := f9.At("CUDA-local-GPU", nMax)
	qrOne, _ := f9.At("1-network-GPU", nMax)
	qrPenalty := (qrLocal - qrOne) / qrLocal
	chPenalty := (local - one) / local
	if chPenalty > qrPenalty {
		t.Errorf("Cholesky penalty %.2f%% exceeds QR penalty %.2f%%", chPenalty*100, qrPenalty*100)
	}
}

func TestFig11SlowdownBound(t *testing.T) {
	f := quickFig(t, Fig11)
	local, dyn := f.Col("CUDA-local"), f.Col("dynamic-cluster")
	for i := range f.X {
		slow := dyn.Y[i]/local.Y[i] - 1
		if slow <= 0 {
			t.Errorf("particles=%v: dynamic (%.2f min) not slower than local (%.2f min)", f.X[i], dyn.Y[i], local.Y[i])
		}
		if slow > 0.05 {
			t.Errorf("particles=%v: slowdown %.1f%% above paper's ~4%% bound", f.X[i], slow*100)
		}
	}
}

func TestExtAUtilization(t *testing.T) {
	f := quickFig(t, ExtA)
	uf, ub := f.Col("util%-fifo"), f.Col("util%-backfill")
	wf, wb := f.Col("wait-ms-fifo"), f.Col("wait-ms-backfill")
	for i := range f.X {
		if uf.Y[i] <= 0 || uf.Y[i] > 100 || ub.Y[i] <= 0 || ub.Y[i] > 100 {
			t.Errorf("utilization out of range: %v %v", uf.Y[i], ub.Y[i])
		}
		if wb.Y[i] > wf.Y[i]*1.05 {
			t.Errorf("backfill wait %.1fms worse than FIFO %.1fms at %v ACs", wb.Y[i], wf.Y[i], f.X[i])
		}
	}
}

func TestExtBDepthAblation(t *testing.T) {
	f := ExtB(Options{}) // full size (Cholesky at N=4032), as acbench -fig extB prints it
	s := f.Col("pipeline-128K")
	if s.Y[0] >= s.Y[2] {
		t.Errorf("depth 1 (%.0f) should be slower than depth 4 (%.0f)", s.Y[0], s.Y[2])
	}
	// The direct route's two notes are exact literals: the simulation repeats.
	foundLA := false
	want := []string{
		"direct 2487.1 MiB/s vs staged-through-CN 1266.1 MiB/s",
		"D2D L21 broadcast 100.0 GF vs host-routed 90.8 GF",
	}
	for _, n := range f.Notes {
		if strings.Contains(n, "lookahead") {
			foundLA = true
		}
		for i, w := range want {
			if strings.Contains(n, w) {
				want = append(want[:i], want[i+1:]...)
				break
			}
		}
	}
	if !foundLA || len(want) > 0 {
		t.Errorf("ablation notes missing lookahead or %q: %v", want, f.Notes)
	}
}

func TestExtCHungryJobTurnaround(t *testing.T) {
	f := quickFig(t, ExtC)
	gain := f.Col("hungry-speedup")
	if gain == nil {
		t.Fatal("missing hungry-speedup series")
	}
	// Saturated pool (first point): multi-accelerator requests queue, so
	// the dynamic architecture loses turnaround there...
	if gain.Y[0] >= 1.0 {
		t.Errorf("saturated-pool gain = %.2f, expected < 1 (queueing inversion)", gain.Y[0])
	}
	// ...but with an adequate pool the motivating job class wins clearly.
	if last(gain) < 1.3 {
		t.Errorf("largest-pool gain = %.2f, want >= 1.3", last(gain))
	}
	// Makespans stay comparable (GPU-seconds conservation).
	st, dy := f.Col("static-makespan-s"), f.Col("dyn-makespan-s")
	for i := range f.X {
		ratio := dy.Y[i] / st.Y[i]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("makespan ratio %.2f at %v ACs outside parity band", ratio, f.X[i])
		}
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "demo", XLabel: "x", YLabel: "y",
		X:      []float64{1, 2.5},
		Series: []Series{{Label: "a", Y: []float64{10, 20}}, {Label: "b", Y: []float64{30}}},
		Notes:  []string{"note"},
	}
	tab := f.Table()
	for _, want := range []string{"demo", "x", "a", "b", "10.0", "2.5", "note", "-"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n1,10.000,30.000\n") {
		t.Errorf("csv = %q", csv)
	}
	if f.Col("missing") != nil {
		t.Error("Col of missing label non-nil")
	}
	if _, ok := f.At("a", 99); ok {
		t.Error("At of missing x reported ok")
	}
}

func TestMeasureHelpersSane(t *testing.T) {
	// PingPong time must grow with size, remote copies must be slower
	// than the raw network one-way time.
	t1 := measurePingPong(1024)
	t2 := measurePingPong(1 << 20)
	if t2 <= t1 {
		t.Errorf("pingpong not size-dependent: %v vs %v", t1, t2)
	}
	tc := measureRemoteCopy(1<<20, true, h2dOpts(core.PaperPipeline(128*kib)))
	if tc <= t2 {
		t.Errorf("remote copy %v should exceed raw one-way %v", tc, t2)
	}
}

func TestExtDFabricSensitivity(t *testing.T) {
	f := quickFig(t, ExtD)
	qrRel := f.Col("QR-vs-local")
	mp := f.Col("MP2C-slowdown-%")
	if qrRel == nil || mp == nil {
		t.Fatal("missing series")
	}
	// GigE (x=0) must hurt badly — the rCUDA-style TCP regime...
	if qrRel.Y[0] > 0.8 {
		t.Errorf("GigE QR at %.2fx local, expected a heavy penalty", qrRel.Y[0])
	}
	if mp.Y[0] < 5 {
		t.Errorf("GigE MP2C slowdown %.1f%%, expected >= 5%%", mp.Y[0])
	}
	// ...and the penalty must shrink monotonically with faster fabrics.
	for i := 1; i < len(mp.Y); i++ {
		if mp.Y[i] > mp.Y[i-1]+0.01 {
			t.Errorf("MP2C slowdown not shrinking: %v", mp.Y)
			break
		}
		if qrRel.Y[i] < qrRel.Y[i-1]-0.01 {
			t.Errorf("QR ratio not improving: %v", qrRel.Y)
			break
		}
	}
	// FDR approaches parity.
	if last(qrRel) < 0.95 {
		t.Errorf("FDR QR only %.2fx local", last(qrRel))
	}
}

// The simulation is deterministic: regenerating a figure must reproduce
// it bit for bit.
func TestFigureGenerationDeterministic(t *testing.T) {
	a := Fig5(Options{Quick: true}).CSV()
	b := Fig5(Options{Quick: true}).CSV()
	if a != b {
		t.Error("Fig5 not deterministic")
	}
	c := Fig9(Options{Quick: true}).CSV()
	d := Fig9(Options{Quick: true}).CSV()
	if c != d {
		t.Error("Fig9 not deterministic")
	}
}

func TestExtELUShapes(t *testing.T) {
	f := quickFig(t, ExtE)
	nMax := f.X[len(f.X)-1]
	local, _ := f.At("CUDA-local-GPU", nMax)
	one, _ := f.At("1-network-GPU", nMax)
	three, _ := f.At("3-network-GPUs", nMax)
	if one >= local {
		t.Errorf("LU: 1 network GPU (%.1f) not below local (%.1f)", one, local)
	}
	if three <= local {
		t.Errorf("LU: 3 network GPUs (%.1f) not above local (%.1f)", three, local)
	}
}

// Micro-benchmarks of single simulated operations, for tuning the
// simulator itself. The reported wall time is the cost of simulating one
// operation, not its virtual time.

func BenchmarkSimPipelineCopy16MiB(b *testing.B) {
	opts := core.Options{H2D: core.PaperAdaptive(), D2H: core.PaperNaive()}
	for i := 0; i < b.N; i++ {
		measureRemoteCopy(16*netmodel.MiB, true, opts)
	}
}

func BenchmarkSimNaiveCopy16MiB(b *testing.B) {
	opts := core.Options{H2D: core.PaperNaive(), D2H: core.PaperNaive()}
	for i := 0; i < b.N; i++ {
		measureRemoteCopy(16*netmodel.MiB, true, opts)
	}
}

func BenchmarkSimPingPong1MiB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		measurePingPong(netmodel.MiB)
	}
}

func BenchmarkSimQRThreeGPUsN2048(b *testing.B) {
	cfg := magma.DefaultConfig()
	for i := 0; i < b.N; i++ {
		runFactorization(factorQR, 3, 2048, cfg)
	}
}
