package core

import (
	"testing"
	"testing/quick"

	"dynacc/internal/sim"
)

// autotuneClient returns a bare client with the autotuned protocol in
// both directions; the tuner never touches the communicator, so the
// planning/recording surface is testable without a simulation.
func autotuneClient() *Client {
	return &Client{opts: Options{H2D: PaperAutotune(), D2H: PaperAutotune()}}
}

// TestAutotuneWarmStartMatchesPaperAdaptive pins the warm-start
// contract: before the link model holds a single bandwidth sample, the
// autotuner's plan is exactly PaperAdaptive's resolution for every
// payload size — on both sides of the 9 MiB threshold and at the
// clamping edges. The paper's tuned configuration is the floor the
// tuner can only improve on.
func TestAutotuneWarmStartMatchesPaperAdaptive(t *testing.T) {
	adaptive := PaperAdaptive()
	sizes := []int{
		1, 1024, 64 * 1024, 128 * 1024, 128*1024 + 1, 1 << 20,
		9*1024*1024 - 1, 9 * 1024 * 1024, 16 << 20, 64 << 20,
	}
	for _, dir := range []TransferDir{DirH2D, DirD2H, DirD2D} {
		c := autotuneClient()
		for _, n := range sizes {
			wb, wd := adaptive.resolve(n)
			gb, gd := c.AutotunePlan(1, dir, n)
			if gb != wb || gd != wd {
				t.Errorf("%v n=%d: warm plan (%d,%d), want PaperAdaptive (%d,%d)",
					dir, n, gb, gd, wb, wd)
			}
			// The planning path the copies actually take must agree too.
			pb, pd := c.tunePlan(c.opts.H2D, 1, dir, n, true)
			if pb != wb || pd != wd {
				t.Errorf("%v n=%d: tunePlan (%d,%d), want PaperAdaptive (%d,%d)",
					dir, n, pb, pd, wb, wd)
			}
		}
	}
}

// TestAutotunePlanAlwaysValid is the testing/quick property of the
// satellite: whatever bandwidth history the model has absorbed —
// arbitrary rungs, arbitrary sample values, arbitrary probe phase —
// the resolved (block, depth) always describes a valid transfer:
// 0 < block <= n and depth within [1, max(DefaultDepth, maxTuneDepth)],
// so every planned request passes the daemon's validation.
func TestAutotunePlanAlwaysValid(t *testing.T) {
	c := autotuneClient()
	maxDepth := maxTuneDepth
	if DefaultDepth > maxDepth {
		maxDepth = DefaultDepth
	}
	prop := func(peer uint8, dirRaw uint8, nRaw uint32, block uint32, elapsed uint32, repeat uint8) bool {
		dir := TransferDir(dirRaw%3 + 1)
		n := int(nRaw%(64<<20)) + 1
		// Feed a burst of (possibly degenerate) samples, then plan.
		for i := 0; i <= int(repeat%5); i++ {
			c.tuneRecord(c.opts.H2D, int(peer), dir, int(block), n, sim.Duration(elapsed))
		}
		b, d := c.tunePlan(c.opts.H2D, int(peer), dir, n, true)
		if b <= 0 || b > n {
			t.Logf("peer=%d dir=%v n=%d: block %d out of range", peer, dir, n, b)
			return false
		}
		if d < 1 || d > maxDepth {
			t.Logf("peer=%d dir=%v n=%d: depth %d out of range", peer, dir, n, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAutotuneConvergesOnStepChange drives the EWMA model through a
// link-bandwidth step change: the link first measures fastest at the
// warm-start rung, then — after "congestion" makes small blocks
// collapse and a probe discovers a larger rung performing better —
// the plan must move to the new optimum within a handful of samples.
func TestAutotuneConvergesOnStepChange(t *testing.T) {
	c := autotuneClient()
	const peer, n = 1, 4 << 20
	warm, _ := PaperAdaptive().resolve(n) // 128 KiB

	// Phase 1: healthy link, the warm-start rung really is best.
	for i := 0; i < 4; i++ {
		c.tuneRecord(c.opts.H2D, peer, DirH2D, warm, n, 1000)
		c.tuneRecord(c.opts.H2D, peer, DirH2D, 2*warm, n, 1200)
	}
	if b, _ := c.AutotunePlan(peer, DirH2D, n); b != warm {
		t.Fatalf("healthy link: plan %d, want warm-start %d", b, warm)
	}

	// Phase 2: step change — per-block overhead explodes (added link
	// latency), so the 128 KiB rung now moves the same payload 8x
	// slower while the 256 KiB neighbor only halves. The EWMA at
	// alpha=0.5 must flip the optimum within a few samples.
	flipped := -1
	for i := 0; i < 8; i++ {
		c.tuneRecord(c.opts.H2D, peer, DirH2D, warm, n, 8000)
		c.tuneRecord(c.opts.H2D, peer, DirH2D, 2*warm, n, 2400)
		if b, _ := c.AutotunePlan(peer, DirH2D, n); b == 2*warm {
			flipped = i + 1
			break
		}
	}
	if flipped < 0 {
		t.Fatalf("plan never left the degraded %d rung after 8 sample pairs", warm)
	}
	if flipped > 4 {
		t.Errorf("converged only after %d sample pairs, want <= 4 (alpha=%v)", flipped, tuneAlpha)
	}

	// Depth follows the plan: enough buffers for the block count, capped.
	b, d := c.AutotunePlan(peer, DirH2D, n)
	want := numBlocks(n, b)
	if want > maxTuneDepth {
		want = maxTuneDepth
	}
	if d != want {
		t.Errorf("depth %d for block %d, want %d", d, b, want)
	}
}

// TestAutotuneProbesNeighborRungs checks the exploration cadence: with
// a converged model, consecutive planned transfers still visit the
// rungs adjacent to the best one (never anything further), so a stale
// optimum keeps being re-measured.
func TestAutotuneProbesNeighborRungs(t *testing.T) {
	c := autotuneClient()
	const peer, n = 2, 4 << 20
	const best = 512 * 1024
	c.tuneRecord(c.opts.H2D, peer, DirH2D, best, n, 1000)

	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		b, _ := c.tunePlan(c.opts.H2D, peer, DirH2D, n, true)
		seen[b] = true
		if b != best/2 && b != best && b != 2*best {
			t.Fatalf("transfer %d planned block %d, want %d or a ladder neighbor", i, b, best)
		}
	}
	if !seen[best/2] || !seen[2*best] {
		t.Errorf("8 transfers probed %v, want both neighbors of %d visited", seen, best)
	}
	// Probes must not have polluted the model: only recorded samples move
	// it, and none were recorded during planning.
	if b, _ := c.AutotunePlan(peer, DirH2D, n); b != best {
		t.Errorf("planning alone shifted the optimum to %d", b)
	}
}

// TestAutotuneDefaultPathUntouched: a client on the default options
// never allocates a tuner — the data-plane fast path costs the paper
// baseline nothing, not even a map.
func TestAutotuneDefaultPathUntouched(t *testing.T) {
	c := &Client{opts: DefaultOptions()}
	for _, n := range []int{4096, 1 << 20, 32 << 20} {
		wb, wd := c.opts.H2D.resolve(n)
		b, d := c.tunePlan(c.opts.H2D, 1, DirH2D, n, true)
		if b != wb || d != wd {
			t.Errorf("n=%d: default plan (%d,%d), want resolve (%d,%d)", n, b, d, wb, wd)
		}
		c.tuneRecord(c.opts.H2D, 1, DirH2D, b, n, 1000)
	}
	if c.tuner != nil {
		t.Error("default-mode client allocated a tuner")
	}
}
