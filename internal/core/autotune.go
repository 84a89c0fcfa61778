package core

import (
	"dynacc/internal/sim"
)

// Online transfer autotuning (DESIGN.md §15).
//
// The paper's adaptive protocol freezes the block-size choice at the
// Figs. 5–8 crossover analysis: 128 KiB below 9 MiB, 512 KiB above,
// tuned once for one fabric. CopyConfig{Kind: Autotune} replaces the
// frozen thresholds with a measured model: the client tracks achieved
// bandwidth per (peer link, direction) in an EWMA table keyed by the
// block-size rung a transfer used, plans each new transfer on the
// best-measured rung, and keeps exploring neighboring rungs at a fixed
// cadence so a link whose characteristics change (congestion, fault
// rerouting, degraded fabric) is re-learned within a few transfers.
//
// The tuner is purely client-side policy: the wire protocol still
// carries one concrete (block, depth) per request, so daemons — and
// the default PaperAdaptive path, which never consults the tuner —
// are untouched. Until the first bandwidth sample lands on a link the
// plan is exactly CopyConfig.resolve, i.e. the warm start equals
// PaperAdaptive's choices and the first transfer is never worse than
// the paper's tuned configuration.

// TransferDir distinguishes the directions tracked per peer link: the
// same wire connects a daemon for uploads, downloads and direct
// daemon-to-daemon streams, but the achievable pipeline overlap
// differs per direction, so each gets its own model row.
type TransferDir uint8

// Transfer directions of the link-model table.
const (
	// DirH2D is a host-to-device upload (compute node → daemon).
	DirH2D TransferDir = iota + 1
	// DirD2H is a device-to-host download (daemon → compute node).
	DirD2H
	// DirD2D is a direct daemon-to-daemon transfer; the link is keyed
	// by the destination daemon's rank.
	DirD2D
)

func (d TransferDir) String() string {
	switch d {
	case DirH2D:
		return "h2d"
	case DirD2H:
		return "d2h"
	case DirD2D:
		return "d2d"
	}
	return "dir?"
}

// tuneRungs is the block-size ladder the tuner walks: ×2 steps from
// 32 KiB to 4 MiB, bracketing the paper's 128 KiB/512 KiB choices so
// the warm-start blocks are themselves rungs and their first samples
// land exactly where the model expects them.
var tuneRungs = [...]int{
	32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024,
	512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024,
}

const (
	// tuneAlpha is the EWMA weight of the newest bandwidth sample.
	// 0.5 converges on a step change in link bandwidth within a
	// handful of transfers while still smoothing one-off outliers.
	tuneAlpha = 0.5
	// tuneProbeEvery is the exploration cadence: every tuneProbeEvery-th
	// transfer on a link tries a neighbor of the best-measured rung
	// (alternating up and down) instead of the best itself, so the
	// model never locks onto a stale optimum.
	tuneProbeEvery = 2
	// maxTuneDepth caps the pipeline depth the tuner requests; beyond
	// this, extra staging buffers cost daemon memory without adding
	// network/DMA overlap.
	maxTuneDepth = 8
)

// linkKey identifies one model row: a peer daemon and a direction.
type linkKey struct {
	peer int
	dir  TransferDir
}

// rungStat is the per-rung measurement state of one link.
type rungStat struct {
	// bw is the EWMA of achieved bandwidth at this rung, in bytes per
	// virtual-time unit. Only compared against other rungs of the same
	// link, so the unit cancels.
	bw      float64
	samples int
}

// linkModel is the measured state of one (peer, direction) link.
type linkModel struct {
	rungs [len(tuneRungs)]rungStat
	// samples counts bandwidth samples across all rungs; zero means
	// warm start (resolve exactly as the static config would).
	samples int
	// xfers counts planned transfers, driving the probe cadence.
	xfers int
}

// best returns the index of the measured rung with the highest EWMA
// bandwidth. Only called with samples > 0.
func (m *linkModel) best() int {
	bi, bbw := -1, -1.0
	for i := range m.rungs {
		if m.rungs[i].samples > 0 && m.rungs[i].bw > bbw {
			bi, bbw = i, m.rungs[i].bw
		}
	}
	return bi
}

// tuner is a client's link-model table. Lazily created on the first
// Autotune-planned transfer, so default-mode clients never allocate it.
type tuner struct {
	links map[linkKey]*linkModel
}

func (c *Client) linkFor(peer int, dir TransferDir) *linkModel {
	if c.tuner == nil {
		c.tuner = &tuner{links: make(map[linkKey]*linkModel)}
	}
	k := linkKey{peer: peer, dir: dir}
	m := c.tuner.links[k]
	if m == nil {
		m = &linkModel{}
		c.tuner.links[k] = m
	}
	return m
}

// rungFor maps a block size to the nearest ladder rung (ties go down).
func rungFor(block int) int {
	bi, bd := 0, -1
	for i, r := range tuneRungs {
		d := r - block
		if d < 0 {
			d = -d
		}
		if bd < 0 || d < bd {
			bi, bd = i, d
		}
	}
	return bi
}

// tunePlan returns the concrete (block, depth) for an n-byte transfer
// to/from peer. Non-Autotune configurations resolve statically —
// bit-for-bit the pre-tuner behavior. Autotune resolves statically too
// until the link has a bandwidth sample (the warm start), then plans
// on the best-measured rung, probing a neighboring rung every
// tuneProbeEvery-th transfer. The cadence advances for a transfer that is
// starting; otherwise this is a look at what the tuner would pick right now.
func (c *Client) tunePlan(cfg CopyConfig, peer int, dir TransferDir, n int, starting bool) (block, depth int) {
	if cfg.Kind != Autotune {
		return cfg.resolve(n)
	}
	m := c.linkFor(peer, dir)
	if starting {
		m.xfers++
	}
	if m.samples == 0 {
		return cfg.resolve(n)
	}
	idx := m.best()
	if starting && m.xfers%tuneProbeEvery == 0 {
		// Exploration turn: alternate probing one rung above and one
		// below the current best (clamped to the ladder), so both a
		// faster and a slower optimum are rediscovered after a change.
		if (m.xfers/tuneProbeEvery)%2 == 0 {
			if idx+1 < len(tuneRungs) {
				idx++
			}
		} else if idx > 0 {
			idx--
		}
	}
	return rungPlan(idx, n)
}

// rungPlan is the plan on ladder rung idx: its block size, clamped to the
// transfer, and a depth that adapts with it — enough staging buffers to
// keep the pipeline full, but never more buffers than blocks.
func rungPlan(idx, n int) (block, depth int) {
	block = tuneRungs[idx]
	if block > n || block <= 0 {
		block = n
	}
	return block, min(max(numBlocks(n, block), 1), maxTuneDepth)
}

// protocol is the configured copy protocol of a direction (DirD2D uses the
// D2H protocol, like CopyD2D does).
func (c *Client) protocol(dir TransferDir) CopyConfig {
	if dir == DirH2D {
		return c.opts.H2D
	}
	return c.opts.D2H
}

// tuneRecord feeds one completed transfer back into the link model:
// n payload bytes moved in elapsed virtual time using the given block
// size. No-op for non-Autotune configurations and degenerate samples.
func (c *Client) tuneRecord(cfg CopyConfig, peer int, dir TransferDir, block, n int, elapsed sim.Duration) {
	if cfg.Kind != Autotune || n <= 0 || block <= 0 || elapsed <= 0 {
		return
	}
	m := c.linkFor(peer, dir)
	bw := float64(n) / float64(elapsed)
	st := &m.rungs[rungFor(block)]
	if st.samples == 0 {
		st.bw = bw
	} else {
		st.bw = tuneAlpha*bw + (1-tuneAlpha)*st.bw
	}
	st.samples++
	m.samples++
}

// AutotunePlan reports the (block, depth) the tuner would pick right
// now for an n-byte transfer on the given link, without advancing the
// probe cadence: the read-only observability hook tests and benchmarks
// use to watch convergence.
func (c *Client) AutotunePlan(peer int, dir TransferDir, n int) (block, depth int) {
	return c.tunePlan(c.protocol(dir), peer, dir, n, false)
}
