package magma

import (
	"errors"

	"dynacc/internal/accel"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// Tree panel broadcast (Dgeqrf's Config.Direct route, DESIGN.md §15).
//
// The classic QR broadcast uploads the factored panel from the host to
// every GPU's workspace: G transfers that all serialize on the compute
// node's NIC, so the broadcast costs O(G) panel times. The tree fan-out
// uploads the panel once — to the owner's workspace — and moves the
// remaining G-1 copies accelerator-to-accelerator along the binomial
// tree minimpi.BcastTree describes: every device that holds the panel
// forwards it to its subtree concurrently with the other parents.
//
// The panel is additionally cut into segments that pipeline down the
// tree: a device forwards segment s the moment it arrives, instead of
// waiting for the whole panel, so successive tree levels overlap and
// the makespan collapses to the root's own transmit work — about
// ceil(log2 G) panel times — plus one segment per level. Without the
// pipelining a depth-d leaf waits d full panel times after the seed.
//
// The fan-out is client-orchestrated (daemons are request-driven: each
// edge is one accel.CopyD2D per segment the front-end issues),
// and degrades per destination: a child with no peer path — or whose
// parent's own copy failed — receives the whole panel from the host
// instead, the panel being host-resident throughout. Any transfer error
// surfaces on the returned Pending; the broadcast never papers over a
// dead daemon.

// treeSegTarget is the segment size the panel is cut into for
// pipelining; treeMaxSegs bounds the per-edge request overhead.
// treeRecvStream/treeSendStream are the daemon streams a device
// receives and forwards panel segments on: distinct streams make the
// two overlap (accel.CopyD2D), which is what lets segment s+1
// arrive while segment s is already being forwarded down the tree.
const (
	treeSegTarget  = 1 << 20
	treeMaxSegs    = 8
	treeRecvStream = 1
	treeSendStream = 2
)

// treeSegs returns the pipeline segment count for an nbytes panel.
func treeSegs(nbytes int) int {
	s := (nbytes + treeSegTarget - 1) / treeSegTarget
	if s < 1 {
		s = 1
	}
	if s > treeMaxSegs {
		s = treeMaxSegs
	}
	return s
}

// BroadcastPanel fans one host-resident panel of nbytes (host copy
// panelBytes — nil in model mode) into every device's workspace dV.
// tree=false is the classic broadcast: one CopyH2DAsync per device, all
// serialized on the compute node's NIC. tree=true uploads the panel to
// dV[owner] once and fans the remaining copies out over the segmented
// binomial tree. This is the primitive Dgeqrf's broadcast step uses
// (Config.Direct); it is exported so the data-plane benchmark
// and tests can compare the two strategies in isolation.
func BroadcastPanel(p *sim.Proc, devs []Device, owner int, dV []gpu.Ptr, panelBytes []byte, nbytes int, tree bool) error {
	if !tree || len(devs) < 2 {
		var pends []Pending
		for g, dev := range devs {
			pends = append(pends, dev.CopyH2DAsync(dV[g], 0, panelBytes, nbytes, 0))
		}
		return waitAllPending(p, pends)
	}
	d := &Dist{Devs: devs}
	return d.treeBroadcastV(p, owner, nbytes, dV, panelBytes).Wait(p)
}

// treeReport is one completion report of the fan-out: the seed upload
// or one child delivery.
type treeReport struct{ err error }

// treePending aggregates the fan-out's completion reports.
type treePending struct {
	mbox *sim.Mailbox
	n    int // reports still outstanding
	err  error
}

func (tp *treePending) Wait(p *sim.Proc) error {
	for tp.n > 0 {
		rep := tp.mbox.Recv(p).(treeReport)
		tp.n--
		if rep.err != nil && tp.err == nil {
			tp.err = rep.err
		}
	}
	return tp.err
}

// treeBroadcastV fans the panel (nbytes, host copy panelBytes — nil in
// model mode) into every device's dV over the segment-pipelined
// binomial tree rooted at the owner, issuing the seed upload itself.
// The returned Pending completes when every device has its copy (or
// the first failure has been recorded).
func (d *Dist) treeBroadcastV(p *sim.Proc, owner, nbytes int, dV []gpu.Ptr, panelBytes []byte) Pending {
	G := len(d.Devs)
	S := treeSegs(nbytes)
	segSz := (nbytes + S - 1) / S
	segLo := func(s int) int { return s * segSz }
	segHi := func(s int) int { return minInt((s+1)*segSz, nbytes) }

	// G reports: the seed upload plus one delivery per non-owner device.
	tp := &treePending{mbox: sim.NewMailbox(p.Sim(), "qr-treebcast"), n: G}

	// have[g][s] fires once device g holds segment s (delivered by its
	// parent, or by the whole-panel host fallback). bad[g] marks a device
	// whose copy is unusable as a forwarding source; it is always set
	// before the corresponding have events fire, so a child's serving
	// process observes it in time.
	have := make([][]*sim.Event, G)
	for g := range have {
		have[g] = make([]*sim.Event, S)
		for s := range have[g] {
			have[g][s] = sim.NewEvent(p.Sim())
		}
	}
	bad := make([]bool, G)

	hostServe := func(hp *sim.Proc, cg int) error {
		return d.Devs[cg].CopyH2DAsync(dV[cg], 0, panelBytes, nbytes, 0).Wait(hp)
	}
	markHave := func(g int) {
		for s := 0; s < S; s++ {
			if !have[g][s].Triggered() {
				have[g][s].Trigger()
			}
		}
	}

	// One serving process per parent: its children are fed strictly in
	// BcastTree order (largest subtree first — the binomial schedule),
	// each segment forwarded as soon as the parent holds it, so a
	// child's own serving process is already streaming onward while this
	// parent moves to its next child.
	//
	// Host assist: once the seed is up, the compute node's NIC is idle
	// for the rest of the fan-out, so the host serves the root's
	// smallest child (virtual rank 1, always a leaf) itself — that
	// trims one full panel off the root's transmit work, the fan-out's
	// critical path.
	for v := 0; v < G; v++ {
		_, children := minimpi.BcastTree(G, v)
		if len(children) == 0 {
			continue
		}
		v, children := v, children
		g := (v + owner) % G
		if v == 0 {
			last := children[len(children)-1]
			children = children[:len(children)-1]
			cg := (last + owner) % G
			p.Spawn("qr-treebcast-hostassist", func(hp *sim.Proc) {
				err := hostServe(hp, cg)
				if err != nil {
					bad[cg] = true
				}
				markHave(cg)
				tp.mbox.Send(treeReport{err: err})
			})
			if len(children) == 0 {
				continue
			}
		}
		p.Spawn("qr-treebcast-fan", func(hp *sim.Proc) {
			for _, cv := range children {
				cg := (cv + owner) % G
				var childErr error
				peerOK := true
				for s := 0; s < S && peerOK; s++ {
					have[g][s].Await(hp)
					if bad[g] {
						peerOK = false
						break
					}
					lo, hi := segLo(s), segHi(s)
					err := accel.CopyD2D(hp, d.Devs[g], dV[g], accel.Window{Off: lo, ColBytes: hi - lo, Cols: 1, Pitch: hi - lo},
						d.Devs[cg], dV[cg], lo, treeSendStream, treeRecvStream)
					if err == nil {
						have[cg][s].Trigger()
						continue
					}
					peerOK = false
					if !errors.Is(err, core.ErrNoPeerPath) {
						// A real transfer failure (daemon died mid-tree):
						// remember it, then try the host route so the
						// subtree is still served if only this hop broke.
						childErr = err
					}
				}
				if !peerOK {
					// No peer path, a failed hop, or a degraded source:
					// the panel is host-resident, upload it whole.
					if err := hostServe(hp, cg); err != nil {
						childErr = err
						bad[cg] = true
					} else {
						childErr = nil
					}
				}
				if childErr != nil {
					bad[cg] = true
				}
				markHave(cg)
				tp.mbox.Send(treeReport{err: childErr})
			}
		})
	}

	// Seed: the owner's copy arrives from the host segment by segment on
	// the receive stream, releasing the fan-out as each lands.
	p.Spawn("qr-treebcast-seed", func(hp *sim.Proc) {
		var seedErr error
		for s := 0; s < S; s++ {
			lo, hi := segLo(s), segHi(s)
			seg := panelBytes // nil in model mode
			if seg != nil {
				seg = seg[lo:hi]
			}
			if err := d.Devs[owner].CopyH2DAsync(dV[owner], lo, seg, hi-lo, treeRecvStream).Wait(hp); err != nil {
				seedErr = err
				bad[owner] = true
				break
			}
			have[owner][s].Trigger()
		}
		markHave(owner)
		tp.mbox.Send(treeReport{err: seedErr})
	})
	return tp
}
