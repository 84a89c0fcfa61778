package bench

// Data-plane fast-path benchmark (pinned by TestDataplaneReport):
// measures the two direct transports DESIGN.md §15 describes against
// their paper-faithful host-staged baselines, on the same modeled QDR
// fabric the figures use.
//
//   - Panel broadcast: one QR-panel-sized buffer fanned out to G
//     accelerator workspaces, classic per-device host upload loop vs the
//     binomial-tree daemon-to-daemon fan-out (magma.BroadcastPanel).
//     The host loop serializes G transfers on the compute node's NIC;
//     the tree pays one upload plus O(log G) link-serialized rounds.
//
//   - Redistribution: a running distribution grown onto a larger device
//     set, measured as total wire bytes. The "unchanged" scenario grows
//     a 2-block matrix from 2 onto 4 devices — every block keeps its
//     owner, so the overlap-aware Redistribute moves zero payload bytes
//     (the wire carries only alloc/free/copy headers) where the legacy
//     staged path round-trips the whole matrix through the host. The
//     "mixed" scenario (8 blocks, half change owner) additionally
//     compares host staging against the direct daemon-to-daemon path.

import (
	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// BroadcastResult compares the two panel-broadcast strategies at one
// fleet size.
type BroadcastResult struct {
	GPUs       int
	PanelBytes int
	HostSecs   float64
	TreeSecs   float64
	Speedup    float64
	// Host NIC bytes sent by the compute node under each strategy: the
	// loop uploads the panel G times, the tree once (plus the headers
	// of the daemon-to-daemon hops it orchestrates).
	HostLoopNICBytes int64
	TreeNICBytes     int64
}

// RedistResult measures one grow scenario under the redistribution
// strategies (wire bytes summed over every endpoint's sends).
type RedistResult struct {
	Scenario   string
	FromGPUs   int
	ToGPUs     int
	Blocks     int
	Unchanged  int
	BlockBytes int64
	// Wire bytes of each strategy. Staged is the full host round trip
	// (download, free, re-allocate, upload); Default is
	// Dist.Redistribute (unchanged owners copy device-locally,
	// header-only on the wire); Direct is Redistribute with direct set,
	// which additionally moves changed-owner blocks daemon-to-daemon.
	StagedWireBytes  int64
	DefaultWireBytes int64
	DirectWireBytes  int64
	// UnchangedPayloadBytes is the payload the default path moved for
	// unchanged-owner blocks. In the all-unchanged scenario any payload
	// would be at least one block; wire traffic below that is header
	// traffic only, reported as zero. Pinned by TestDataplaneReport.
	UnchangedPayloadBytes int64
}

// DataplaneReport is the full data-plane comparison.
type DataplaneReport struct {
	Broadcast []BroadcastResult
	Redist    []RedistResult
}

// dataplaneFleet builds a cluster with nAC network-attached
// accelerators and runs body with the attached devices. The cluster is
// passed into body so it can snapshot traffic counters mid-run.
func dataplaneFleet(nAC int, body func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device)) {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: nAC,
		Registry:     reg,
	})
	if err != nil {
		panic(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, nAC, false)
		if err != nil {
			panic(err)
		}
		defer node.ARM.Release(p, handles)
		devs := make([]accel.Device, nAC)
		for i, h := range handles {
			devs[i] = accel.Remote(node.Attach(h))
		}
		body(p, cl, node, devs)
	})
	if _, err := cl.Run(); err != nil {
		panic(err)
	}
}

// wireBytesSent sums BytesSent over every world rank: the total payload
// plus headers posted onto the fabric so far, regardless of which link.
func wireBytesSent(cl *cluster.Cluster) int64 {
	var total int64
	for r := 0; r < cl.World.Size(); r++ {
		total += cl.World.Traffic(r).BytesSent
	}
	return total
}

// MeasureBroadcast times the panel fan-out to gpus devices for one
// panelBytes-sized panel, host loop vs tree.
func MeasureBroadcast(gpus, panelBytes int) BroadcastResult {
	res := BroadcastResult{GPUs: gpus, PanelBytes: panelBytes}
	run := func(tree bool) (sim.Duration, int64) {
		var elapsed sim.Duration
		var nic int64
		dataplaneFleet(gpus, func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device) {
			dV := make([]gpu.Ptr, gpus)
			for g, dev := range devs {
				ptr, err := dev.MemAlloc(p, panelBytes)
				if err != nil {
					panic(err)
				}
				dV[g] = ptr
			}
			before := node.World.WireStats().Bytes
			start := p.Now()
			if err := magma.BroadcastPanel(p, devs, 0, dV, nil, panelBytes, tree); err != nil {
				panic(err)
			}
			elapsed = p.Now().Sub(start)
			nic = node.World.WireStats().Bytes - before
			for g, dev := range devs {
				_ = dev.MemFree(p, dV[g])
			}
		})
		return elapsed, nic
	}
	host, hostNIC := run(false)
	tree, treeNIC := run(true)
	res.HostSecs = host.Seconds()
	res.TreeSecs = tree.Seconds()
	res.HostLoopNICBytes = hostNIC
	res.TreeNICBytes = treeNIC
	if tree > 0 {
		res.Speedup = host.Seconds() / tree.Seconds()
	}
	return res
}

// MeasureRedistribute grows an m×n/nb distribution from the first
// fromGPUs devices onto toGPUs devices under each strategy and reports
// the wire bytes each one cost.
func MeasureRedistribute(scenario string, fromGPUs, toGPUs, m, n, nb int) RedistResult {
	blocks := (n + nb - 1) / nb
	res := RedistResult{
		Scenario: scenario,
		FromGPUs: fromGPUs, ToGPUs: toGPUs,
		Blocks:     blocks,
		BlockBytes: 8 * int64(m) * int64(n),
	}
	for b := 0; b < blocks; b++ {
		if b%fromGPUs == b%toGPUs {
			res.Unchanged++
		}
	}
	run := func(redist func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error) int64 {
		var wire int64
		dataplaneFleet(toGPUs, func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device) {
			dist, err := magma.NewDist(p, devs[:fromGPUs], m, n, nb, false)
			if err != nil {
				panic(err)
			}
			if err := dist.Upload(p, nil); err != nil {
				panic(err)
			}
			before := wireBytesSent(cl)
			if err := redist(dist, p, devs); err != nil {
				panic(err)
			}
			wire = wireBytesSent(cl) - before
			dist.Free(p)
		})
		return wire
	}
	res.StagedWireBytes = run(func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error {
		if err := d.Download(p, nil); err != nil {
			return err
		}
		d.Free(p)
		nd, err := magma.NewDist(p, devs, m, n, nb, false)
		if err != nil {
			return err
		}
		*d = *nd
		return d.Upload(p, nil)
	})
	res.DefaultWireBytes = run(func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error {
		return d.Redistribute(p, devs, false)
	})
	res.DirectWireBytes = run(func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error {
		return d.Redistribute(p, devs, true)
	})
	if res.Unchanged == blocks {
		perBlock := res.BlockBytes / int64(blocks)
		if res.DefaultWireBytes < perBlock {
			res.UnchangedPayloadBytes = 0
		} else {
			res.UnchangedPayloadBytes = res.DefaultWireBytes
		}
	}
	return res
}

// MeasureDataplane runs the full data-plane comparison.
func MeasureDataplane() DataplaneReport {
	const panel = 4096 * 128 * 8 // one 4096×128 f64 QR panel
	return DataplaneReport{
		Broadcast: []BroadcastResult{
			MeasureBroadcast(8, panel),
			MeasureBroadcast(16, panel),
		},
		Redist: []RedistResult{
			// All owners unchanged: 2 blocks over 2 GPUs grown to 4 —
			// block b's owner is b%2 before and b%4 after, identical for
			// b in {0,1}. The default path must move zero payload.
			MeasureRedistribute("unchanged", 2, 4, 2048, 2*128, 128),
			// Half the owners change: 8 blocks grown 2 -> 4.
			MeasureRedistribute("mixed", 2, 4, 2048, 8*128, 128),
		},
	}
}
