package bench

// Heterogeneous-fleet benchmark (`acbench -hetero-json`): a mixed
// C1060 + Fermi + FPGA fleet factors one QR twice — first with the
// classic homogeneous schedule on the high-FLOP update devices, then
// with the panel role split onto the fast-launch FPGA
// (magma.Config.Heterogeneous) — and samples the ARM's extended stats
// while every lease is held, so the report carries the per-class
// utilization table straight from opStatsEx.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// ClassUtil aggregates the ARM's per-accelerator stats over one device
// class.
type ClassUtil struct {
	Class       string  `json:"class"`
	Devices     int     `json:"devices"`
	Grants      int     `json:"grants"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// HeteroReport is the `acbench -hetero-json` artifact.
type HeteroReport struct {
	Fleet      string `json:"fleet"`
	N          int    `json:"n"`
	NB         int    `json:"nb"`
	PanelClass string `json:"panel_class"`
	// ClassicSecs and HeteroSecs are the virtual times of the same QR
	// under the homogeneous schedule and the split-role schedule.
	ClassicSecs float64     `json:"classic_seconds"`
	HeteroSecs  float64     `json:"hetero_seconds"`
	Speedup     float64     `json:"speedup"`
	Notes       []string    `json:"notes,omitempty"`
	PerClass    []ClassUtil `json:"per_class"`
	PerAccel    []AccelUtil `json:"per_accel"`
}

// MeasureHetero runs the mixed-fleet QR comparison for an n×n matrix
// with panel width nb.
func MeasureHetero(n, nb int) (HeteroReport, error) {
	const fleet = "tesla-c1060:2,tesla-m2050:1,fpga:1"
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 4,
		Fleet:        fleet,
		Registry:     reg,
	})
	if err != nil {
		return HeteroReport{}, err
	}
	rep := HeteroReport{Fleet: fleet, N: n, NB: nb}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		var all []arm.Handle
		var update []accel.Device
		for _, class := range []struct {
			name  string
			count int
		}{{"c1060", 2}, {"fermi", 1}} {
			hs, err := node.ARM.AcquireCapable(p, class.count, false, arm.Constraint{Class: class.name})
			if err != nil {
				panic(fmt.Sprintf("acquire %s: %v", class.name, err))
			}
			all = append(all, hs...)
			for _, h := range hs {
				update = append(update, accel.Remote(node.Attach(h)))
			}
		}
		hs, err := node.ARM.AcquireCapable(p, 1, false, arm.Constraint{Class: "fpga"})
		if err != nil {
			panic(fmt.Sprintf("acquire fpga: %v", err))
		}
		all = append(all, hs...)
		defer node.ARM.Release(p, all)
		panel := accel.Remote(node.Attach(hs[0]))
		if c, ok := accel.CapabilityOf(panel); ok {
			rep.PanelClass = c.Class
		}

		run := func(hetero bool) sim.Duration {
			dist, err := magma.NewDist(p, update, n, n, nb, false)
			if err != nil {
				panic(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, nil); err != nil {
				panic(err)
			}
			cfg := magma.DefaultConfig()
			cfg.NB = nb
			if hetero {
				cfg.Heterogeneous = true
				cfg.PanelDevice = panel
			}
			start := p.Now()
			if err := magma.Dgeqrf(p, dist, nil, cfg); err != nil {
				panic(err)
			}
			return p.Now().Sub(start)
		}
		classic := run(false)
		het := run(true)
		rep.ClassicSecs = classic.Seconds()
		rep.HeteroSecs = het.Seconds()
		if het > 0 {
			rep.Speedup = classic.Seconds() / het.Seconds()
		}

		// Per-class utilization from the ARM's extended stats, sampled
		// while every lease is held.
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			panic(fmt.Sprintf("stats: %v", err))
		}
		elapsed := p.Now().Sub(sim.Time(0)).Seconds()
		byClass := map[string]*ClassUtil{}
		for _, a := range st.PerAccel {
			util := 0.0
			if elapsed > 0 {
				util = a.BusySeconds / elapsed
			}
			rep.PerAccel = append(rep.PerAccel, AccelUtil{
				ID:          a.ID,
				Rank:        a.Rank,
				State:       a.State,
				Sessions:    a.Sessions,
				Grants:      a.Grants,
				BusySeconds: a.BusySeconds,
				WaitSeconds: a.WaitSeconds,
				Utilization: util,
			})
			cu := byClass[a.Class]
			if cu == nil {
				cu = &ClassUtil{Class: a.Class}
				byClass[a.Class] = cu
			}
			cu.Devices++
			cu.Grants += a.Grants
			cu.BusySeconds += a.BusySeconds
		}
		for _, cu := range byClass {
			if elapsed > 0 && cu.Devices > 0 {
				cu.Utilization = cu.BusySeconds / (elapsed * float64(cu.Devices))
			}
			rep.PerClass = append(rep.PerClass, *cu)
		}
		sort.Slice(rep.PerClass, func(i, j int) bool { return rep.PerClass[i].Class < rep.PerClass[j].Class })
		rep.Notes = []string{
			"QR is bandwidth-sensitive (paper Figure 9): the split adds one AC-to-AC",
			"block hop per panel plus the FPGA's one-time reconfiguration, so it",
			"trails classic at small N and converges to parity at paper-scale N.",
		}
	})
	if _, err := cl.Run(); err != nil {
		return rep, err
	}
	return rep, nil
}

// WriteHeteroJSON runs MeasureHetero and writes the report to path (the
// CI artifact BENCH_hetero.json).
func WriteHeteroJSON(path string, n, nb int) (HeteroReport, error) {
	r, err := MeasureHetero(n, nb)
	if err != nil {
		return r, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return r, err
	}
	return r, os.WriteFile(path, append(data, '\n'), 0o644)
}
