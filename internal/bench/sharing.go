package bench

// Multi-tenant sharing benchmark: N tenants hold shared leases on one
// accelerator, each driving its own daemon session with a burst of small
// synchronous kernels. The report is the ARM's extended statistics —
// per-accelerator busy/wait integrals, grant counts, and live session
// counts — sampled while every tenant still holds its lease, which is
// exactly what `acbench -arm-json` dumps for the CI artifact.

import (
	"encoding/json"
	"fmt"
	"os"

	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// shareKernelCost is the modelled execution time of each tenant's kernel:
// small, so scheduling fairness rather than compute dominates.
const shareKernelCost = 5 * sim.Microsecond

// TenantShare is one tenant's slice of the sharing run.
type TenantShare struct {
	Rank        int     `json:"rank"`
	Ops         int     `json:"ops"`
	VirtualSecs float64 `json:"virtual_seconds"`
}

// AccelUtil is one accelerator's utilization as reported by the ARM's
// extended stats, plus the busy fraction over the sampled interval.
type AccelUtil struct {
	ID          int     `json:"id"`
	Rank        int     `json:"rank"`
	State       string  `json:"state"`
	Sessions    int     `json:"sessions"`
	Grants      int     `json:"grants"`
	BusySeconds float64 `json:"busy_seconds"`
	WaitSeconds float64 `json:"wait_seconds"`
	Utilization float64 `json:"utilization"`
}

// SharingReport is the `acbench -arm-json` artifact.
type SharingReport struct {
	Tenants       int           `json:"tenants"`
	OpsPerTenant  int           `json:"ops_per_tenant"`
	ShareCapacity int           `json:"share_capacity"`
	Shards        int           `json:"shards"`
	VirtualSecs   float64       `json:"virtual_seconds"`
	SharedAccels  int           `json:"shared_accels"`
	Sessions      int           `json:"sessions"`
	PerTenant     []TenantShare `json:"per_tenant"`
	PerAccel      []AccelUtil   `json:"per_accel"`
}

// MeasureSharing runs `tenants` compute nodes against one accelerator
// with ShareCapacity = tenants, each issuing `ops` small kernels through
// its own session, and samples the ARM's per-accelerator stats at the
// moment the last tenant finishes (before any lease is released).
// shards > 1 runs the ARM as a shard fleet (the single accelerator then
// also exercises cross-shard acquire forwarding, since most shards own
// no inventory).
func MeasureSharing(tenants, ops, shards int) (SharingReport, error) {
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "share.small",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return shareKernelCost },
	})
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  tenants,
		Accelerators:  1,
		Registry:      reg,
		ShareCapacity: tenants,
		ARMShards:     shards,
	})
	if err != nil {
		return SharingReport{}, err
	}
	if shards < 1 {
		shards = 1
	}
	rep := SharingReport{
		Tenants:       tenants,
		OpsPerTenant:  ops,
		ShareCapacity: tenants,
		Shards:        shards,
		PerTenant:     make([]TenantShare, tenants),
	}
	finished := 0
	sampled := sim.NewEvent(cl.Sim)
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, true)
		if err != nil {
			panic(fmt.Sprintf("cn%d acquire: %v", node.Rank, err))
		}
		ac, err := node.AttachSession(p, handles[0])
		if err != nil {
			panic(fmt.Sprintf("cn%d session: %v", node.Rank, err))
		}
		k := ac.KernelCreate("share.small")
		start := p.Now()
		for i := 0; i < ops; i++ {
			if err := k.Run(p, gpu.Dim3{X: 1}, gpu.Dim3{X: 64}); err != nil {
				panic(fmt.Sprintf("cn%d op %d: %v", node.Rank, i, err))
			}
		}
		rep.PerTenant[node.Rank] = TenantShare{
			Rank:        node.Rank,
			Ops:         ops,
			VirtualSecs: p.Now().Sub(start).Seconds(),
		}
		// The last tenant to finish samples the extended stats while every
		// lease is still held; the rest wait so no session closes first.
		finished++
		if finished == tenants {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				panic(fmt.Sprintf("cn%d stats: %v", node.Rank, err))
			}
			elapsed := p.Now().Sub(sim.Time(0)).Seconds()
			rep.VirtualSecs = elapsed
			rep.SharedAccels = st.Shared
			rep.Sessions = st.Sessions
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
			}
			sampled.Trigger()
		} else {
			sampled.Await(p)
		}
		if err := ac.CloseSession(p); err != nil {
			panic(fmt.Sprintf("cn%d close: %v", node.Rank, err))
		}
		if err := node.ARM.Release(p, handles); err != nil {
			panic(fmt.Sprintf("cn%d release: %v", node.Rank, err))
		}
	})
	if _, err := cl.Run(); err != nil {
		return rep, err
	}
	return rep, nil
}

// WriteARMJSON runs MeasureSharing and writes the report to path (the CI
// artifact BENCH_arm.json).
func WriteARMJSON(path string, tenants, ops, shards int) (SharingReport, error) {
	r, err := MeasureSharing(tenants, ops, shards)
	if err != nil {
		return r, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return r, err
	}
	return r, os.WriteFile(path, append(data, '\n'), 0o644)
}
