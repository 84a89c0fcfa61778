// Hetero: capability-aware placement on a mixed accelerator fleet.
// The cluster runs four daemons with different device models — two
// Tesla C1060s, one Fermi-class M2050, and an FPGA card that only
// accepts the magma/blas kernel classes. The compute node asks the ARM
// for one device of each class by capability constraint, shows that an
// impossible constraint fails with the typed arm.ErrNoCapableDevice
// (instead of queueing forever), and factors a matrix distributed over
// the two GPU classes with the classic QR schedule.
package main

import (
	"errors"
	"fmt"
	"log"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

func main() {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 4,
		Fleet:        "tesla-c1060:2,tesla-m2050:1,fpga:1",
		Registry:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		// One device of each class, by capability constraint.
		var all []arm.Handle
		var gpus []accel.Device
		for _, class := range []string{"c1060", "fermi", "fpga"} {
			hs, err := node.ARM.AcquireCapable(p, 1, false, arm.Constraint{Class: class})
			if err != nil {
				log.Fatalf("acquire %s: %v", class, err)
			}
			fmt.Printf("acquired accelerator %d (daemon rank %d): class %s, kernels %v\n",
				hs[0].ID, hs[0].Rank, hs[0].Cap.Class, hs[0].Cap.Kernels)
			all = append(all, hs...)
			if class != "fpga" {
				gpus = append(gpus, accel.Remote(node.Attach(hs[0])))
			}
		}
		defer node.ARM.Release(p, all)

		// A class the fleet does not have fails fast with a typed error —
		// even as a blocking request, since no release can ever satisfy it.
		if _, err := node.ARM.AcquireCapable(p, 1, true, arm.Constraint{Class: "cell"}); errors.Is(err, arm.ErrNoCapableDevice) {
			fmt.Println("asking for a cell-class device: arm.ErrNoCapableDevice (no queueing)")
		} else {
			log.Fatalf("impossible constraint gave %v, want ErrNoCapableDevice", err)
		}

		// One QR over devices of different models (model mode: the cost
		// lands in virtual time, no data moves).
		const n = 2048
		dist, err := magma.NewDist(p, gpus, n, n, magma.DefaultConfig().NB, false)
		if err != nil {
			log.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, nil); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		if err := magma.Dgeqrf(p, dist, nil, magma.DefaultConfig()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("QR (%dx%d) on c1060 + fermi: %.1f ms virtual time\n", n, n, 1e3*p.Now().Sub(start).Seconds())

		// Per-class accounting straight from the ARM's extended stats.
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			log.Fatal(err)
		}
		for _, ac := range st.PerAccel {
			fmt.Printf("ARM: ac%d class=%-6s state=%s grants=%d busy=%.3gs\n",
				ac.ID, ac.Class, ac.State, ac.Grants, ac.BusySeconds)
		}
	})
	if _, err := cl.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("done: capability constraints routed one lease per device class")
}
