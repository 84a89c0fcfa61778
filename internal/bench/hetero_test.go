package bench

import (
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// classPlacement is one device class's row of the ARM's extended
// stats: how many devices it has and how many grants they served.
type classPlacement struct{ devices, grants int }

// measureHetero builds the mixed fleet, acquires every device through
// a class constraint and aggregates opStatsEx per class while the
// leases are held.
func measureHetero(t *testing.T) map[string]classPlacement {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 4,
		Fleet:        "tesla-c1060:2,tesla-m2050:1,fpga:1",
		Registry:     gpu.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]classPlacement{}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		var all []arm.Handle
		defer func() { node.ARM.Release(p, all) }()
		for _, want := range []struct {
			class string
			count int
		}{{"c1060", 2}, {"fermi", 1}, {"fpga", 1}} {
			hs, err := node.ARM.AcquireCapable(p, want.count, false, arm.Constraint{Class: want.class})
			if err != nil {
				t.Errorf("acquire %s: %v", want.class, err)
				return
			}
			all = append(all, hs...)
		}
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			t.Errorf("stats: %v", err)
			return
		}
		for _, a := range st.PerAccel {
			c := byClass[a.Class]
			c.devices++
			c.grants += a.Grants
			byClass[a.Class] = c
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return byClass
}

// TestMeasureHeteroRoutesByClass pins capability-aware placement on the
// mixed fleet: constrained acquires succeed for every class, and the
// opStatsEx report carries every fleet class with its device count and
// at least one grant.
func TestMeasureHeteroRoutesByClass(t *testing.T) {
	got := measureHetero(t)
	wantDevs := map[string]int{"c1060": 2, "fermi": 1, "fpga": 1}
	for class, c := range got {
		if c.devices != wantDevs[class] {
			t.Errorf("class %q has %d devices, want %d", class, c.devices, wantDevs[class])
		}
		if c.grants < 1 {
			t.Errorf("class %q saw no grants", class)
		}
		delete(wantDevs, class)
	}
	if len(wantDevs) != 0 {
		t.Errorf("classes missing from report: %v", wantDevs)
	}
}
