package gpu

// capability.go makes the device model a described, registrable family
// instead of a single hard-coded part: every Model carries a Capability
// descriptor (device class, peak rates, memory, launch/reconfiguration
// costs, supported kernel classes) that the resource manager and the
// hybrid drivers use for capability-aware placement, and a package-level
// registry maps model names to constructors so mixed fleets can be
// described by name ("tesla-c1060:2,tesla-m2050:1,fpga:1").

import (
	"sort"
	"strings"
	"sync"

	"dynacc/internal/sim"
)

// Capability is the placement-relevant summary of a device model: what
// the scheduler needs to match work to hardware without dragging the
// whole performance model across the wire.
type Capability struct {
	// Class names the device family ("c1060", "fermi", "fpga"). Devices
	// of one class are interchangeable for placement and migration.
	Class string
	// PeakDP and PeakSP are the double/single-precision peaks in flop/s.
	PeakDP float64
	PeakSP float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// LaunchOverhead is the fixed cost of one kernel launch;
	// ReconfigLatency is the one-time cost of switching kernel classes
	// (zero for GPUs, large for FPGA-style devices).
	LaunchOverhead  sim.Duration
	ReconfigLatency sim.Duration
	// KernelClasses lists the kernel classes the device can run; empty
	// means it runs everything (a general-purpose GPU).
	KernelClasses []string
}

// KernelClass derives the class of a kernel from its registered name:
// the prefix before the first dot ("magma.dlarfb" → "magma"), or the
// whole name for undotted kernels.
func KernelClass(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Supports reports whether the capability covers the given kernel class.
// An empty KernelClasses list means the device runs everything.
func (c Capability) Supports(kernelClass string) bool {
	if len(c.KernelClasses) == 0 {
		return true
	}
	for _, k := range c.KernelClasses {
		if k == kernelClass {
			return true
		}
	}
	return false
}

// Capability summarizes the model's placement descriptor.
func (m Model) Capability() Capability {
	return Capability{
		Class:           m.Class,
		PeakDP:          m.PeakDP,
		PeakSP:          m.PeakSP,
		MemBytes:        m.MemBytes,
		LaunchOverhead:  m.LaunchOverhead,
		ReconfigLatency: m.ReconfigLatency,
		KernelClasses:   m.KernelClasses,
	}
}

// KernelEff resolves the efficiency a kernel cost model should use: a
// model with a fixed (deterministic) efficiency — the FPGA-style device,
// whose pipelined datapath runs every kernel at its synthesized rate —
// overrides the size-dependent default the cost model derived.
func (m Model) KernelEff(def float64) float64 {
	if m.FixedEff > 0 {
		return m.FixedEff
	}
	return def
}

// ---- Model registry ----

var (
	modelsMu sync.RWMutex
	models   = map[string]func() Model{}
)

// RegisterModel adds a model constructor to the package registry under
// the model's Name, replacing any previous registration.
func RegisterModel(fn func() Model) {
	name := fn().Name
	modelsMu.Lock()
	defer modelsMu.Unlock()
	models[name] = fn
}

// LookupModel returns a fresh instance of the named model.
func LookupModel(name string) (Model, bool) {
	modelsMu.RLock()
	fn, ok := models[name]
	modelsMu.RUnlock()
	if !ok {
		return Model{}, false
	}
	return fn(), true
}

// ModelNames lists the registered model names, sorted.
func ModelNames() []string {
	modelsMu.RLock()
	defer modelsMu.RUnlock()
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterModel(TeslaC1060)
	RegisterModel(TeslaM2050)
	RegisterModel(FPGA)
}

// TeslaM2050 models the Fermi-generation NVIDIA Tesla M2050: 3 GiB
// GDDR5 with ECC on (the ECC tax costs ~12.5% of capacity and a similar
// share of sustained bandwidth), ~515 GFlop/s double precision, and a
// concurrent-kernel dispatch front-end that cuts the host-side
// submission share of the launch overhead roughly in half relative to
// the GT200-class C1060.
func TeslaM2050() Model {
	return Model{
		Name:           "tesla-m2050",
		Class:          "fermi",
		MemBytes:       3 * gib * 7 / 8, // ECC steals 1/8 of the 3 GiB
		H2DPinned:      CopyModel{Overhead: 8 * sim.Microsecond, Bandwidth: 5900 * mib},
		H2DPageable:    CopyModel{Overhead: 10 * sim.Microsecond, Bandwidth: 4900 * mib},
		D2HPinned:      CopyModel{Overhead: 8 * sim.Microsecond, Bandwidth: 5820 * mib},
		D2HPageable:    CopyModel{Overhead: 10 * sim.Microsecond, Bandwidth: 4780 * mib},
		AsyncSetup:     3 * sim.Microsecond,
		PeakDP:         515e9,
		PeakSP:         1030e9,
		MemBandwidth:   118e9, // 148 GB/s raw, ECC-taxed
		LaunchOverhead: 5 * sim.Microsecond,
		SubmitOverhead: 3 * sim.Microsecond,
		MallocOverhead: 10 * sim.Microsecond,
	}
}

// FPGA models an FPGA accelerator card in the UltraShare mold: modest
// peak rates but fully deterministic kernel timing (the synthesized
// datapath runs at its pipelined rate regardless of problem shape, so
// FixedEff pins every kernel cost model to 1.0 of peak), negligible
// launch overhead once a bitstream is resident, and a large one-time
// reconfiguration latency charged on the first launch of each new
// kernel class. Only the dense linear-algebra kernel classes have
// synthesized bitstreams; anything else fails to launch.
func FPGA() Model {
	return Model{
		Name:            "fpga",
		Class:           "fpga",
		MemBytes:        4 * gib, // DDR3 on-card
		H2DPinned:       CopyModel{Overhead: 12 * sim.Microsecond, Bandwidth: 3200 * mib},
		H2DPageable:     CopyModel{Overhead: 14 * sim.Microsecond, Bandwidth: 2600 * mib},
		D2HPinned:       CopyModel{Overhead: 12 * sim.Microsecond, Bandwidth: 3100 * mib},
		D2HPageable:     CopyModel{Overhead: 14 * sim.Microsecond, Bandwidth: 2500 * mib},
		AsyncSetup:      3 * sim.Microsecond,
		PeakDP:          64e9,
		PeakSP:          128e9,
		MemBandwidth:    34e9,
		LaunchOverhead:  2 * sim.Microsecond,
		SubmitOverhead:  1 * sim.Microsecond,
		MallocOverhead:  10 * sim.Microsecond,
		FixedEff:        1.0,
		ReconfigLatency: 150 * sim.Millisecond,
		KernelClasses:   []string{"magma", "blas"},
	}
}
