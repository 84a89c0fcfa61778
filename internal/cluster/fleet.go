package cluster

// fleet.go describes heterogeneous accelerator fleets: a per-accelerator
// device-model assignment (Config.Fleet) resolved against the gpu
// package's model registry. When a fleet
// is configured, every ARM inventory handle is tagged with the device's
// capability descriptor, so placement, migration, and gossip become
// capability-aware. A homogeneous cluster's handles stay untagged: one
// class with the empty name.

import (
	"fmt"
	"strconv"
	"strings"

	"dynacc/internal/arm"
	"dynacc/internal/gpu"
)

// ParseFleet resolves a fleet spec onto a per-accelerator model list.
// The spec is a comma-separated list of "model:count" groups resolved in
// order against the gpu model registry, with the count defaulting to 1:
//
//	tesla-c1060:2,tesla-m2050:1,fpga:1
//
// assigns accelerator ids 0-1 the C1060 model, id 2 the M2050, id 3 the
// FPGA card. When want >= 0 the models must cover exactly that many
// accelerators (regular + spare).
func ParseFleet(spec string, want int) ([]gpu.Model, error) {
	var models []gpu.Model
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, count := part, 1
		if n, c, ok := strings.Cut(part, ":"); ok {
			name = strings.TrimSpace(n)
			v, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("cluster: fleet %q: bad count in %q", spec, part)
			}
			count = v
		}
		m, ok := gpu.LookupModel(name)
		if !ok {
			return nil, fmt.Errorf("cluster: fleet %q: unknown device model %q (registered: %s)",
				spec, name, strings.Join(gpu.ModelNames(), ", "))
		}
		for i := 0; i < count; i++ {
			models = append(models, m)
		}
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet spec %q", spec)
	}
	if want >= 0 && len(models) != want {
		return nil, fmt.Errorf("cluster: fleet %q describes %d accelerators, cluster has %d",
			spec, len(models), want)
	}
	return models, nil
}

// armCapOf projects a device model onto the ARM's wire-level capability:
// the class for placement grouping plus the supported kernel classes for
// migration compatibility. The performance fields stay out — the ARM
// places by class, it does not cost kernels.
func armCapOf(m gpu.Model) arm.Capability {
	return arm.Capability{Class: m.Class, Kernels: append([]string(nil), m.KernelClasses...)}
}

// modelFor returns accelerator i's device model.
func (env *buildEnv) modelFor(i int) gpu.Model {
	if len(env.models) > 0 {
		return env.models[i]
	}
	return env.model
}

// inventoryHandle builds accelerator id's ARM handle, capability-tagged
// on heterogeneous fleets and untagged otherwise.
func (env *buildEnv) inventoryHandle(computeNodes, id int) arm.Handle {
	h := arm.Handle{ID: id, Rank: computeNodes + id}
	if len(env.models) > 0 {
		h.Cap = armCapOf(env.modelFor(id))
	}
	return h
}
