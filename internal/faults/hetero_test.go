package faults_test

import (
	"fmt"
	"os"
)

// chaosFleet returns a mixed-model fleet spec covering total
// accelerators when ARM_HETERO=1 (CI sweeps it alongside CHAOS_SEED and
// ARM_SHARDS), and "" — the homogeneous fleet, one empty class —
// otherwise. Only full GPU classes are mixed: the C1060s and Fermis run
// every kernel class, so any device can host any other's resident state
// and the migration scenarios stay valid while placement, gossip and
// replication by class are all exercised under fault injection.
func chaosFleet(total int) string {
	if os.Getenv("ARM_HETERO") != "1" {
		return ""
	}
	fermis := total / 2
	if fermis == 0 {
		return fmt.Sprintf("tesla-m2050:%d", total)
	}
	return fmt.Sprintf("tesla-c1060:%d,tesla-m2050:%d", total-fermis, fermis)
}
