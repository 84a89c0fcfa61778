//go:build !unix

package main

import "time"

// processCPU is unavailable here; the host.cpu_* metrics read 0.
func processCPU() time.Duration { return 0 }
