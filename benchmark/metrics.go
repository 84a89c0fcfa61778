package main

import "strings"

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repo root lists the same names; TestBenchmarkJSONMatchesCatalog keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // end-to-end only: share of the baseline median it may worsen
	// everywhere marks the end-to-end metrics every workload reports: the
	// ones BENCHMARK.json can list, because the driver that reads it wants
	// every listed metric, never 0, from every workload. The others are
	// reported by the workloads named in on: in the table, on the record
	// line of standard output, in -out files and by -compare.
	everywhere bool
	on         string // space-separated workloads; empty = all
}

// exact reports whether the metric must repeat bit for bit: virtual-time
// results and wire counts of the deterministic simulator.
func (m metricDef) exact() bool {
	return strings.HasPrefix(m.name, "virt_") || strings.HasPrefix(m.name, "minimpi.wire_")
}

func (m metricDef) reportedBy(workload string) bool {
	if m.on == "" {
		return true
	}
	for _, w := range strings.Fields(m.on) {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	wlSimQR      = "sim_qr"
	wlSimFleet   = "sim_fleet"
	wlSockSoak   = "sock_soak"
	wlSockStream = "sock_stream"
)

var workloadNames = []string{wlSimQR, wlSimFleet, wlSockSoak, wlSockStream}

// endToEnd is what a user of the system sees. "virt" metrics are simulated
// time, "host" metrics and everything on the socket workloads are wall
// time on this machine; the two are never mixed in one number.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, everywhere: true},
	{name: "host_ms_per_run", unit: "ms", bound: wallBound, everywhere: true},
	{name: "host_allocs_per_run", unit: "count", bound: 0.05, everywhere: true},
	{name: "rounds_per_s", unit: "1/s", higher: true, bound: wallBound, everywhere: true},
	{name: "op_fail_ratio", unit: "ratio", bound: 0},
	{name: "virt_gflops", unit: "GFlop/s", higher: true, bound: 0.001, on: wlSimQR},
	{name: "virt_speedup_vs_local", unit: "x", higher: true, bound: 0.001, on: wlSimQR},
	{name: "virt_ops_per_s", unit: "1/s", higher: true, bound: 0.001, on: wlSimFleet},
	{name: "virt_ops_per_s_ha", unit: "1/s", higher: true, bound: 0.001, on: wlSimFleet},
	{name: "qr_p50_ms", unit: "ms", bound: wallBound, on: wlSockSoak},
	{name: "qr_p99_ms", unit: "ms", bound: wallBound, on: wlSockSoak},
	{name: "session_p50_us", unit: "us", bound: wallBound, on: wlSockSoak},
	{name: "session_p99_us", unit: "us", bound: wallBound, on: wlSockSoak},
	{name: "h2d_MBps", unit: "MB/s", higher: true, bound: wallBound, on: wlSockStream},
	{name: "d2h_MBps", unit: "MB/s", higher: true, bound: wallBound, on: wlSockStream},
}

// wallBound is the bound of every wall-clock metric. The issue asked for
// 10% (20% on the p99s), but on the 2-core machine the baseline was taken
// on, ten 20 s runs of one commit spread 6-11% (quartile distance over
// median) on every one of them: whole runs shift together, so longer runs
// do not tighten it. A bound has to sit well above the spread to resolve
// anything, and the benchmark contract caps bounds at 25%.
const wallBound = 0.25

// perLayer is what the traced pass reports. A workload that does not
// exercise a metric's layer call reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(on, unit string, higher bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, higher: higher, on: on})
		}
	}
	simBoth := wlSimQR + " " + wlSimFleet
	sockBoth := wlSockSoak + " " + wlSockStream

	// sim_qr: virtual spans and counters over magma.Dgeqrf.
	add(wlSimQR, "s", false, "magma.host_virt_s", "accel.wait_virt_s",
		"accel.h2d_virt_s", "accel.d2h_virt_s", "accel.launch_virt_s")
	add(wlSimQR, "count", false, "accel.h2d_calls", "accel.d2h_calls", "accel.launch_calls")
	add(wlSimQR, "ratio", true, "gpu.busy_share")
	add(wlSimQR, "bytes", false, "gpu.bytes_in", "gpu.bytes_out")
	add(wlSimQR, "ratio", false, "minimpi.tx_busy_share")
	add(wlSimQR+" "+wlSockStream, "bytes", false, "core.staging_peak_bytes")
	add(simBoth, "count", false, "minimpi.wire_msgs")
	add(simBoth, "bytes", false, "minimpi.wire_bytes")
	add(wlSimQR, "count", false, "core.daemon_requests")
	add(simBoth, "ns", false, "sim.host_ns_per_wire_msg")
	add(wlSimQR, "MiB/s", true, "core.virt_MiBps_h2d_16MiB", "core.virt_MiBps_d2h_16MiB")
	add(wlSimQR, "us", false, "core.host_us_per_copy_16MiB")
	add(wlSimQR, "ns", false, "minimpi.host_ns_per_msg_8B", "minimpi.host_ns_per_msg_1MiB", "sim.host_ns_per_event")

	// sim_fleet: virtual span per call, median over tenants × rounds,
	// once per half.
	for _, sfx := range []string{"", "_ha"} {
		for _, n := range fleetCallMetrics {
			add(wlSimFleet, "us", false, n+"_virt_us"+sfx)
		}
		add(wlSimFleet, "s", false, "arm.wait_virt_s"+sfx)
	}
	add(wlSimFleet, "count", false, "minimpi.wire_msgs_ha")
	add(wlSimFleet, "bytes", false, "minimpi.wire_bytes_ha")
	add(wlSimFleet, "ms", false, "sim.host_ms_single", "sim.host_ms_ha", "cluster.build_ms")
	// Not in the issue's list: the virtual time between the last tenant's
	// release and the end of the simulation. virt_ops_per_s divides by the
	// whole simulation, so this is where a slow shutdown shows.
	add(wlSimFleet, "ms", false, "cluster.teardown_virt_ms", "cluster.teardown_virt_ms_ha")
	add(wlSimFleet, "ns", false, "arm.host_ns_per_acquire", "core.host_ns_per_request")
	add(wlSimFleet, "us", false, "arm.virt_us_per_acquire", "core.virt_us_per_launch", "core.virt_us_per_launch_batched")

	// sock_soak: wall span per call, p50.
	for _, n := range soakCallMetrics {
		add(wlSockSoak, "us", false, n+"_p50_us")
	}
	add(wlSockSoak, "count", false, "nettrans.frames_per_pair")
	add(wlSockSoak, "bytes", false, "nettrans.bytes_per_pair")
	add(wlSockSoak, "count", false, "nettrans.frames_resent", "nettrans.reconnects")
	add(sockBoth, "ratio", false, "gpu.modelled_busy_share")
	add(wlSockSoak, "s", false, "host.cpu_s_per_pair")
	add(wlSockSoak, "ratio", false, "host.cpu_busy_share")
	add(wlSockSoak, "count", false, "host.allocs_per_pair")
	add(wlSockSoak, "us", false, "nettrans.pingpong_8B_p50_us", "nettrans.pingpong_64KiB_p50_us",
		"sim.inject_wake_p50_us", "sim.timer_overshoot_p50_us")
	add(wlSockSoak, "GFlop/s", true, "blas.dgemm_host_gflops", "lapack.dgeqrf_host_gflops")

	// sock_stream.
	add(wlSockStream, "ms", false, "core.h2d_16m_p50_ms", "core.d2h_16m_p50_ms", "core.copy_16m_p90_ms")
	add(wlSockStream, "count", false, "core.blocks_per_copy", "nettrans.frames_per_copy")
	add(wlSockStream, "ratio", false, "nettrans.wire_bytes_per_payload_byte")
	add(wlSockStream, "s", false, "host.cpu_s_per_GB")
	add(wlSockStream, "count", false, "host.allocs_per_copy")
	add(wlSockStream, "bytes", false, "host.alloc_bytes_per_copy")
	add(wlSockStream, "MB/s", true, "nettrans.stream_1MiB_MBps")

	add("", "%", false, "trace.overhead_pct")
	return out
}

// fleetCallMetrics are sim_fleet's per-call spans (metric = span name +
// "_virt_us", plus "_ha" for the sharded/replicated half).
var fleetCallMetrics = []string{
	"arm.acquire", "arm.release", "core.session_open", "core.session_close", "core.alloc",
	"core.h2d_512k", "core.launch", "core.d2h_512k", "core.free",
}

// soakCallMetrics are sock_soak's per-call spans (metric = span name +
// "_p50_us"): first the QR round's, then the tenant round's.
var soakCallMetrics = []string{
	"arm.acquire", "magma.newdist", "magma.upload", "magma.dgeqrf", "magma.download",
	"magma.free", "arm.release", "lapack.verify",
	"arm.acquire_shared", "core.session_open", "core.alloc", "core.memset",
	"core.h2d_64k", "core.d2h_64k", "core.free", "core.session_close", "arm.release_shared",
}
