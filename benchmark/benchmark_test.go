package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTailPercentileRule pins the reporting rule: the tail is the highest
// percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{0, 99.9, 50}, {19, 99.9, 50}, {20, 99.9, 50},
		{39, 99.9, 50}, {40, 99.9, 75},
		{99, 99.9, 75}, {100, 99.9, 90},
		{199, 99.9, 90}, {200, 99.9, 95},
		{999, 99.9, 95}, {1000, 99.9, 99},
		{9999, 99.9, 99}, {10000, 99.9, 99.9},
		{10000, 99, 99}, {50, 50, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	if got := s.median(); got != 500.5 {
		t.Errorf("median of 1..1000 = %g, want 500.5", got)
	}
	p, v := s.tail(99.9)
	beyond := 0
	for _, x := range s.xs {
		if x > v {
			beyond++
		}
	}
	if p != 99 || beyond < 10 {
		t.Errorf("tail of 1000 samples: p%g with %d samples beyond, want p99 with >= 10", p, beyond)
	}
}

// TestSpanSelfTime checks the span arithmetic on a hand-set clock: self
// time is a call span's duration minus the call spans directly below it,
// and flights, which overlap, are left out.
func TestSpanSelfTime(t *testing.T) {
	now := int64(0)
	tr := newTracer(func() int64 { return now })
	ln := tr.lane(7)
	ln.setRound(3)

	ln.begin("magma.dgeqrf") // 0..100
	now = 10
	ln.begin("accel.alloc") // 10..30
	now = 30
	ln.end()
	f := ln.takeoff("accel.h2d") // flight 30..90, overlaps the wait below
	now = 40
	ln.begin("accel.wait") // 40..80
	now = 50
	ln.begin("core.inner") // 50..60, grandchild: comes off accel.wait, not dgeqrf
	now = 60
	ln.end()
	now = 80
	ln.end()
	now = 90
	tr.land(f)
	now = 100
	ln.end()

	for name, want := range map[string]int64{
		"magma.dgeqrf": 100 - 20 - 40,
		"accel.alloc":  20,
		"accel.wait":   40 - 10,
		"core.inner":   10,
	} {
		if got := tr.self[name]; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if _, ok := tr.self["accel.h2d"]; ok {
		t.Error("a flight must not have self time")
	}
	if got := tr.medianNS("accel.h2d"); got != 60 {
		t.Errorf("flight duration = %g, want 60", got)
	}
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans kept, want 5", len(tr.spans))
	}
	root, wait, inner := tr.spans[0], tr.spans[3], tr.spans[4]
	if root.parent != -1 || wait.parent != 0 || inner.parent != 3 || tr.spans[2].parent != 0 {
		t.Errorf("parents: root %d, flight %d, wait %d, inner %d", root.parent, tr.spans[2].parent, wait.parent, inner.parent)
	}
	for _, s := range tr.spans {
		if s.round != 3 || s.lane != 7 {
			t.Errorf("span %s: round %d lane %d, want 3 and 7", s.name, s.round, s.lane)
		}
	}

	// A nil lane — the untraced runs — records nothing and does not panic.
	var off *lane
	off.setRound(1)
	off.begin("x")
	off.end()
	var none *tracer
	none.land(off.takeoff("y"))

	path := filepath.Join(t.TempDir(), "t.trace.json")
	if err := tr.writeChrome(path, "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if want := 1 + 4 + 2; len(doc.TraceEvents) != want { // metadata, 4 calls, begin+end of the flight
		t.Errorf("%d trace events, want %d", len(doc.TraceEvents), want)
	}
}

// TestSimRunsRepeatExactly runs both simulator workloads' drivers twice:
// virtual times and wire counts must be identical, which is what lets two
// commits be compared exactly on them.
func TestSimRunsRepeatExactly(t *testing.T) {
	q := qrSim{n: 2048, gpus: 3}
	a, err := q.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.virtNS == 0 || a.virtNS != b.virtNS || a.wireMsgs != b.wireMsgs || a.wireBytes != b.wireBytes {
		t.Errorf("QR runs differ: %d/%d virtual ns, %d/%d msgs, %d/%d bytes",
			a.virtNS, b.virtNS, a.wireMsgs, b.wireMsgs, a.wireBytes, b.wireBytes)
	}
	for _, ha := range []bool{false, true} {
		f := fleetSim{daemons: 8, tenants: 24, ha: ha, jitter: fleetJitter(5, 24)}
		x, err := f.run(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		y, err := f.run(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if x.ops != f.ops() || x.virtNS != y.virtNS || x.wireMsgs != y.wireMsgs || x.wireBytes != y.wireBytes {
			t.Errorf("fleet (ha=%v) runs differ: %d ops, %d/%d virtual ns, %d/%d msgs",
				ha, x.ops, x.virtNS, y.virtNS, x.wireMsgs, y.wireMsgs)
		}
	}
}

// TestTracedQRKeepsVirtualTime: the accel.Device decorator and its
// completion callbacks must not perturb the simulation, or the traced
// pass would describe a different run than the one measured.
func TestTracedQRKeepsVirtualTime(t *testing.T) {
	q := qrSim{n: 2048, gpus: 3}
	plain, err := q.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(nil)
	traced, err := q.run(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.virtNS != traced.virtNS || plain.endNS != traced.endNS {
		t.Errorf("tracing moved virtual time: Dgeqrf %d -> %d ns, end %d -> %d ns",
			plain.virtNS, traced.virtNS, plain.endNS, traced.endNS)
	}
	if plain.wireMsgs != traced.wireMsgs || plain.wireBytes != traced.wireBytes {
		t.Errorf("tracing moved wire counts: %d -> %d msgs", plain.wireMsgs, traced.wireMsgs)
	}
	c := traced.accel
	if c.h2dCalls == 0 || c.d2hCalls == 0 || c.launchCalls == 0 || c.waitNS == 0 {
		t.Errorf("decorator saw nothing: %+v", c)
	}
	// The driver's self time and the time it was blocked make up the call.
	self, total := tr.self["magma.dgeqrf"], int64(sum(tr.dur["magma.dgeqrf"].xs))
	if total != traced.virtNS || self <= 0 || self >= total {
		t.Errorf("magma.dgeqrf: span %d ns (Dgeqrf took %d), self %d", total, traced.virtNS, self)
	}
}

// TestSmoke runs every workload end to end, small: one set-up, a short
// untraced pass, and for the traced pass's loop a short traced phase.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := smallWorkload(t, name)
			var acct account
			if err := w.setup(3, &acct); err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			tr := newTracer(func() int64 { return time.Since(t0).Nanoseconds() })
			// One measured iteration and no warm-up: the window is over by
			// the time the pacer is asked for a second.
			quick := pacer{measure: time.Nanosecond}
			phases := []*phase{newPhase(quick, nil), newPhase(quick, tr)}
			if err := w.loop(phases, nil); err != nil {
				t.Fatal(err)
			}
			vals := map[string]float64{}
			w.endToEnd(phases[0], vals, map[string]float64{})
			for _, ph := range phases {
				acct.merge(ph.acct)
				if ph.iterMS.n() != 1 {
					t.Errorf("%d measured iterations, want 1", ph.iterMS.n())
				}
			}
			if acct.failed != 0 || acct.attempted == 0 {
				t.Errorf("%d of %d ops failed: %v", acct.failed, acct.attempted, acct.errs)
			}
			for _, m := range endToEnd {
				if m.everywhere || m.name == "op_fail_ratio" || !m.reportedBy(name) {
					continue
				}
				if vals[m.name] <= 0 {
					t.Errorf("%s = %g, want a positive value", m.name, vals[m.name])
				}
			}
			if len(tr.spans) == 0 {
				t.Error("the traced phase recorded no span")
			}
		})
	}
}

// smallWorkload shrinks the inputs so that the whole package stays within
// CI's budget under the race detector; the code paths are the ones the
// full-size workloads run.
func smallWorkload(t *testing.T, name string) workload {
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *simQR:
		w.n = 2048
	case *simFleet:
		w.daemons, w.tenants = 8, 24
	case *sockStream:
		w.bytes = 1 * mib
	}
	return w
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the repo root
// in step with the catalog in metrics.go.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, m.name, m.unit, better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v (bounded=%v)", kind, i, m.name, g.Bound, m.bound, bounded)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, contractMetrics(false), true)
	check("per_layer", doc.PerLayer, contractMetrics(true), false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", m.name, m.unit)
		}
		seen[m.name] = true
	}
}

// TestOnlyLayersImportsTheRepo: one adapter file, and never internal/bench
// or cmd/*, so that the benchmark survives their refactoring.
func TestOnlyLayersImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, p := range strings.Fields("sim minimpi nettrans gpu core arm accel cluster blas lapack magma netmodel") {
		allowed["dynacc/internal/"+p] = true
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "dynacc/") {
				continue
			}
			if file != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may import the repo", file, path)
			}
			if !allowed[path] {
				t.Errorf("%s imports %s, which is not a layer package", file, path)
			}
		}
	}
}

// TestCompareVerdicts covers -compare's three verdicts and the exact
// rule for simulated results.
func TestCompareVerdicts(t *testing.T) {
	setAt := func(pct float64, xs ...float64) *series { // run i has seed i
		s := newSeries()
		for i, x := range xs {
			s.addRun(int64(i), x, pct)
		}
		return s
	}
	set := func(xs ...float64) *series { return setAt(0, xs...) }
	find := func(name string) metricDef {
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if m.name == name {
				return m
			}
		}
		t.Fatalf("no metric %q", name)
		return metricDef{}
	}
	lat := find("qr_p50_ms")            // lower is better, wallBound
	tail := find("qr_p99_ms")           // carries the percentile it was read at
	thr := find("h2d_MBps")             // higher is better, wallBound
	virt := find("virt_gflops")         // exact
	fails := find("op_fail_ratio")      // bound 0
	layer := find("arm.acquire_p50_us") // per-layer: no bound
	cases := []struct {
		name string
		m    metricDef
		e2e  bool
		a, b *series
		want string
	}{
		{"within bound", lat, true, set(3.0, 3.1, 3.05), set(3.2, 3.25, 3.3), verdictOK},
		{"slower", lat, true, set(3.0, 3.1, 3.05), set(4.0, 4.1, 4.05), verdictWorse},
		{"faster", lat, true, set(3.0, 3.1, 3.05), set(2.0, 2.1, 2.05), verdictOK},
		{"too noisy to call", lat, true, set(2.0, 3.0, 4.0, 5.0), set(2.5, 3.5, 4.5, 5.5), verdictUnresolved},
		{"noisy but every run better", lat, true, set(4.0, 5.0, 6.0, 7.0), set(1.0, 1.5, 2.0, 2.5), verdictOK},
		{"throughput fell", thr, true, set(1000, 1010), set(700, 710), verdictWorse},
		{"throughput rose", thr, true, set(1000, 1010), set(1200, 1210), verdictOK},
		{"simulated result repeats", virt, true, set(163.5, 163.5), set(163.5), verdictOK},
		{"simulated result moved", virt, true, set(163.5, 163.5), set(163.6), verdictWorse},
		{"still no failure", fails, true, set(0, 0), set(0, 0), verdictOK},
		{"a failure appeared", fails, true, set(0, 0), set(0.001, 0), verdictWorse},
		{"one failing run in three", fails, true, set(0, 0, 0), set(0, 0, 0.01), verdictWorse},
		{"two failing runs in five", fails, true, set(0, 0, 0, 0, 0), set(0, 0.01, 0, 0.02, 0), verdictWorse},
		{"no more failures than before", fails, true, set(0, 0.02, 0), set(0, 0, 0.01), verdictOK},
		{"tails at one percentile", tail, true, setAt(99, 5.0, 5.1), setAt(99, 5.2, 5.3), verdictOK},
		{"a p95 beside a p99", tail, true, setAt(99, 5.0, 5.1), setAt(95, 4.0, 4.1), verdictUnresolved},
		{"percentiles mixed within a set", tail, true, setAt(99, 5.0, 5.1), func() *series {
			s := setAt(99, 5.0)
			s.addRun(1, 4.0, 95)
			return s
		}(), verdictUnresolved},
		{"per-layer has no bound", layer, false, set(15, 16), set(30, 31), verdictInfo},
	}
	for _, c := range cases {
		if _, got := judge(c.m, c.e2e, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
