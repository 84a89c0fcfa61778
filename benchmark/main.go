// Command benchmark measures the repo end to end and layer by layer.
//
//	go run ./benchmark -workload sim_qr -seed 1 -seconds 20 -trace 0
//
// runs one of four workloads (sim_qr, sim_fleet, sock_soak, sock_stream)
// for a fixed wall time after a warm-up, checks every output, prints a
// table of named metrics to standard error and two JSON lines to standard
// output: the run's full record, then, last, one object with the metrics
// BENCHMARK.json lists.
// -trace 1 runs the traced pass instead: the same workload with a span
// around every call into a layer, plus the layer probes, reporting the
// per-layer metrics and writing a Chrome trace file.
//
//	go run ./benchmark -compare A.jsonl B.jsonl
//
// compares two sets of runs recorded with -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	out      string
}

// setupRepeats is how often set-up is timed in an untraced run; setup_s is
// the median.
const setupRepeats = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Pct is set on a tail metric (qr_p99_ms, session_p99_us): the
	// percentile the value was read at, which is lower than the name says
	// when the run had fewer than 1000 samples.
	Pct float64 `json:"pct,omitempty"`
}

// record is one run: what -out appends and -compare reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "one of sim_qr, sim_fleet, sock_soak, sock_stream")
	flag.Int64Var(&o.seed, "seed", 1, "generates matrices, payload bytes and tenant start jitter")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured wall seconds after the warm-up")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "traces"), "where -trace 1 writes <workload>.trace.json")
	flag.StringVar(&o.out, "out", "", "append the run's full record to this JSON-lines file")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare A.jsonl B.jsonl")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fatal("-seconds must be positive")
	}
	rec, err := runWorkload(o)
	if err != nil {
		fatal("%s: %v", o.workload, err)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fatal("%v", err)
		}
	}
	// Standard output carries two lines: the run's full record, with every
	// metric this workload reports, and last the line the benchmark contract
	// fixes, with the metrics BENCHMARK.json lists.
	full, err := json.Marshal(rec)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(full))
	line := contractLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]metricValue)}
	for _, m := range contractMetrics(o.trace) {
		line.Metrics[m.name] = metricValue{Value: rec.Metrics[m.name].Value, Unit: m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(data))
}

// warn prints a diagnostic the result line has no room for.
func warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	warn(format, args...)
	os.Exit(1)
}

// contractMetrics are the metrics BENCHMARK.json lists: the end-to-end
// metrics every workload reports, or every per-layer metric.
func contractMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	var out []metricDef
	for _, m := range endToEnd {
		if m.everywhere {
			out = append(out, m)
		}
	}
	return out
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload sets the workload up, runs its phases under a watchdog and
// turns them into a record. An error means no result: the caller exits
// nonzero.
func runWorkload(o options) (*record, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	var acct account

	// The watchdog: a run that has not finished a minute after twice its
	// measuring time has hung, in set-up or in the loop. The workload is
	// first asked to abandon the run; 15 s later the process exits, so a
	// hang never stalls the caller.
	deadline := time.Now().Add(min(170*time.Second, time.Minute+time.Duration(2*o.seconds*float64(time.Second))))
	hard := time.AfterFunc(time.Until(deadline), func() {
		warn("%s: hung; no result", o.workload)
		os.Exit(3)
	})

	// Set-up, several times: setup_s is the median, so one slow listen or
	// page fault does not decide it. A set-up of milliseconds is repeated
	// more often, until a second is spent or five times the count is
	// reached. The traced pass does not report set-up and does it once.
	var setupS samples
	for i := 0; ; i++ {
		if i >= 5*setupRepeats || (i >= setupRepeats && sum(setupS.xs) >= 1) || (o.trace && i > 0) {
			break
		}
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		if err := w.setup(o.seed, &acct); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS.add(time.Since(t0).Seconds())
	}

	var phases []*phase
	var tr *tracer
	if o.trace {
		// A quarter of the time each for an untraced reference slice and
		// the traced slice; the probes take the rest.
		t0 := time.Now()
		tr = newTracer(func() int64 { return time.Since(t0).Nanoseconds() })
		phases = []*phase{newPhase(paceFor(o.seconds/4), nil), newPhase(paceFor(o.seconds/4), tr)}
	} else {
		phases = []*phase{newPhase(paceFor(o.seconds), nil)}
	}

	stuck := make(chan struct{})
	soft := time.AfterFunc(time.Until(deadline.Add(-15*time.Second)), func() { close(stuck) })
	err = w.loop(phases, stuck)
	soft.Stop()
	if err != nil {
		return nil, err
	}

	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Metrics: make(map[string]metricValue)}
	for _, ph := range phases {
		acct.merge(ph.acct)
	}
	vals := make(map[string]float64)
	pcts := make(map[string]float64) // tail metrics: the percentile read
	last := phases[len(phases)-1]
	var defs []metricDef
	if o.trace {
		rec.Trace = 1
		defs = perLayer
		if err := w.layers(last, vals); err != nil {
			return nil, err
		}
		if ref := w.headline(phases[0]); ref > 0 {
			vals["trace.overhead_pct"] = 100 * (w.headline(last)/ref - 1)
		}
		path := filepath.Join(o.traceDir, o.workload+".trace.json")
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeChrome(path, o.workload); err != nil {
			return nil, err
		}
		warn("%s: %d spans in %s (%s time)", o.workload, len(tr.spans), path, tr.clockName)
	} else {
		defs = endToEnd
		vals["setup_s"] = setupS.median()
		vals["host_ms_per_run"] = last.iterMS.median()
		vals["host_allocs_per_run"] = last.allocs.median()
		vals["rounds_per_s"] = last.roundsPerS()
		w.endToEnd(last, vals, pcts)
	}
	hard.Stop()

	rec.Attempted, rec.Failed = acct.attempted, acct.failed
	rec.Correct = acct.failed == 0 && acct.attempted > 0 && last.iterMS.n() > 0
	if !o.trace {
		// Above 0 exactly when the run is not correct, so that -compare
		// needs this one number: a run that measured nothing failed wholly.
		vals["op_fail_ratio"] = float64(acct.failed) / float64(max(acct.attempted, 1))
		if !rec.Correct && acct.failed == 0 {
			vals["op_fail_ratio"] = 1
		}
	}
	for _, m := range defs {
		if o.trace || m.reportedBy(o.workload) {
			rec.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit, Pct: pcts[m.name]}
		}
	}
	printTable(o, rec, defs, phases, &setupS, acct)
	return rec, nil
}

// printTable writes the human-readable report to standard error: every
// metric by name and unit, then every timing as median, tail percentile
// and sample count.
func printTable(o options, rec *record, defs []metricDef, phases []*phase, setupS *samples, acct account) {
	e := os.Stderr
	pass := "end-to-end (untraced)"
	if o.trace {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(e, "\n%s  seed=%d  seconds=%g  %s  GOMAXPROCS=%d\n", o.workload, o.seed, o.seconds, pass, runtime.GOMAXPROCS(0))
	for _, m := range defs {
		v, ok := rec.Metrics[m.name]
		if !ok || (o.trace && !m.reportedBy(o.workload)) {
			continue
		}
		dir := "lower is better"
		if m.higher {
			dir = "higher is better"
		}
		note := dir
		if !o.trace {
			note += fmt.Sprintf(", bound %.3g%%", m.bound*100)
		}
		if v.Pct != 0 {
			note += fmt.Sprintf(", read at p%g", v.Pct)
		}
		fmt.Fprintf(e, "  %-36s %16.8g %-8s (%s)\n", m.name, v.Value, v.Unit, note)
	}
	fmt.Fprintf(e, "  timings: median / tail / samples\n")
	row := func(name, unit string, s *samples) {
		if s.n() == 0 {
			return
		}
		p, v := s.tail(99.9)
		fmt.Fprintf(e, "    %-34s %12.6g / p%-4g %12.6g / n=%d  %s\n", name, s.median(), p, v, s.n(), unit)
	}
	if !o.trace {
		row("setup", "s", setupS)
	}
	for i, ph := range phases {
		label := ""
		if len(phases) > 1 {
			label = []string{"untraced ", "traced "}[i]
		}
		row(label+"iteration", "ms", &ph.iterMS)
		row(label+"mallocs per iteration", "count", &ph.allocs)
		names := make([]string, 0, len(ph.timing))
		for n := range ph.timing {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			row(label+n, "", ph.timing[n])
		}
	}
	fmt.Fprintf(e, "  ops: %d attempted, %d failed; correct=%v\n", acct.attempted, acct.failed, rec.Correct)
	for _, msg := range acct.errs {
		fmt.Fprintf(e, "    failure: %s\n", msg)
	}
}
