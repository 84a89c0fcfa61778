package main

import (
	"fmt"
	"runtime/metrics"
	"time"
)

// account counts operations against the number attempted. An operation
// that errors, mismatches its reference or trips a watchdog is failed and
// contributes no latency sample.
type account struct {
	attempted, failed int
	errs              []string // the first few failures, for the report
}

func (a *account) ok(n int) { a.attempted += n }

func (a *account) fail(n int, format string, args ...any) {
	a.attempted += n
	a.failed += n
	if len(a.errs) < 5 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

func (a *account) merge(b account) {
	a.attempted += b.attempted
	a.failed += b.failed
	for _, e := range b.errs {
		if len(a.errs) < 5 {
			a.errs = append(a.errs, e)
		}
	}
}

// pacer splits a run into warm-up and measurement by wall clock. Warm-up
// lasts warmup and at least minWarm iterations; measurement lasts measure.
type pacer struct {
	warmup, measure time.Duration
	minWarm         int

	started, measuring bool
	t0, m0             time.Time
	warmIters, iters   int
	wall               time.Duration // measured window, set when next returns more == false
}

// paceFor scales the fixed 2 s warm-up down for short runs.
func paceFor(seconds float64) pacer {
	warm := 2 * time.Second
	if w := time.Duration(seconds * float64(time.Second) / 10); w < warm {
		warm = w
	}
	return pacer{warmup: warm, measure: time.Duration(seconds * float64(time.Second)), minWarm: 3}
}

// next reports whether another iteration should run and whether it is
// measured. The caller calls it once before every iteration.
func (pc *pacer) next() (measured, more bool) {
	now := time.Now()
	if !pc.started {
		pc.started, pc.t0 = true, now
	}
	if !pc.measuring {
		if now.Sub(pc.t0) < pc.warmup || pc.warmIters < pc.minWarm {
			pc.warmIters++
			return false, true
		}
		pc.measuring, pc.m0 = true, now
	}
	if now.Sub(pc.m0) >= pc.measure {
		pc.wall = now.Sub(pc.m0)
		return false, false
	}
	pc.iters++
	return true, true
}

// procCounters are process-wide cumulative counters, read without
// stopping the world so that reading them between iterations does not
// disturb the socket workloads' latencies.
type procCounters struct {
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration // user+system, whole process
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readAllocs returns the cumulative heap allocation count and bytes.
func readAllocs() (objects, bytes uint64) {
	var s [2]metrics.Sample
	copy(s[:], allocSamples)
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func readProc() procCounters {
	o, b := readAllocs()
	return procCounters{mallocs: o, allocBytes: b, cpu: processCPU()}
}

// phase is one pass of a workload's loop: the untraced measurement, or in
// -trace runs the untraced reference slice and the traced slice.
type phase struct {
	pc    pacer
	tr    *tracer // nil = untraced
	acct  account
	round int

	iterMS samples // wall ms per measured iteration
	allocs samples // mallocs per measured iteration
	// timing holds the workload's own per-iteration timings, in the unit
	// the metric reports (qr ms, session µs, h2d ms, ...).
	timing map[string]*samples

	p0, p1 procCounters // at the first measured iteration and at the end
	// counters, when a socket workload sets it, is read at the same two
	// points into c0 and c1.
	counters func() sockCounters
	c0, c1   sockCounters
}

func newPhase(pc pacer, tr *tracer) *phase {
	return &phase{pc: pc, tr: tr, timing: make(map[string]*samples)}
}

func (ph *phase) sample(name string) *samples {
	s := ph.timing[name]
	if s == nil {
		s = &samples{}
		ph.timing[name] = s
	}
	return s
}

// iter brackets one iteration.
type iter struct {
	measured bool
	t0       time.Time
	mallocs  uint64
}

// begin asks the pacer for the next iteration; ok is false when the phase
// is over.
func (ph *phase) begin() (it iter, ok bool) {
	measured, more := ph.pc.next()
	if !more {
		ph.p1 = readProc()
		if ph.counters != nil {
			ph.c1 = ph.counters()
		}
		return iter{}, false
	}
	if measured && ph.pc.iters == 1 {
		ph.p0 = readProc()
		if ph.counters != nil {
			ph.c0 = ph.counters()
		}
	}
	ph.round++
	it = iter{measured: measured, t0: time.Now()}
	if measured {
		it.mallocs, _ = readAllocs()
	}
	return it, true
}

// end records a measured iteration that completed without failures.
func (ph *phase) end(it iter, good bool) {
	if !it.measured || !good {
		return
	}
	ph.iterMS.add(float64(time.Since(it.t0).Nanoseconds()) / 1e6)
	m, _ := readAllocs()
	ph.allocs.add(float64(m - it.mallocs))
}

// timed accounts one socket-mode operation: failed when it errored or
// overran its wall watchdog.
func (ph *phase) timed(what string, err error, took, deadline time.Duration) bool {
	switch {
	case err != nil:
		ph.acct.fail(1, "round %d %s: %v", ph.round, what, err)
	case took > deadline:
		ph.acct.fail(1, "round %d %s: took %v, over the %v watchdog", ph.round, what, took, deadline)
	default:
		ph.acct.ok(1)
		return true
	}
	return false
}

// roundsPerS is measured iterations per wall second of the measured
// window, failed ones included in neither.
func (ph *phase) roundsPerS() float64 {
	if ph.pc.wall <= 0 {
		return 0
	}
	return float64(ph.iterMS.n()) / ph.pc.wall.Seconds()
}
