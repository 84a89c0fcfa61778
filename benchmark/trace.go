package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// The traced pass records one span around every call the benchmark makes
// into a layer of the repo. Spans are taken from outside: the tracer is
// called by the adapter (layers.go), never by the program under test.
//
// A span has a name ("arm.acquire"; the part before the dot is the
// layer), a start and an end on the tracer's clock, the span that caused
// it, and the id of the round it belongs to. The clock is virtual time in
// the sim workloads and wall time in the socket workloads; one tracer
// never mixes the two.
//
// Two kinds of span exist. A call span covers the time the caller spent
// inside a blocking call; call spans of one lane nest and never overlap.
// A flight span covers an asynchronous operation from issue to
// completion; flights overlap each other and the calls that wait for
// them, so they are left out of self time:
//
//	self(span) = duration(span) − Σ duration(call spans directly below it)

// maxRawSpans bounds the spans kept for the trace file. Aggregates
// (per-name durations, self times) keep counting past it.
const maxRawSpans = 200_000

type span struct {
	name       string
	start, end int64 // ns on the tracer's clock
	parent     int32 // index into tracer.spans, -1 for a root or when the parent was not kept
	round      int32
	lane       int32
	flight     bool
}

// tracer accumulates spans and their aggregates. It is not safe for
// concurrent use: in every workload all spans come from simulation
// processes, which the scheduler runs one at a time.
type tracer struct {
	clock     func() int64
	clockName string // "wall", or "virtual" once a simulation's clock is installed
	last      int64  // latest clock reading; lets a new simulation continue the timeline
	spans     []span
	dur       map[string]*samples // per span name: one duration (ns) per span
	self      map[string]int64    // per span name: Σ self time (ns)
}

func newTracer(clock func() int64) *tracer {
	return &tracer{
		clock:     clock,
		clockName: "wall",
		dur:       make(map[string]*samples),
		self:      make(map[string]int64),
	}
}

func (t *tracer) now() int64 {
	now := t.clock()
	if now > t.last {
		t.last = now
	}
	return now
}

// lane is one sequential caller (a tenant, a compute-node process). A nil
// lane records nothing, which is how the untraced runs share the drivers.
type lane struct {
	t     *tracer
	id    int32
	round int32
	stack []open
}

// open is a call span still on a lane's stack.
type open struct {
	name     string
	start    int64
	idx      int32 // index in tracer.spans, -1 when not kept
	children int64 // Σ duration of the call spans closed directly below
}

func (t *tracer) lane(id int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, id: int32(id)}
}

// setRound stamps the spans that follow with a new round id.
func (l *lane) setRound(r int) {
	if l != nil {
		l.round = int32(r)
	}
}

func (l *lane) parentIdx() int32 {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1].idx
	}
	return -1
}

func (t *tracer) keep(s span) int32 {
	if len(t.spans) >= maxRawSpans {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) observe(name string, d int64) {
	s := t.dur[name]
	if s == nil {
		s = &samples{}
		t.dur[name] = s
	}
	s.add(float64(d))
}

// begin opens a call span; pair it with end.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	now := l.t.now()
	idx := l.t.keep(span{name: name, start: now, end: now, parent: l.parentIdx(), round: l.round, lane: l.id})
	l.stack = append(l.stack, open{name: name, start: now, idx: idx})
}

// end closes the innermost open call span.
func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.stack) - 1
	o := l.stack[n]
	l.stack = l.stack[:n]
	now := l.t.now()
	d := now - o.start
	if o.idx >= 0 {
		l.t.spans[o.idx].end = now
	}
	l.t.observe(o.name, d)
	l.t.self[o.name] += d - o.children
	if n > 0 {
		l.stack[n-1].children += d
	}
}

// flight is an asynchronous operation in progress.
type flight struct {
	name  string
	start int64
	idx   int32
}

// takeoff opens a flight span below the lane's current call span.
func (l *lane) takeoff(name string) flight {
	if l == nil {
		return flight{}
	}
	now := l.t.now()
	idx := l.t.keep(span{name: name, start: now, end: now, parent: l.parentIdx(), round: l.round, lane: l.id, flight: true})
	return flight{name: name, start: now, idx: idx}
}

// land closes a flight span. It may run from a completion callback,
// outside any lane.
func (t *tracer) land(f flight) {
	if t == nil {
		return
	}
	now := t.now()
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	t.observe(f.name, now-f.start)
}

// ---- aggregates ----

// medianNS is the median duration of the spans called name, in ns.
func (t *tracer) medianNS(name string) float64 {
	if s := t.dur[name]; s != nil {
		return s.median()
	}
	return 0
}

// ---- Chrome trace-event export ----

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeChrome writes the kept spans as Chrome trace-event JSON (the format
// ui.perfetto.dev and chrome://tracing open). Call spans become complete
// ("X") events on one thread per lane; flights become async ("b"/"e")
// events, which the viewers draw on their own rows.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"clock":%q,"spans_kept":%d},"traceEvents":[`+"\n",
		workload, t.clockName, len(t.spans))
	fmt.Fprintf(w, `{"ph":"M","pid":1,"name":"process_name","args":{"name":%q}}`, workload+" ("+t.clockName+" time)")
	for i, s := range t.spans {
		ts := float64(s.start) / 1e3 // trace-event timestamps are microseconds
		if s.flight {
			fmt.Fprintf(w, ",\n"+`{"ph":"b","cat":%q,"name":%q,"pid":1,"tid":%d,"id":%d,"ts":%.3f,"args":{"round":%d,"parent":%d}}`,
				layerOf(s.name), s.name, s.lane, i, ts, s.round, s.parent)
			fmt.Fprintf(w, ",\n"+`{"ph":"e","cat":%q,"name":%q,"pid":1,"tid":%d,"id":%d,"ts":%.3f}`,
				layerOf(s.name), s.name, s.lane, i, float64(s.end)/1e3)
			continue
		}
		fmt.Fprintf(w, ",\n"+`{"ph":"X","cat":%q,"name":%q,"pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"round":%d,"span":%d,"parent":%d}}`,
			layerOf(s.name), s.name, s.lane, ts, float64(s.end-s.start)/1e3, s.round, i, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
