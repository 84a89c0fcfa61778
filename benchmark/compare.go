package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A run set is a JSON-lines file written with -out: one record per run,
// any number of runs (seeds) per workload and pass. -compare A B treats A
// as the baseline and B as the candidate.

type runKey struct {
	workload string
	trace    int
}

// series is one metric's values over a set's runs.
type series struct {
	samples
	// bySeed is what the exact rule compares: a simulated result depends on
	// the seed (sim_fleet's start jitter) and on nothing else.
	bySeed map[int64]float64
	// repeats is false once two runs with one seed disagreed.
	repeats bool
	// pcts holds the percentiles a tail metric's runs were read at (see
	// metricValue.Pct); values read at different ones do not compare.
	pcts map[float64]bool
}

func newSeries() *series {
	return &series{bySeed: make(map[int64]float64), repeats: true, pcts: make(map[float64]bool)}
}

func (s *series) addRun(seed int64, v, pct float64) {
	s.add(v)
	s.pcts[pct] = true
	if old, seen := s.bySeed[seed]; seen && old != v {
		s.repeats = false
	}
	s.bySeed[seed] = v
}

// sameAs reports whether the two series agree bit for bit on every seed
// they share, and share at least one.
func (s *series) sameAs(o *series) bool {
	shared := 0
	for seed, v := range s.bySeed {
		if w, ok := o.bySeed[seed]; ok {
			if v != w {
				return false
			}
			shared++
		}
	}
	return shared > 0 && s.repeats && o.repeats
}

type runSet map[runKey]map[string]*series // per metric: one value per run

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		k := runKey{rec.Workload, rec.Trace}
		if set[k] == nil {
			set[k] = make(map[string]*series)
		}
		for name, v := range rec.Metrics {
			if set[k][name] == nil {
				set[k][name] = newSeries()
			}
			set[k][name].addRun(rec.Seed, v.Value, v.Pct)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return set, nil
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for a single run.
func spread(s *series) float64 {
	if s.n() < 2 || s.median() == 0 {
		return 0
	}
	q := (s.quantile(0.75) - s.quantile(0.25)) / s.median()
	if q < 0 {
		q = -q
	}
	return q
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metrics carry no bound
)

// centre is the value a set's runs are summed up in: the median, but for
// a metric with bound 0 (op_fail_ratio) the worst run, because one failing
// run in a set is an increase the median of three would hide.
func centre(m metricDef, endToEnd bool, s *series) float64 {
	if endToEnd && m.bound == 0 && !m.exact() {
		if m.higher {
			return s.quantile(0)
		}
		return s.quantile(1)
	}
	return s.median()
}

// judge compares one metric of one workload. worseBy is how far the
// candidate's centre is on the wrong side of the baseline's, as a share
// of the baseline's.
func judge(m metricDef, endToEnd bool, a, b *series) (worseBy float64, verdict string) {
	ma, mb := centre(m, endToEnd, a), centre(m, endToEnd, b)
	switch {
	case ma != 0:
		worseBy = (mb - ma) / ma
	case mb != 0:
		worseBy = 1
	}
	if ma < 0 {
		worseBy = -worseBy
	}
	if m.higher {
		worseBy = -worseBy
	}
	if m.exact() {
		// Simulated results must repeat bit for bit, seed by seed.
		if a.sameAs(b) {
			return worseBy, verdictOK
		}
		return worseBy, verdictWorse
	}
	if !endToEnd {
		return worseBy, verdictInfo
	}
	if m.bound == 0 {
		// Any increase counts; there is no noise to allow for.
		if worseBy > 0 {
			return worseBy, verdictWorse
		}
		return worseBy, verdictOK
	}
	if len(a.pcts) > 1 || len(b.pcts) > 1 || !sameKeys(a.pcts, b.pcts) {
		// A p99 beside a p95 under one name: short or slow runs had fewer
		// than 1000 samples.
		return worseBy, verdictUnresolved
	}
	if sp := max(spread(a), spread(b)); sp > m.bound {
		// Too noisy to call, unless every candidate run beats every
		// baseline run.
		a.sort()
		b.sort()
		allBetter := b.xs[b.n()-1] < a.xs[0]
		if m.higher {
			allBetter = b.xs[0] > a.xs[a.n()-1]
		}
		if allBetter {
			return worseBy, verdictOK
		}
		return worseBy, verdictUnresolved
	}
	if worseBy > m.bound {
		return worseBy, verdictWorse
	}
	return worseBy, verdictOK
}

func sameKeys(a, b map[float64]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return len(a) == len(b)
}

// compareFiles prints, per workload × metric, both medians, the delta,
// the bound and a verdict; it reports whether any row is worse. The
// op_fail_ratio rows show each set's worst run in place of the median.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	keys := make([]runKey, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false, fmt.Errorf("the two sets share no workload")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return keys[i].trace < keys[j].trace
		}
		return keys[i].workload < keys[j].workload
	})
	fmt.Fprintf(w, "%-12s %-36s %-8s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse by", "bound", "spread", "verdict")
	counts := map[string]int{}
	for _, k := range keys {
		defs, e2e := perLayer, false
		if k.trace == 0 {
			defs, e2e = endToEnd, true
		}
		for _, m := range defs {
			sa, sb := a[k][m.name], b[k][m.name]
			if sa == nil || sb == nil || !m.reportedBy(k.workload) {
				continue
			}
			worseBy, verdict := judge(m, e2e, sa, sb)
			counts[verdict]++
			bound := "-"
			if e2e {
				bound = fmt.Sprintf("%.3g%%", m.bound*100)
			}
			if m.exact() {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-12s %-36s %-8s %14.6g %14.6g %+8.2f%% %8s %7.2f%%  %s\n",
				k.workload, m.name, m.unit, sa.median(), sb.median(), worseBy*100, bound,
				max(spread(sa), spread(sb))*100, verdict)
		}
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved, %d without a bound (A: %s, B: %s)\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved], counts[verdictInfo], pathA, pathB)
	return counts[verdictWorse] > 0, nil
}
