package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// kind is "timing", "exact" (a count that repeats in every run of the
	// same seed) or "timing-dependent" (a count that may vary between
	// runs); it is printed in the report, not in the result line.
	kind string
}

// report collects one run's metrics and the facts printed around them.
type report struct {
	metrics map[string]metric
	order   []string
	notes   []string
	// attempted and failed count the run's operations: collapsed-fault
	// verdicts on the engine workloads, job submissions on atpgd-jobs.
	attempted, failed int
	gateErr           error
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit, kind string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, kind: kind}
}

func (r *report) seconds(name string, d time.Duration) { r.set(name, "s", "timing", d.Seconds()) }
func (r *report) exact(name, unit string, v float64)   { r.set(name, unit, "exact", v) }
func (r *report) varies(name, unit string, v float64)  { r.set(name, unit, "timing-dependent", v) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records the first correctness-gate violation of the run.
func (r *report) fail(err error) {
	if r.gateErr == nil {
		r.gateErr = err
	}
}

// print writes the human-readable report, then the result line: one JSON
// object holding exactly the metrics named in wanted, as the last line.
func (r *report) print(w io.Writer, wanted []string) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-32s %16.6g %-6s %s\n", name, m.Value, m.Unit, m.kind)
	}
	out := make(map[string]metric, len(wanted))
	for _, name := range wanted {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.gateErr == nil, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median duration, 0 when there are none.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tail returns the highest whole percentile that has at least ten samples
// above it (nearest-rank), its value, and whether such a percentile
// exists; with ten samples or fewer it returns the maximum as p100.
func tail(ds []time.Duration) (pct int, v time.Duration) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return 100, s[n-1]
	}
	pct = 100 * (n - 10) / n
	rank := (pct*n + 99) / 100 // ceil(pct/100 · n)
	return pct, s[rank-1]
}

// timings summarizes many calls of one layer: total, median and tail.
func (r *report) timings(prefix string, ds []time.Duration) {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	r.seconds(prefix+"_s", total)
	r.seconds(prefix+"_p50_s", medianDur(ds))
	pct, v := tail(ds)
	r.seconds(prefix+"_tail_s", v)
	r.note("%s_tail_s is p%d of %d calls", prefix, pct, len(ds))
}
