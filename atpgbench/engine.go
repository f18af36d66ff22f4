package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// dpllMaxConflicts is cmd/atpg's conflict cap for its DPLL solver.
const dpllMaxConflicts = 10_000_000

// setupsPerPass is how many timed set-ups of its inputs a run makes per
// timed pass; setup_s is their median, since one set-up takes only
// milliseconds.
const setupsPerPass = 3

// prepared is one circuit after set-up: parsed, decomposed to 3-input
// gates, and its fault list collapsed as cmd/atpg does by default.
type prepared struct {
	name   string
	c      *logic.Circuit
	all    int // uncollapsed fault count
	faults []atpg.Fault
}

// prepare runs the set-up of one netlist through the layers' public
// functions, recording a span per layer under parent when traced.
func prepare(nl netlist, tr *tracer, parent int) (prepared, error) {
	s := tr.begin(nl.name, "bench", "parse", parent)
	c, err := bench.Read(bytes.NewReader(nl.text), nl.name)
	tr.end(s)
	if err != nil {
		return prepared{}, fmt.Errorf("parse %s: %w", nl.name, err)
	}
	s = tr.begin(nl.name, "decomp", "decompose", parent)
	c, err = decomp.Decompose(c, 3)
	tr.end(s)
	if err != nil {
		return prepared{}, fmt.Errorf("decompose %s: %w", nl.name, err)
	}
	s = tr.begin(nl.name, "atpg", "collapse", parent)
	all := atpg.AllFaults(c)
	faults := atpg.CollapseDominance(c, atpg.Collapse(c, all))
	tr.end(s)
	return prepared{name: nl.name, c: c, all: len(all), faults: faults}, nil
}

// rptSeed is cmd/atpg's default -seed. It stays fixed: across workload
// seeds 1-5, taking the random-pattern seed from the workload seed moved
// redundant-logic's test_vectors between 149 and 168, a spread no count
// bound could hold. A count must repeat exactly to back a claim.
const rptSeed = 1

// newEngine returns the engine and options cmd/atpg runs with by default:
// collapse, dominance and drop on, the random-pattern phase at its
// defaults, incremental CDCL, verified tests, one worker per CPU, and no
// per-fault budget or deadline.
func newEngine(workers int) (*atpg.Engine, atpg.RunOptions) {
	eng := &atpg.Engine{VerifyTests: true, Workers: workers, Solver: &sat.DPLL{MaxConflicts: dpllMaxConflicts}}
	opt := atpg.RunOptions{
		DropDetected: true,
		RPTBatches:   atpg.DefaultRPTBatches,
		RPTIdleStop:  atpg.DefaultRPTIdleStop,
		Seed:         rptSeed,
		RetryTiers:   atpg.DefaultRetryTiers,
		RetryBackoff: atpg.DefaultRetryBackoff,
		Incremental:  true,
		GroupMax:     atpg.DefaultGroupMax,
		Telemetry:    &atpg.Telemetry{Ring: obs.NewRing(obs.DefaultRingSize)},
	}
	return eng, opt
}

// passResult is one pass of the workload: a RunFaults summary per circuit.
type passResult struct {
	sums []*atpg.Summary
	jobs []time.Duration // RunFaults wall time per circuit
	wall time.Duration   // their sum
}

// outcome is the part of a pass that must repeat exactly: per circuit,
// the vector-set digest and the exact counts.
type outcome struct {
	Circuit                                  string
	Digest                                   string
	Vectors, Detected, Untestable, RPT, Sat  int
	Dropped, Aborted, Errors, CollapsedTotal int
}

func outcomes(p passResult) []outcome {
	out := make([]outcome, len(p.sums))
	for i, s := range p.sums {
		out[i] = outcome{
			Circuit: s.Circuit, Digest: vectorDigest(s.Vectors), Vectors: len(s.Vectors),
			Detected: s.Detected, Untestable: s.Untestable, RPT: s.DetectedByRPT, Sat: len(s.Results),
			Dropped: s.DroppedByFaultSim, Aborted: s.Aborted, Errors: s.Errors, CollapsedTotal: s.Total,
		}
	}
	return out
}

// runPass runs RunFaults once per circuit. Only the RunFaults calls are
// timed; with a tracer each call is a span under parent.
func runPass(ctx context.Context, circs []prepared, workers int, tr *tracer, parent int) (passResult, error) {
	var p passResult
	for _, pc := range circs {
		eng, opt := newEngine(workers)
		s := tr.begin(pc.name, "atpg", "run", parent)
		start := time.Now()
		sum, err := eng.RunFaults(ctx, pc.c, pc.faults, opt)
		d := time.Since(start)
		tr.end(s)
		p.jobs = append(p.jobs, d)
		p.wall += d
		if err != nil {
			return p, fmt.Errorf("RunFaults %s: %w", pc.name, err)
		}
		p.sums = append(p.sums, sum)
	}
	return p, nil
}

func prepareAll(nls []netlist, tr *tracer, parent int) ([]prepared, time.Duration, error) {
	start := time.Now()
	out := make([]prepared, len(nls))
	for i, nl := range nls {
		pc, err := prepare(nl, tr, parent)
		if err != nil {
			return nil, 0, err
		}
		out[i] = pc
	}
	return out, time.Since(start), nil
}

// runEngine measures one engine workload: one untimed warm-up pass, then
// until the measuring time is up, setupsPerPass timed set-ups and one
// timed pass per round, each after a GC. Interleaving the set-ups with
// the passes spreads both over the whole measuring time, so a slow spell
// of the host weighs on their medians alike. With trace set, each round
// also runs a traced pass, and the per-layer metrics come from the last.
func runEngine(ctx context.Context, cfg runConfig, nls []netlist, rep *report) error {
	circs, _, err := prepareAll(nls, nil, -1)
	if err != nil {
		return err
	}
	warm, err := runPass(ctx, circs, cfg.workers, nil, -1)
	if err != nil {
		return err
	}
	want := outcomes(warm)
	check := func(p passResult) {
		if err := sameOutcomes(want, outcomes(p)); err != nil {
			rep.fail(err)
		}
		for _, s := range p.sums {
			rep.attempted += s.Total
			rep.failed += s.Aborted + s.Errors
		}
	}

	var setups, walls, tracedWalls, jobs []time.Duration
	var rates []float64
	var rss passRSS
	var tr *tracer
	passSpan := -1
	last := warm
	deadline := time.Now().Add(cfg.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		for i := 0; i < setupsPerPass; i++ {
			runtime.GC()
			_, d, err := prepareAll(nls, nil, -1)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		runtime.GC()
		rss.begin()
		p, err := runPass(ctx, circs, cfg.workers, nil, -1)
		rss.end()
		if err != nil {
			return err
		}
		check(p)
		walls = append(walls, p.wall)
		jobs = append(jobs, p.jobs...)
		rates = append(rates, float64(len(p.jobs))/p.wall.Seconds())
		last = p
		if !cfg.trace {
			continue
		}
		runtime.GC()
		tr = newTracer()
		passSpan = tr.begin("pass", "harness", "pass", -1)
		if circs, _, err = prepareAll(nls, tr, passSpan); err != nil {
			return err
		}
		if p, err = runPass(ctx, circs, cfg.workers, tr, passSpan); err != nil {
			return err
		}
		check(p)
		tracedWalls = append(tracedWalls, p.wall)
		last = p
	}

	// The gate runs on the last pass, after the timed ones. Fault
	// simulation grades every vector set, which confirms each detected
	// verdict; the probe proves each untestable verdict UNSAT. A traced
	// run probes the detected faults as well, to time every layer.
	ps := &probeStats{}
	for i, pc := range circs {
		sum := last.sums[i]
		if err := checkSummary(sum); err != nil {
			rep.fail(err)
		}
		if err := gradeGate(pc, sum.Vectors, sum.Untestable, tr, passSpan, ps); err != nil {
			rep.fail(err)
		}
		if err := probe(pc, resultVerdicts(sum.Results, cfg.trace), tr, passSpan, ps); err != nil {
			rep.fail(err)
		}
	}
	tr.end(passSpan)
	if err := checkDigestFile(cfg, want); err != nil {
		rep.fail(err)
	}

	var covered, testable, vectors int
	for _, s := range last.sums {
		covered += s.Detected + s.DroppedByFaultSim + s.DetectedByRPT
		testable += s.Total - s.Untestable
		vectors += len(s.Vectors)
	}
	rep.seconds("setup_s", medianDur(setups))
	rep.seconds("atpg_s", medianDur(walls))
	rep.exact("test_vectors", "count", float64(vectors))
	rep.exact("fault_coverage_pct", "%", pct(covered, testable))
	rep.exact("succeeded_pct", "%", 100-pct(rep.failed, rep.attempted))
	rss.report(rep)
	jobMetrics(rep, rates, jobs)
	rep.note("engine: %d circuits, workers %d, %d timed passes, %d set-ups; failed_pct %.4g (aborted+errored over collapsed faults)",
		len(circs), cfg.workers, len(walls), len(setups), pct(rep.failed, rep.attempted))
	rep.note("atpg_s pass range %.4g..%.4g s; setup_s range %.4g..%.4g s",
		minDur(walls).Seconds(), maxDur(walls).Seconds(), minDur(setups).Seconds(), maxDur(setups).Seconds())

	if cfg.trace {
		engineLayers(rep, circs, last, tr, ps)
		rep.seconds("trace.overhead_s", medianDur(tracedWalls)-medianDur(walls))
		rep.note("trace.overhead_s: median of %d traced passes minus median of %d untraced passes, interleaved", len(tracedWalls), len(walls))
		return finishTrace(cfg, tr, rep)
	}
	return nil
}

// setupLayers reports the set-up layers' span times and the collapse
// ratio.
func setupLayers(rep *report, tr *tracer, circs []prepared) {
	rep.seconds("bench.parse_s", tr.total("bench", "parse"))
	rep.seconds("decomp.decompose_s", tr.total("decomp", "decompose"))
	rep.seconds("atpg.collapse_s", tr.total("atpg", "collapse"))
	var all, collapsed int
	for _, pc := range circs {
		all += pc.all
		collapsed += len(pc.faults)
	}
	rep.exact("atpg.collapse_ratio", "ratio", float64(collapsed)/float64(all))
}

// engineLayers reports the per-layer metrics of the last traced pass: its
// spans, and what RunFaults' summaries say, summed over its circuits.
func engineLayers(rep *report, circs []prepared, last passResult, tr *tracer, ps *probeStats) {
	setupLayers(rep, tr, circs)
	rep.seconds("atpg.run_s", tr.total("atpg", "run"))
	var s atpg.Summary
	calls := 0
	for _, c := range last.sums {
		calls += len(c.Results)
		s.DetectedByRPT += c.DetectedByRPT
		s.Untestable += c.Untestable
		s.DroppedByFaultSim += c.DroppedByFaultSim
		s.WastedSolves += c.WastedSolves
		s.Phases.RPT += c.Phases.RPT
		s.Phases.Build += c.Phases.Build
		s.Phases.Solve += c.Phases.Solve
		s.Phases.FaultSim += c.Phases.FaultSim
		s.Phases.FrontierStall += c.Phases.FrontierStall
		s.SolverTotals.Add(c.SolverTotals)
	}
	rep.exact("atpg.rpt_detected", "count", float64(s.DetectedByRPT))
	rep.exact("atpg.sat_calls", "count", float64(calls))
	rep.exact("atpg.untestable", "count", float64(s.Untestable))
	rep.exact("atpg.dropped_by_sim", "count", float64(s.DroppedByFaultSim))
	rep.varies("atpg.wasted_solves", "count", float64(s.WastedSolves))
	ratio := 0.0
	if calls+s.WastedSolves > 0 {
		ratio = float64(s.WastedSolves) / float64(calls+s.WastedSolves)
	}
	rep.varies("atpg.wasted_ratio", "ratio", ratio)
	rep.seconds("atpg.phase.rpt_s", s.Phases.RPT)
	rep.seconds("atpg.phase.build_s", s.Phases.Build)
	rep.seconds("atpg.phase.solve_s", s.Phases.Solve)
	rep.seconds("atpg.phase.faultsim_s", s.Phases.FaultSim)
	rep.seconds("atpg.phase.frontier_stall_s", s.Phases.FrontierStall)
	rep.note("atpg.phase.* and sat.{conflicts,decisions,learned_reused} are the engine's own counters, summed over workers: not wall-time shares")
	rep.varies("sat.conflicts", "count", float64(s.SolverTotals.Conflicts))
	rep.varies("sat.decisions", "count", float64(s.SolverTotals.Decisions))
	rep.varies("sat.learned_reused", "count", float64(s.SolverTotals.LearnedReused))
	ps.report(rep)
}

// checkSummary is the per-circuit part of the gate RunFaults' summary
// alone can answer: nothing aborted or errored, full coverage.
func checkSummary(s *atpg.Summary) error {
	if s.Aborted != 0 || s.Errors != 0 {
		return fmt.Errorf("%s: %d aborted and %d errored faults", s.Circuit, s.Aborted, s.Errors)
	}
	if s.Coverage() != 1 {
		return fmt.Errorf("%s: fault coverage %.6f, want 1", s.Circuit, s.Coverage())
	}
	return nil
}

func sameOutcomes(want, got []outcome) error {
	if len(want) != len(got) {
		return fmt.Errorf("pass covered %d circuits, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s: pass outcome %+v differs from the warm-up's %+v", want[i].Circuit, got[i], want[i])
		}
	}
	return nil
}

func pct(n, d int) float64 {
	if d == 0 {
		return 100
	}
	return 100 * float64(n) / float64(d)
}

func minDur(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds {
		m = min(m, d)
	}
	return m
}

func maxDur(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// jobMetrics reports throughput as the median over passes or rounds, and
// job latency as the median and tail over every timed job.
func jobMetrics(rep *report, rates []float64, jobs []time.Duration) {
	rep.set("jobs_per_s", "1/s", "timing", median(rates))
	rep.seconds("job_p50_s", medianDur(jobs))
	p, v := tail(jobs)
	rep.seconds("job_tail_s", v)
	rep.note("job_tail_s is p%d of %d jobs", p, len(jobs))
}
