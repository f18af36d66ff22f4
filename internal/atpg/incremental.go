package atpg

// This file is the engine side of incremental region-grouped solving:
// the gate deciding when the mode applies, the group worker that claims
// whole region groups off an atomic cursor, and solveGroup, which
// decides every member of a group on the worker's persistent CDCL
// instance under assumptions. The instance holds the fault-free circuit
// for the whole run; a group only adds its faulty cones and gated
// clauses and retires them when done. The retry tiers reuse solveGroup
// over their own re-grouped queues (resilience.go), so a retried fault
// also benefits from clauses learned by its region neighbors and by
// every earlier group on the worker.

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// incrementalEnabled reports whether the run uses the incremental
// region-grouped path. It requires the DPLL solver family: the
// incremental core is the DPLL engine plus assumptions and clause
// retention, so any other configured solver (Simple, Caching, a custom
// implementation) falls back to fresh-per-fault solving rather than
// silently changing solvers. Learning-disabled ablation configurations
// fall back too — retention without learning is a no-op.
func (e *Engine) incrementalEnabled(opt RunOptions) bool {
	if !opt.Incremental {
		return false
	}
	switch s := e.Solver.(type) {
	case nil:
		return true
	case *sat.DPLL:
		return !s.DisableLearning
	default:
		return false
	}
}

// routeEnabled reports whether the run uses cut-width-guided portfolio
// routing. Like incrementalEnabled it requires the DPLL solver family:
// the hard class solves on the incremental CDCL core and the fallback
// path behind PODEM is a CDCL solve, so any other configured solver
// falls back to the unrouted engine rather than silently changing
// solvers.
func (e *Engine) routeEnabled(opt RunOptions) bool {
	if !opt.Route {
		return false
	}
	switch s := e.Solver.(type) {
	case nil:
		return true
	case *sat.DPLL:
		return !s.DisableLearning
	default:
		return false
	}
}

// goodInstance returns an incremental instance holding c's fault-free
// circuit and the Mark every fault retires to, configured with the
// engine solver's conflict bound; w is the clause writer the load goes
// through. With scratch reuse the instance is the arena's and the
// circuit is loaded once per worker per run (again only after a panic
// replaced the arena); without it each call loads a fresh instance.
func (e *Engine) goodInstance(c *logic.Circuit, ws *workerScratch, w *cnf.ClauseWriter) (*sat.Incremental, sat.Mark, error) {
	var inc *sat.Incremental
	if ws != nil {
		inc = ws.arena.Incremental()
	} else {
		inc = sat.NewIncremental()
	}
	if d, ok := e.Solver.(*sat.DPLL); ok {
		inc.MaxConflicts = d.MaxConflicts
	}
	if ws != nil && ws.good == c {
		return inc, ws.goodMark, nil
	}
	if ws != nil {
		ws.good = nil // until the load below completes
	}
	if err := loadGood(inc, c, w); err != nil {
		return nil, sat.Mark{}, err
	}
	mark := inc.Mark()
	if ws != nil {
		ws.good, ws.goodMark = c, mark
	}
	return inc, mark, nil
}

// groupEmit receives one member's decided result. The main sweep
// publishes it to the speculative slot and offers to advance the commit
// frontier; the retry tiers adopt it directly into the results array.
// solveGroup calls it in group (dispatch) order, skipping members whose
// drop bit was set before their solve.
type groupEmit func(i int, res Result) error

// runGroupWorker is runWorker for the incremental path: workers claim
// whole region groups (one atomic add each — a group is already a
// chunk) and solve every member on the worker's persistent instance.
func (e *Engine) runGroupWorker(ctx context.Context, st *runState, worker int, ws *workerScratch) error {
	var shrinkSeen int64
	for {
		if ctx.Err() != nil {
			return nil
		}
		st.maybeShrink(ws, worker, &shrinkSeen)
		gi := int(st.groupCursor.Add(1) - 1)
		if gi >= len(st.groups) {
			return nil
		}
		g := &st.groups[gi]
		err := e.solveGroup(ctx, st, st.order, g, ws, worker, &shrinkSeen, st.sweepSpan, st.opt.PerFaultBudget, func(i int, res Result) error {
			if res.Status == Errored {
				st.dumpRingOnce("fault panic recovered", true)
			}
			if st.droppedF.get(i) {
				// Dropped between the solve and the publish: the official
				// verdict is "dropped", so the solve is discarded.
				st.countWasted(1)
				if st.effort != nil {
					st.recordEffort(ws, i, &res, "dropped", res.Status, 0, worker, true)
				}
				return nil
			}
			st.published[i].Store(&specResult{res: res, worker: int32(worker)})
			return st.kickCommit(ws, worker)
		})
		if err != nil {
			return err
		}
	}
}

// solveGroup decides every undropped member of one region group on the
// worker's incremental instance, one member at a time (solveIncremental).
// Members dropped before their turn are skipped without a solve, like a
// fresh-path fault dropped before its claim. A panic anywhere in the
// group becomes Errored results for the members not yet emitted, and
// the worker's arena is replaced (sticky shrink caps carried over), so
// the next group reloads the good circuit into a clean instance.
//
// order is the dispatch array g's span indexes into; budget, when
// positive, bounds each member's solve separately. Verdicts and vectors
// are independent of group size and timing: the solver's lex-first
// branching over the circuit's inputs makes each member's first model
// project to the lex-least input assignment, whatever clauses retention
// has added — see sat.Incremental's determinism contract.
func (e *Engine) solveGroup(ctx context.Context, st *runState, order []int32, g *faultGroup, ws *workerScratch, worker int, shrinkSeen *int64, parent obs.SpanContext, budget time.Duration, emit groupEmit) (err error) {
	tel := st.opt.Telemetry
	members := order[g.start:g.end]
	emitted := make([]bool, len(members))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ws != nil {
			ws.replaceArena()
		}
		msg := fmt.Sprintf("panic: %v", r)
		stack := string(debug.Stack())
		for k, idx := range members {
			i := int(idx)
			if emitted[k] || st.droppedF.get(i) {
				continue
			}
			res := Result{
				Fault: st.faults[i], Status: Errored, Err: msg, Stack: stack,
				Group: g.id + 1, GroupSize: len(members),
			}
			if eerr := emit(i, res); eerr != nil && err == nil {
				err = eerr
			}
		}
	}()

	gspan := tel.startSpan("group", parent)
	if gspan.Active() {
		gspan.Worker = worker
		gspan.Detail = fmt.Sprintf("region-%d", g.region)
		gspan.Items = int64(len(members))
	}
	defer gspan.End()
	st.ring.Record("group", worker, int64(g.id), int64(len(members)), 0)

	for k, idx := range members {
		i := int(idx)
		if st.droppedF.get(i) {
			continue
		}
		if ctx.Err() != nil {
			return nil
		}
		// Between members the instance is fully backtracked, so a
		// watchdog-driven shrink can reduce the learned DB here — a
		// 64-member group must not outrun the memory watchdog.
		st.maybeShrink(ws, worker, shrinkSeen)
		if e.testHookPanic != nil {
			e.testHookPanic(st.faults[i])
		}
		fspan := tel.startSpan("fault", gspan.Context())
		if fspan.Active() {
			fspan.Worker = worker
			fspan.Detail = st.faults[i].Name(st.c)
		}
		res, err := e.solveIncremental(st.c, st.faults[i], ws, sat.Limits{Cancel: ctx.Done()}, budget)
		fspan.Items = res.SolverStats.SearchEffort()
		fspan.End()
		if err != nil {
			return err
		}
		res.Group, res.GroupSize = g.id+1, len(members)
		st.ring.Record("solve", worker, int64(i), int64(res.Status), res.Elapsed.Nanoseconds())
		if ctx.Err() != nil {
			// The abort is a draining artifact, not a verdict.
			return nil
		}
		emitted[k] = true
		if err = emit(i, res); err != nil {
			return err
		}
	}
	return nil
}

// solveIncremental decides fault f on the worker's persistent instance:
// it walks the fault's cone, loads the good circuit if the instance
// holds none yet (see goodInstance: once per worker per run, or per
// fault without scratch reuse), appends f's clauses, solves under its
// selector and retires the clauses again — keeping what was learned
// about the good circuit for the next fault. BuildElapsed covers the
// cone walk, the encode and a load this fault triggered, so summed
// phase times count the load exactly once. lim bounds the solve;
// budget, when positive, adds a deadline that starts after the build,
// so a fault that pays for the good-circuit load does not lose its
// search time to it. A panic leaves f's clauses in the instance; the
// caller's recovery replaces the arena, and with it the instance.
func (e *Engine) solveIncremental(c *logic.Circuit, f Fault, ws *workerScratch, lim sat.Limits, budget time.Duration) (Result, error) {
	res := Result{Fault: f}
	var m *incMiter
	if ws != nil {
		m = &ws.miter
	} else {
		m = new(incMiter)
	}
	buildStart := time.Now()
	observable, err := m.prepare(c, f)
	if err != nil {
		return res, err
	}
	if !observable {
		res.Status = Untestable
		res.BuildElapsed = time.Since(buildStart)
		return res, nil
	}
	inc, mark, err := e.goodInstance(c, ws, &m.w)
	if err != nil {
		return res, err
	}
	var sol sat.Solution
	if err = m.encode(inc); err == nil {
		res.BuildElapsed = time.Since(buildStart)
		res.Vars, res.Clauses = inc.NumVars(), inc.NumClauses()
		start := time.Now()
		if budget > 0 {
			lim.Deadline = start.Add(budget)
		}
		sol = inc.SolveAssuming([]cnf.Lit{m.assumption()}, lim)
		res.Elapsed = time.Since(start)
	}
	inc.Retire(mark)
	if err != nil {
		return res, err
	}
	res.SolverStats = sol.Stats
	switch sol.Status {
	case sat.Sat:
		res.Status = Detected
		res.Vector = extractTest(c, sol.Model)
		if e.VerifyTests && !VerifyTest(c, f, res.Vector) {
			return res, fmt.Errorf("atpg: generated vector fails to detect %s (pipeline bug)", f.Name(c))
		}
	case sat.Unsat:
		res.Status = Untestable
	default:
		res.Status = Aborted
	}
	return res, nil
}
