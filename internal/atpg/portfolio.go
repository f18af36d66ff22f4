package atpg

// The routed worker: the execution side of the cut-width-guided router
// (router.go). A routed run's dispatch order is hard-class region groups
// first, then the single-fault tail (structural → low-width → trivial);
// this file drains both phases and aims each single fault at its class
// backend — the PODEM structural engine, the Algorithm-1 caching
// backtracker, or a CDCL solve — behind the same per-fault panic
// barrier, speculative publish and deterministic commit frontier as the
// unrouted engine. Backends differ only in how a verdict is found, never
// in what it means: every path yields the same Detected / Untestable /
// Aborted statuses and a verified vector, so routed runs stay
// byte-identical at any worker count.

import (
	"context"
	"fmt"
	"time"

	"atpgeasy/internal/podem"
	"atpgeasy/internal/sat"
)

// Backend names as they appear in Result.Backend, effort records, the
// routed summary and the atpg_routed_total metric; backendFaultSim
// (telemetry.go) completes the set.
const (
	backendPodem   = "podem"
	backendCaching = "caching"
	backendCDCL    = "cdcl"
)

// runRoutedWorker is runWorker for the routed portfolio path. Phase one
// drains the hard-class prefix as region groups on the incremental CDCL
// backend (one atomic add per group, budget scaled by RouteHardScale);
// phase two claims the single-fault tail in chunks and solves each fault
// on its class backend. Both phases publish speculatively and commit
// through the shared deterministic frontier.
func (e *Engine) runRoutedWorker(ctx context.Context, st *runState, worker int, ws *workerScratch) error {
	tel := st.opt.Telemetry
	var shrinkSeen int64

	hardBudget := st.routedHardBudget()
	emit := func(i int, res Result) error {
		res.Backend = backendCDCL
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
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		st.maybeShrink(ws, worker, &shrinkSeen)
		gi := int(st.groupCursor.Add(1) - 1)
		if gi >= len(st.groups) {
			break
		}
		if err := e.solveGroup(ctx, st, st.order, &st.groups[gi], ws, worker, &shrinkSeen, st.sweepSpan, hardBudget, emit); err != nil {
			return err
		}
	}

	// Single-fault tail. Positions are relative to the hard prefix; the
	// shared cursor spans only the tail, so group claims and single
	// claims never collide.
	base := st.route.hardEnd
	cl := chunkClaimer{cursor: &st.cursor, n: len(st.order) - base, workers: st.workers}
	cl.onChunk = func(lo, hi int) {
		st.ring.Record("chunk", worker, int64(base+lo), int64(hi-lo), 0)
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		st.maybeShrink(ws, worker, &shrinkSeen)
		p := cl.next()
		if p < 0 {
			return nil
		}
		i := int(st.order[base+p])
		if st.droppedF.get(i) {
			continue // dropped by a committed vector since reservation
		}
		fspan := tel.startSpan("fault", st.sweepSpan)
		if fspan.Active() {
			fspan.Worker = worker
			fspan.Detail = st.faults[i].Name(st.c)
		}
		res, err := e.solveRouted(ctx, st, i, st.route.class[i], ws, st.opt.PerFaultBudget)
		fspan.Items = res.SolverStats.SearchEffort()
		fspan.End()
		st.ring.Record("solve", worker, int64(i), int64(res.Status), res.Elapsed.Nanoseconds())
		if err != nil {
			return err
		}
		if res.Status == Errored {
			st.dumpRingOnce("fault panic recovered", true)
		}
		if ctx.Err() != nil {
			// The abort is a draining artifact, not a verdict on the fault.
			return nil
		}
		if st.droppedF.get(i) {
			st.countWasted(1)
			if st.effort != nil {
				st.recordEffort(ws, i, &res, "dropped", res.Status, 0, worker, true)
			}
			continue
		}
		st.published[i].Store(&specResult{res: res, worker: int32(worker)})
		if err := st.kickCommit(ws, worker); err != nil {
			return err
		}
	}
}

// routedHardBudget is PerFaultBudget scaled by RouteHardScale for the
// hard class (0 stays 0: no budget means no deadline on any backend).
func (st *runState) routedHardBudget() time.Duration {
	b := st.opt.PerFaultBudget
	if b <= 0 {
		return 0
	}
	scale := st.opt.RouteHardScale
	if scale == 0 {
		scale = DefaultRouteHardScale
	}
	if scale < 1 {
		scale = 1
	}
	return time.Duration(float64(b) * scale)
}

// solveRouted decides one single-dispatched fault on its class backend,
// behind the engine's per-fault panic barrier. budget, when positive,
// bounds the whole attempt — for the structural class that includes both
// the PODEM search and its CDCL fallback, which inherits whatever of the
// deadline PODEM left unspent.
func (e *Engine) solveRouted(ctx context.Context, st *runState, i int, cls EffortClass, ws *workerScratch, budget time.Duration) (Result, error) {
	f := st.faults[i]
	return e.safeSolve(f, ws, func() (Result, error) {
		lim := sat.Limits{Cancel: ctx.Done()}
		if budget > 0 {
			lim.Deadline = time.Now().Add(budget)
		}
		switch cls {
		case ClassLowWidth:
			return e.solveCachingBackend(st, f, ws, lim)
		case ClassHard:
			// Hard faults normally solve in the grouped prefix; a single
			// hard solve only happens when retry escalation bumps a fault
			// here — on the worker's persistent instance, no group to join.
			res, err := e.solveIncremental(st.c, f, ws, lim, 0)
			res.Backend = backendCDCL
			return res, err
		default: // ClassTrivial, ClassStructural: survivors go through PODEM
			return e.solvePodemBackend(st, f, ws, lim)
		}
	})
}

// solveCachingBackend is the low-width class's backend: the Algorithm-1
// caching backtracker, polynomial on the bounded-cut-width sub-circuits
// the router sends it (the paper's own solver).
func (e *Engine) solveCachingBackend(st *runState, f Fault, ws *workerScratch, lim sat.Limits) (Result, error) {
	cs := &sat.Caching{CacheLimit: st.opt.CacheLimit}
	var solver sat.Solver = cs
	if !lim.IsZero() {
		solver = cs.WithLimits(lim)
	}
	res, err := e.testFaultOn(st.c, f, ws, solver)
	res.Backend = backendCaching
	return res, err
}

// solvePodemBackend is the structural (and trivial-survivor) backend:
// a PODEM search over the fault cone, SCOAP-guided, with a deterministic
// backtrack cap. A cap abort is a pure function of the circuit and the
// cap, so the CDCL fallback it triggers fires identically at any worker
// count; a deadline or cancellation abort is a budget artifact and stays
// Aborted like every other backend's.
func (e *Engine) solvePodemBackend(st *runState, f Fault, ws *workerScratch, lim sat.Limits) (Result, error) {
	maxBT := st.opt.PodemMaxBacktracks
	if maxBT == 0 {
		maxBT = DefaultPodemMaxBacktracks
	} else if maxBT < 0 {
		maxBT = 0 // explicit "unbounded" (no CDCL fallback either)
	}
	popt := podem.Options{
		MaxBacktracks: maxBT,
		Deadline:      lim.Deadline,
		Cancel:        lim.Cancel,
	}
	if sc := st.route.scoap; sc != nil {
		popt.CC0, popt.CC1 = sc.CC0, sc.CC1
	}
	start := time.Now()
	var pr podem.Result
	if ws != nil {
		if ws.podem == nil || ws.podem.Circuit() != st.c {
			ws.podem = podem.NewSearcher(st.c)
		}
		pr = ws.podem.Run(f.Net, f.StuckAt, popt)
	} else {
		pr = podem.Run(st.c, f.Net, f.StuckAt, popt)
	}
	res := Result{
		Fault:   f,
		Elapsed: time.Since(start),
		Backend: backendPodem,
		// PODEM's counters map onto the solver-stats vocabulary the effort
		// log and summary totals already speak: backtracks are search
		// nodes, implications are propagations. Conflicts stay 0 — routed
		// conflict totals measure CDCL work alone.
		SolverStats: sat.Stats{
			Nodes:        pr.Backtracks,
			Decisions:    pr.Decisions,
			Propagations: pr.Implications,
		},
	}
	switch pr.Status {
	case podem.Detected:
		res.Status = Detected
		res.Vector = pr.Vector(false)
		if e.VerifyTests && !VerifyTest(st.c, f, res.Vector) {
			return res, fmt.Errorf("atpg: generated vector fails to detect %s (pipeline bug)", f.Name(st.c))
		}
		return res, nil
	case podem.Untestable:
		res.Status = Untestable
		return res, nil
	}
	if maxBT > 0 && pr.Backtracks >= maxBT {
		// Deterministic cap abort → CDCL fallback on the remaining budget,
		// on the worker's persistent instance. The failed structural
		// attempt is real work, so its wall time and counters stay on the
		// fault's record.
		fb, err := e.solveIncremental(st.c, f, ws, lim, 0)
		fb.Backend = backendCDCL
		fb.Elapsed += res.Elapsed
		fb.SolverStats.Nodes += pr.Backtracks
		fb.SolverStats.Decisions += pr.Decisions
		fb.SolverStats.Propagations += pr.Implications
		return fb, err
	}
	res.Status = Aborted
	return res, nil
}
