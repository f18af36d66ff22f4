package sat

import (
	"sort"

	"atpgeasy/internal/cnf"
)

// Incremental is an assumption-based CDCL solver whose learned clauses,
// variable activities, and saved phases survive across calls — and
// across formula edits. Its lifecycle is the MiniSat incremental
// interface extended with retirement:
//
//  1. Reset (or Load) starts a formula: a variable count and a branching
//     priority order, then clauses written through AddClause or
//     AddClauses. This is the only cold start.
//  2. Mark snapshots the formula; AddVars and further clauses extend it.
//  3. SolveAssuming queries it any number of times under assumption
//     literals.
//  4. Retire rolls the formula back to a Mark: every variable added
//     since, every clause added since, and every learned clause, trail
//     entry, reason, watch and heap entry that mentions a retired
//     variable is removed. Learned clauses over the surviving
//     variables are kept. Then 2–4 repeat.
//
// The ATPG engine loads a worker's fault-free circuit once per run,
// marks it, and per fault appends the faulty cone and selector-gated
// activation and observability clauses, solves under the selector, and
// retires them.
//
// Retirement is sound when the clauses added after the mark are a
// conservative extension of the marked formula G: every model of G
// extends to a model of the whole formula F. The engine's fault
// clauses are: faulty-cone gate clauses and observability XORs only
// define fresh variables as functions of older ones, and every other
// clause contains a negated selector literal, so setting the selector
// false satisfies it. F projected onto G's variables is then G itself,
// so a learned clause C over G's variables — implied by F, since
// conflict analysis resolves only over database clauses — is implied by
// G: a model of G that falsified C would extend to a model of F that
// falsified C. The same holds for level-0 facts about G's variables. A
// caller appending clauses that are not such an extension (say, a bare
// unit over an old variable) must not Retire across them.
//
// Determinism contract: when Reset or Load is given a priority variable
// list, every decision assigns the first unassigned priority variable
// to false before any activity-ordered decision is considered. The
// first model found then projects onto the priority variables as the
// lexicographically least assignment among all models consistent with
// the assumptions, regardless of which learned clauses happen to be in
// the database. This is what keeps solving on a persistent instance
// byte-identical to solving on a cold one: both extract the same
// lex-least test vector. Variables start at zero activity; the engine's
// instance branches on its priority inputs and propagates every other
// variable from them, so activity order matters only to formulas
// without a full priority order.
//
// An Incremental value is not safe for concurrent use; the ATPG engine
// keeps one per worker, held by the worker's Arena.
type Incremental struct {
	// MaxConflicts bounds the conflicts of a single SolveAssuming call
	// (0 = unbounded). The call returns Unknown when exhausted; the
	// instance stays valid and a retry resumes with all learned
	// clauses intact.
	MaxConflicts int64

	// LearnedLimit bounds the learned-clause database in bytes
	// (0 = DefaultLearnedLimit). When learned storage exceeds the
	// limit the database is reduced to half of it, worst clauses
	// (high LBD, low activity) first.
	LearnedLimit int64

	st incState
}

// DefaultLearnedLimit is the learned-clause byte budget when
// Incremental.LearnedLimit is zero.
const DefaultLearnedLimit = 16 << 20

// learnedShrinkFloor is the smallest budget ShrinkLearned imposes,
// mirroring cacheShrinkFloor on the arena cache: shrinking degrades
// clause reuse, it never disables the solver.
const learnedShrinkFloor = 64 << 10

// learnedRef offsets learned-clause references in watch lists, reasons
// and conflict results: a reference below it indexes problem, one at or
// above it indexes learned. Problem clauses can then be appended after
// learned ones exist without renumbering either set.
const learnedRef = 1 << 30

// incState carries the persistent solver state between SolveAssuming
// calls. The layout mirrors dpllState so the two solvers stay easy to
// diff; the incremental additions are the clause slab (problem clauses
// are stored in the solver, normalized in place), per-learned-clause
// metadata (born call / LBD / activity), the priority branching order,
// and the failed latch that distinguishes global UNSAT from
// UNSAT-under-assumptions.
type incState struct {
	numVars int
	problem [][]cnf.Lit // problem clauses: views into slab
	pstart  []int32     // slab offset of each problem clause
	slab    []cnf.Lit   // backing storage for problem clause literals
	added   int         // clauses written since Reset (incl. units, tautologies)
	learned [][]cnf.Lit

	watches  [][]int32
	assign   []cnf.Value
	level    []int32
	reason   []int32
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap
	phase    []bool
	seen     []bool

	// priority holds the branching variables decided lex-first: every
	// decision takes priority[prioCursor] (the first unassigned entry)
	// and assigns it false before any heap decision is considered.
	// prioCursor only moves forward within one decision sequence and
	// resets on every backtrack.
	priority   []int
	prioCursor int

	// Learned-clause metadata, parallel to learned.
	born         []int64 // SolveAssuming call number that learned it
	lbd          []int32 // distinct decision levels at learn time (glue)
	act          []float64
	claInc       float64
	learnedBytes int64

	analyzeBuf []cnf.Lit // conflict-analysis scratch
	remap      []int32   // Retire scratch: old learned index -> new, or -1

	calls  int64 // SolveAssuming invocations since Reset
	failed bool  // conflict at level 0: UNSAT regardless of assumptions

	stats Stats // per-call, reset by SolveAssuming
}

// Mark is a snapshot of an Incremental formula's size, taken by Mark and
// restored by Retire.
type Mark struct {
	vars, problem, slab, added int
}

// NewIncremental returns an empty incremental solver; call Reset or
// Load before SolveAssuming.
func NewIncremental() *Incremental { return &Incremental{} }

// clauseBytes approximates the heap footprint of one learned clause:
// the literal array plus slice header and metadata entries.
func clauseBytes(n int) int64 { return int64(16*n + 48) }

func (s *Incremental) effectiveLearnedLimit() int64 {
	if s.LearnedLimit > 0 {
		return s.LearnedLimit
	}
	return DefaultLearnedLimit
}

// LearnedBytes reports the current learned-clause storage.
func (s *Incremental) LearnedBytes() int64 { return s.st.learnedBytes }

// NumLearned reports the learned clauses currently in the database.
func (s *Incremental) NumLearned() int { return len(s.st.learned) }

// NumVars reports the formula's current variable count.
func (s *Incremental) NumVars() int { return s.st.numVars }

// NumClauses reports the clauses written since Reset and not retired,
// counting units and tautologies the solver absorbed rather than
// stored.
func (s *Incremental) NumClauses() int { return s.st.added }

// ShrinkLearned halves the learned-clause budget (sticky, floored at
// learnedShrinkFloor) and immediately reduces the database to fit.
// Arena.Shrink calls it under memory pressure, between solves, when the
// owning worker's arena holds an incremental instance. It returns the
// new budget.
func (s *Incremental) ShrinkLearned() int64 {
	cur := s.effectiveLearnedLimit()
	next := cur / 2
	if next < learnedShrinkFloor {
		next = learnedShrinkFloor
	}
	s.LearnedLimit = next
	// Between calls the solver is fully backtracked, which reduceDB
	// requires; if called mid-search (it should not be), the reduction
	// waits for the next call boundary.
	if len(s.st.trailLim) == 0 && s.st.learnedBytes > next {
		s.reduceDB(next)
	}
	return next
}

// Failed reports whether the formula is unsatisfiable independent of
// any assumptions (a conflict was derived at decision level 0). Only
// then may a caller record an Unsat result as global. The latch
// survives Retire: a conservative extension cannot set it.
func (s *Incremental) Failed() bool { return s.st.failed }

// Reset starts a new, empty formula over n variables with branching
// priority order prio (may be nil for pure activity branching).
// Learned clauses, activities, phases and any Mark from the previous
// formula are discarded; buffers are kept for reuse.
func (s *Incremental) Reset(n int, prio []int) {
	st := &s.st
	st.numVars = 0
	st.failed = false
	st.calls = 0
	st.qhead = 0
	st.varInc = 1
	st.claInc = 1
	st.learnedBytes = 0
	st.prioCursor = 0
	st.added = 0
	st.trail = st.trail[:0]
	st.trailLim = st.trailLim[:0]
	st.born = st.born[:0]
	st.lbd = st.lbd[:0]
	st.act = st.act[:0]
	st.problem = st.problem[:0]
	st.pstart = st.pstart[:0]
	st.slab = st.slab[:0]
	st.learned = st.learned[:0]
	st.assign = st.assign[:0]
	st.level = st.level[:0]
	st.reason = st.reason[:0]
	st.activity = st.activity[:0]
	st.phase = st.phase[:0]
	st.seen = st.seen[:0]
	st.watches = st.watches[:0]
	if st.heap == nil {
		st.heap = &varHeap{}
	}
	st.heap.reset()
	st.priority = append(st.priority[:0], prio...)
	s.AddVars(n)
}

// Load resets the instance to formula f with branching priority order
// prio. The clauses are written into the solver's own storage; f is
// not retained and may alias encoder buffers the caller will
// overwrite.
func (s *Incremental) Load(f *cnf.Formula, prio []int) {
	s.Reset(f.NumVars, prio)
	for _, c := range f.Clauses {
		s.AddClause(c...)
	}
	if !s.st.failed && s.propagate() >= 0 {
		s.st.failed = true
	}
}

// AddVars appends n fresh variables and returns the first one's index.
func (s *Incremental) AddVars(n int) int {
	st := &s.st
	first := st.numVars
	st.numVars += n
	for v := first; v < st.numVars; v++ {
		st.assign = append(st.assign, cnf.Unassigned)
		st.level = append(st.level, 0)
		st.reason = append(st.reason, -1)
		st.activity = append(st.activity, 0)
		st.phase = append(st.phase, false)
		st.seen = append(st.seen, false)
	}
	for l := 2 * first; l < 2*st.numVars; l++ {
		if l < cap(st.watches) {
			st.watches = st.watches[:l+1]
			st.watches[l] = st.watches[l][:0]
		} else {
			st.watches = append(st.watches, nil)
		}
	}
	// The heap aliases the activity slice, which append may have
	// reallocated.
	st.heap.act = st.activity
	for v := first; v < st.numVars; v++ {
		st.heap.grow(v)
	}
	return first
}

// AddClause writes one clause. Its literals are copied into the
// solver's slab, normalized there in place, and simplified against the
// level-0 assignment: a clause already satisfied there is dropped, false
// literals are removed, a unit is asserted at level 0 (propagated by the
// next SolveAssuming), and an empty clause latches Failed. The
// simplification is sound across Retire because a level-0 fact is
// retired only together with the clauses that mention its variable.
// Clauses may only be written between SolveAssuming calls (at decision
// level 0).
func (s *Incremental) AddClause(lits ...cnf.Lit) {
	st := &s.st
	st.added++
	start := len(st.slab)
	if start+len(lits) > cap(st.slab) {
		s.growSlab(len(lits))
	}
	st.slab = append(st.slab, lits...)
	norm, taut := cnf.Clause(st.slab[start:]).Normalize()
	st.slab = st.slab[:start]
	if taut {
		return
	}
	w := 0
	for _, l := range norm {
		switch s.litValue(l) {
		case cnf.True:
			return
		case cnf.False:
			continue
		}
		norm[w] = l
		w++
	}
	switch w {
	case 0:
		st.failed = true
	case 1:
		s.enqueue(norm[0], -1)
	default:
		end := start + w
		st.slab = st.slab[:end]
		ci := int32(len(st.problem))
		st.problem = append(st.problem, st.slab[start:end:end])
		st.pstart = append(st.pstart, int32(start))
		st.watches[norm[0]] = append(st.watches[norm[0]], ci)
		st.watches[norm[1]] = append(st.watches[norm[1]], ci)
	}
}

// AddClauses writes every clause collected in w; see AddClause. With
// cnf.EmitGate filling w this takes gate clauses from a netlist into
// the solver with no intermediate Formula.
func (s *Incremental) AddClauses(w *cnf.ClauseWriter) {
	for i := 0; i < w.NumClauses(); i++ {
		s.AddClause(w.Clause(i)...)
	}
}

// growSlab reallocates the slab with room for at least need more
// literals and re-points every problem clause at the new backing array.
func (s *Incremental) growSlab(need int) {
	st := &s.st
	n := 2*cap(st.slab) + 256
	if n < len(st.slab)+need {
		n = len(st.slab) + need
	}
	slab := make([]cnf.Lit, len(st.slab), n)
	copy(slab, st.slab)
	for i, c := range st.problem {
		o := int(st.pstart[i])
		st.problem[i] = slab[o : o+len(c) : o+len(c)]
	}
	st.slab = slab
}

// Mark snapshots the formula for a later Retire. Call it between
// SolveAssuming calls.
func (s *Incremental) Mark() Mark {
	st := &s.st
	return Mark{vars: st.numVars, problem: len(st.problem), slab: len(st.slab), added: st.added}
}

// Retire rolls the formula back to mark m: the variables and problem
// clauses added since are removed, and so is every learned clause,
// level-0 trail entry, watch and heap entry that mentions a retired
// variable. Learned clauses and level-0 facts over the surviving
// variables stay — sound when everything added since m is a
// conservative extension of the marked formula (see the type comment).
// Reasons of the surviving level-0 facts are cleared, as reduceDB does:
// conflict analysis never follows a level-0 reason. Surviving facts not
// yet propagated stay queued for the next SolveAssuming.
func (s *Incremental) Retire(m Mark) {
	s.cancelUntil(0)
	st := &s.st
	n := m.vars

	st.problem = st.problem[:m.problem]
	st.pstart = st.pstart[:m.problem]
	st.slab = st.slab[:m.slab]
	st.added = m.added

	st.remap = sized(st.remap, len(st.learned))
	kept := 0
	var bytes int64
	for li, c := range st.learned {
		st.remap[li] = -1
		if !litsBelow(c, n) {
			continue
		}
		st.remap[li] = int32(kept)
		st.learned[kept] = c
		st.born[kept] = st.born[li]
		st.lbd[kept] = st.lbd[li]
		st.act[kept] = st.act[li]
		bytes += clauseBytes(len(c))
		kept++
	}
	clear(st.learned[kept:])
	st.learned = st.learned[:kept]
	st.born = st.born[:kept]
	st.lbd = st.lbd[:kept]
	st.act = st.act[:kept]
	st.learnedBytes = bytes

	// Surviving facts keep their order, and with it their propagation
	// state: only the survivors among the entries propagate had already
	// consumed count as done. Facts still pending — units written by
	// AddClause, or a learned unit, that no propagate has visited yet
	// because the call aborted on a limit first — stay pending for the
	// next SolveAssuming; marking them done would leave their watches
	// unvisited and the clauses they falsify unwatched.
	w, done := 0, 0
	for i, l := range st.trail {
		if v := l.Var(); v < n {
			st.trail[w] = l
			st.reason[v] = -1
			w++
			if i < st.qhead {
				done = w
			}
		}
	}
	st.trail = st.trail[:w]
	st.qhead = done

	st.watches = st.watches[:2*n]
	for l, ws := range st.watches {
		out := ws[:0]
		for _, ci := range ws {
			if ci < learnedRef {
				if int(ci) < m.problem {
					out = append(out, ci)
				}
			} else if r := st.remap[ci-learnedRef]; r >= 0 {
				out = append(out, learnedRef+r)
			}
		}
		st.watches[l] = out
	}

	for v := n; v < st.numVars; v++ {
		st.heap.remove(v)
	}
	st.numVars = n
	st.assign = st.assign[:n]
	st.level = st.level[:n]
	st.reason = st.reason[:n]
	st.activity = st.activity[:n]
	st.phase = st.phase[:n]
	st.seen = st.seen[:n]
	st.heap.act = st.activity
	st.heap.pos = st.heap.pos[:n]
}

// litsBelow reports whether every literal of c is over a variable < n.
func litsBelow(c []cnf.Lit, n int) bool {
	for _, l := range c {
		if l.Var() >= n {
			return false
		}
	}
	return true
}

// clause returns the clause a watch, reason or conflict reference names.
func (st *incState) clause(ci int32) []cnf.Lit {
	if ci < learnedRef {
		return st.problem[ci]
	}
	return st.learned[ci-learnedRef]
}

// Solve implements the Solver interface: one-shot solving without
// assumptions or priority order, Loading f fresh.
func (s *Incremental) Solve(f *cnf.Formula) Solution {
	s.Load(f, nil)
	return s.SolveAssuming(nil, Limits{})
}

// SolveAssuming searches for a model of the loaded formula under the
// given assumption literals. Outcomes:
//
//   - Sat: Model is a satisfying assignment consistent with the
//     assumptions; with a priority order its projection onto the
//     priority variables is lex-least.
//   - Unsat: no model under these assumptions. The formula itself may
//     still be satisfiable under other assumptions unless Failed()
//     reports true — callers must not record a plain Unsat as global.
//   - Unknown: MaxConflicts or Limits exhausted; the instance remains
//     valid and a retry resumes with all learned clauses intact.
//
// The solver is left fully backtracked on return, ready for the next
// call. Per-call Stats report LearnedKept (clauses surviving from
// earlier calls), LearnedReused (of those, ones that participated in
// this call's conflict analyses), and ClauseDBBytes (learned storage
// at call end).
func (s *Incremental) SolveAssuming(assumps []cnf.Lit, lim Limits) Solution {
	st := &s.st
	st.calls++
	st.stats = Stats{LearnedKept: int64(len(st.born))}
	defer s.cancelUntil(0)

	// finish backtracks, enforces the learned budget (reduction needs
	// level 0, so call boundaries and restarts are where it runs), and
	// snapshots the DB gauge. Models are extracted before finish.
	finish := func(status Status, model []bool) Solution {
		s.cancelUntil(0)
		if st.learnedBytes > s.effectiveLearnedLimit() {
			s.reduceDB(s.effectiveLearnedLimit())
		}
		st.stats.ClauseDBBytes = st.learnedBytes
		return Solution{Status: status, Model: model, Stats: st.stats}
	}

	if st.failed {
		return finish(Unsat, nil)
	}
	if lim.expired() {
		return finish(Unknown, nil)
	}
	// A previous call may have left the database over a freshly
	// shrunk budget; reduce before searching.
	if st.learnedBytes > s.effectiveLearnedLimit() {
		s.reduceDB(s.effectiveLearnedLimit())
	}

	restartLimit := int64(100)
	var conflicts, conflictsAtRestart, steps int64
	for {
		steps++
		if steps%limitCheck == 0 && lim.expired() {
			return finish(Unknown, nil)
		}
		confl := s.propagate()
		if confl >= 0 {
			st.stats.Conflicts++
			conflicts++
			conflictsAtRestart++
			if len(st.trailLim) == 0 {
				// Conflict with no decisions or assumptions on the
				// trail: globally UNSAT.
				st.failed = true
				return finish(Unsat, nil)
			}
			if len(st.trailLim) <= len(assumps) {
				// Every decision level on the trail is an assumption
				// level, so the conflict refutes the assumptions, not
				// the formula: Unsat for this call only. If a clause
				// learned in an earlier call delivered the refutation,
				// credit the reuse counter — this is the common case
				// where retention short-circuits a whole re-proof.
				if confl >= learnedRef && st.born[confl-learnedRef] < st.calls {
					st.stats.LearnedReused++
				}
				return finish(Unsat, nil)
			}
			if s.MaxConflicts > 0 && conflicts > s.MaxConflicts {
				return finish(Unknown, nil)
			}
			learnt, back := s.analyze(confl)
			// Backjumping below the assumption prefix is allowed:
			// the decision loop re-asserts popped assumptions. A unit
			// learnt lands at level 0 and persists across calls — it
			// is implied by the formula alone, since conflict analysis
			// resolves only over clauses of the database.
			s.cancelUntil(back)
			if !s.learn(learnt) {
				st.failed = true
				return finish(Unsat, nil)
			}
			st.varInc /= 0.95
			s.decayClauseActivity()
			continue
		}

		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restartLimit = restartLimit * 3 / 2
			s.cancelUntil(0)
			if st.learnedBytes > s.effectiveLearnedLimit() {
				s.reduceDB(s.effectiveLearnedLimit())
			}
			continue
		}

		// Assert the next pending assumption, one decision level per
		// assumption. An assumption already true still pushes a dummy
		// level so trail levels map 1:1 onto assumption indices; an
		// assumption already false contradicts the formula or an
		// earlier assumption — Unsat for this call.
		if lvl := len(st.trailLim); lvl < len(assumps) {
			a := assumps[lvl]
			switch s.litValue(a) {
			case cnf.True:
				st.trailLim = append(st.trailLim, len(st.trail))
			case cnf.False:
				return finish(Unsat, nil)
			default:
				st.stats.Decisions++
				st.trailLim = append(st.trailLim, len(st.trail))
				s.enqueue(a, -1)
			}
			continue
		}

		l := s.pickBranch()
		if l == litUndef {
			model := make([]bool, st.numVars)
			for i := range model {
				model[i] = st.assign[i] == cnf.True
			}
			return finish(Sat, model)
		}
		st.stats.Decisions++
		if d := len(st.trailLim) + 1; d > st.stats.MaxDepth {
			st.stats.MaxDepth = d
		}
		st.trailLim = append(st.trailLim, len(st.trail))
		s.enqueue(l, -1)
	}
}

func (s *Incremental) litValue(l cnf.Lit) cnf.Value {
	v := s.st.assign[l.Var()]
	if v == cnf.Unassigned {
		return cnf.Unassigned
	}
	if (v == cnf.True) != l.IsNeg() {
		return cnf.True
	}
	return cnf.False
}

// enqueue asserts literal l with the given reason clause index,
// reporting false if l is already false.
func (s *Incremental) enqueue(l cnf.Lit, reason int32) bool {
	st := &s.st
	switch s.litValue(l) {
	case cnf.True:
		return true
	case cnf.False:
		return false
	}
	v := l.Var()
	st.assign[v] = cnf.ValueOf(!l.IsNeg())
	st.level[v] = int32(len(st.trailLim))
	st.reason[v] = reason
	st.trail = append(st.trail, l)
	return true
}

// propagate performs two-watched-literal unit propagation, returning
// the index of a conflicting clause or -1. Structurally identical to
// dpllState.propagate.
func (s *Incremental) propagate() int32 {
	st := &s.st
	for st.qhead < len(st.trail) {
		p := st.trail[st.qhead]
		st.qhead++
		st.stats.Propagations++
		falseLit := p.Not()
		ws := st.watches[falseLit]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := st.clause(ci)
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			if s.litValue(c[0]) == cnf.True {
				kept = append(kept, ci)
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if s.litValue(c[k]) != cnf.False {
					c[1], c[k] = c[k], c[1]
					st.watches[c[1]] = append(st.watches[c[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, ci)
			if !s.enqueue(c[0], ci) {
				kept = append(kept, ws[wi+1:]...)
				st.watches[falseLit] = kept
				return ci
			}
		}
		st.watches[falseLit] = kept
	}
	return -1
}

// bumpVar bumps a variable's VSIDS activity, rescaling activities and
// varInc together on overflow via the helper shared with DPLL.
func (s *Incremental) bumpVar(v int) {
	st := &s.st
	st.activity[v] += st.varInc
	if st.activity[v] > activityLimit {
		rescaleActivities(st.activity, &st.varInc)
	}
	st.heap.update(v)
}

// analyze derives the 1-UIP learned clause for conflict confl and the
// backjump level, mirroring dpllState.analyze. It additionally bumps
// the activity of every learned clause on the conflict chain and
// counts toward Stats.LearnedReused the ones born in earlier calls —
// the direct measure of cross-fault knowledge reuse.
func (s *Incremental) analyze(confl int32) ([]cnf.Lit, int) {
	st := &s.st
	learnt := append(st.analyzeBuf[:0], litUndef)
	counter := 0
	p := litUndef
	index := len(st.trail) - 1
	for {
		if confl >= learnedRef {
			li := int(confl - learnedRef)
			s.bumpClause(li)
			if st.born[li] < st.calls {
				st.stats.LearnedReused++
			}
		}
		c := st.clause(confl)
		for _, q := range c {
			if q == p {
				continue
			}
			v := q.Var()
			if !st.seen[v] && st.level[v] > 0 {
				st.seen[v] = true
				s.bumpVar(v)
				if int(st.level[v]) == len(st.trailLim) {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !st.seen[st.trail[index].Var()] {
			index--
		}
		p = st.trail[index]
		index--
		st.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = st.reason[p.Var()]
	}
	learnt[0] = p.Not()
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(st.level[learnt[i].Var()]) > back {
			back = int(st.level[learnt[i].Var()])
		}
	}
	for _, l := range learnt[1:] {
		st.seen[l.Var()] = false
	}
	st.analyzeBuf = learnt
	return learnt, back
}

// learn installs a freshly derived clause and asserts learnt[0],
// recording born call, LBD, and activity for the reduction policy. It
// reports false on a root-level contradiction (global UNSAT).
func (s *Incremental) learn(learnt []cnf.Lit) bool {
	st := &s.st
	st.stats.Learned++
	if len(learnt) == 1 {
		return s.enqueue(learnt[0], -1)
	}
	cl := append([]cnf.Lit(nil), learnt...)
	// Watch the asserting literal and a deepest-level literal so the
	// clause stays correctly watched after the backjump.
	deepest := 1
	for i := 2; i < len(cl); i++ {
		if st.level[cl[i].Var()] > st.level[cl[deepest].Var()] {
			deepest = i
		}
	}
	cl[1], cl[deepest] = cl[deepest], cl[1]
	ci := int32(learnedRef + len(st.learned))
	st.learned = append(st.learned, cl)
	st.watches[cl[0]] = append(st.watches[cl[0]], ci)
	st.watches[cl[1]] = append(st.watches[cl[1]], ci)
	st.born = append(st.born, st.calls)
	st.lbd = append(st.lbd, s.computeLBD(cl))
	st.act = append(st.act, st.claInc)
	st.learnedBytes += clauseBytes(len(cl))
	return s.enqueue(cl[0], ci)
}

// computeLBD counts distinct decision levels among the clause's
// literals (the "glue" of glucose-style reduction). Clauses are short,
// so the quadratic scan beats maintaining a per-level stamp array.
func (s *Incremental) computeLBD(cl []cnf.Lit) int32 {
	st := &s.st
	var lbd int32
	for i, l := range cl {
		lv := st.level[l.Var()]
		dup := false
		for _, m := range cl[:i] {
			if st.level[m.Var()] == lv {
				dup = true
				break
			}
		}
		if !dup {
			lbd++
		}
	}
	return lbd
}

// bumpClause bumps a learned clause's activity (li indexes the learned
// tail), rescaling all clause activities on overflow.
func (s *Incremental) bumpClause(li int) {
	st := &s.st
	st.act[li] += st.claInc
	if st.act[li] > activityLimit {
		for i := range st.act {
			st.act[i] *= activityRescale
		}
		st.claInc *= activityRescale
	}
}

func (s *Incremental) decayClauseActivity() {
	st := &s.st
	st.claInc /= 0.999
	if st.claInc > activityLimit {
		for i := range st.act {
			st.act[i] *= activityRescale
		}
		st.claInc *= activityRescale
	}
}

// cancelUntil backtracks to decision level lvl, saving phases. The
// priority cursor resets: lex branching restarts from the first
// priority variable after any backtrack.
func (s *Incremental) cancelUntil(lvl int) {
	st := &s.st
	if len(st.trailLim) <= lvl {
		return
	}
	bound := st.trailLim[lvl]
	for i := len(st.trail) - 1; i >= bound; i-- {
		v := st.trail[i].Var()
		st.phase[v] = st.assign[v] == cnf.True
		st.assign[v] = cnf.Unassigned
		st.reason[v] = -1
		if !st.heap.contains(v) {
			st.heap.push(v)
		}
	}
	st.trail = st.trail[:bound]
	st.trailLim = st.trailLim[:lvl]
	st.qhead = bound
	st.prioCursor = 0
}

// pickBranch returns the next decision literal: the first unassigned
// priority variable, always assigned false, else the highest-activity
// unassigned variable with its saved phase. litUndef means every
// variable is assigned (a model).
func (s *Incremental) pickBranch() cnf.Lit {
	st := &s.st
	for st.prioCursor < len(st.priority) {
		v := st.priority[st.prioCursor]
		if st.assign[v] == cnf.Unassigned {
			return cnf.NewLit(v, true)
		}
		st.prioCursor++
	}
	if len(st.trail) == st.numVars {
		// Everything is assigned — the common case once the priority
		// inputs are decided, since a circuit encoding propagates every
		// other variable from them. Draining the heap to find that out
		// would cost O(n log n) per model on a whole-circuit instance.
		return litUndef
	}
	for st.heap.size() > 0 {
		v := st.heap.pop()
		if st.assign[v] == cnf.Unassigned {
			return cnf.NewLit(v, !st.phase[v])
		}
	}
	return litUndef
}

// reduceDB drops learned clauses, worst (high LBD, low activity)
// first, until learned storage fits in half of budget. It requires
// decision level 0: level-0 reasons are cleared (conflict analysis
// never traverses level-0 variables, so they are never dereferenced)
// and every watch list is rebuilt. Deleting learned clauses never
// removes models, so the lex-least determinism contract is unaffected.
func (s *Incremental) reduceDB(budget int64) {
	st := &s.st
	nLearned := len(st.learned)
	if nLearned == 0 || len(st.trailLim) != 0 {
		return
	}
	for i := range st.reason {
		st.reason[i] = -1
	}

	// Rank learned clauses best-first with a stable index tiebreak so
	// reduction is deterministic.
	order := make([]int, nLearned)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if st.lbd[ia] != st.lbd[ib] {
			return st.lbd[ia] < st.lbd[ib]
		}
		if st.act[ia] != st.act[ib] {
			return st.act[ia] > st.act[ib]
		}
		return ia < ib
	})
	keep := make([]bool, nLearned)
	var kept int64
	target := budget / 2
	for _, li := range order {
		b := clauseBytes(len(st.learned[li]))
		if kept+b > target {
			continue
		}
		keep[li] = true
		kept += b
	}

	// Compact the learned clauses in place; problem clause references
	// are stable, learned ones are re-derived by the watch rebuild below.
	w := 0
	for li := 0; li < nLearned; li++ {
		if !keep[li] {
			continue
		}
		st.learned[w] = st.learned[li]
		st.born[w] = st.born[li]
		st.lbd[w] = st.lbd[li]
		st.act[w] = st.act[li]
		w++
	}
	clear(st.learned[w:])
	st.learned = st.learned[:w]
	st.born = st.born[:w]
	st.lbd = st.lbd[:w]
	st.act = st.act[:w]
	st.learnedBytes = kept

	// Rebuild every watch list, watching two non-false literals per
	// clause. After complete level-0 propagation a clause has either
	// two such literals or exactly one, which is then true on the
	// trail (a level-0 implied literal) — watching it with any second
	// literal is sound because the true watch short-circuits
	// propagation.
	for i := range st.watches {
		st.watches[i] = st.watches[i][:0]
	}
	for ci, c := range st.problem {
		s.rewatch(int32(ci), c)
	}
	for li, c := range st.learned {
		s.rewatch(int32(learnedRef+li), c)
	}
}

// rewatch moves two non-false literals of clause ci to its front and
// watches them (see reduceDB).
func (s *Incremental) rewatch(ci int32, c []cnf.Lit) {
	st := &s.st
	w0, w1 := -1, -1
	for k, l := range c {
		if s.litValue(l) != cnf.False {
			if w0 < 0 {
				w0 = k
			} else {
				w1 = k
				break
			}
		}
	}
	if w0 > 0 {
		c[0], c[w0] = c[w0], c[0]
		if w1 == 0 {
			w1 = w0
		}
	}
	if w1 > 1 {
		c[1], c[w1] = c[w1], c[1]
	}
	st.watches[c[0]] = append(st.watches[c[0]], ci)
	st.watches[c[1]] = append(st.watches[c[1]], ci)
}
