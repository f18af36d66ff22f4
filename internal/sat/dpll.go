package sat

import (
	"atpgeasy/internal/cnf"
)

// DPLL is the production solver used as the TEGUS stand-in: iterative
// search with two-watched-literal unit propagation, first-UIP conflict
// clause learning, activity-driven decisions with phase saving, and
// geometric restarts. MaxConflicts, when positive, aborts with Unknown.
// Limits adds deadline/cancellation aborts.
type DPLL struct {
	MaxConflicts int64
	// DisableLearning turns off conflict clause recording (pure DPLL with
	// non-chronological backtracking disabled); used by ablation benches.
	DisableLearning bool
	Limits          Limits
}

// WithLimits returns a copy of the configuration with per-call limits.
func (d *DPLL) WithLimits(l Limits) Solver {
	cp := *d
	cp.Limits = l
	return &cp
}

// Solve decides satisfiability of f.
func (d *DPLL) Solve(f *cnf.Formula) Solution {
	st := newDPLLState(f, d)
	return st.run()
}

const litUndef = cnf.Lit(-1)

type dpllState struct {
	cfg      *DPLL
	numVars  int
	clauses  [][]cnf.Lit // problem + learned clauses
	nProblem int

	watches  [][]int32 // per literal: clause indices watching that literal
	assign   []cnf.Value
	level    []int32
	reason   []int32 // clause index, or -1 for decisions/assumptions
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap
	phase    []bool
	seen     []bool

	stats  Stats
	failed bool // UNSAT established at level 0
}

func newDPLLState(f *cnf.Formula, cfg *DPLL) *dpllState {
	n := f.NumVars
	st := &dpllState{
		cfg:      cfg,
		numVars:  n,
		watches:  make([][]int32, 2*n),
		assign:   make([]cnf.Value, n),
		level:    make([]int32, n),
		reason:   make([]int32, n),
		activity: make([]float64, n),
		varInc:   1.0,
		phase:    make([]bool, n),
		seen:     make([]bool, n),
	}
	for i := range st.reason {
		st.reason[i] = -1
	}
	st.heap = newVarHeap(st.activity)
	for v := 0; v < n; v++ {
		st.heap.push(v)
	}
	// Clauses are copied into one slab sized up front and normalized in
	// place there: one allocation per formula, none per clause, and the
	// caller's formula is never mutated.
	slab := make([]cnf.Lit, 0, f.NumLiterals())
	for _, c := range f.Clauses {
		start := len(slab)
		slab = append(slab, c...)
		norm, taut := cnf.Clause(slab[start:]).Normalize()
		slab = slab[:start]
		if taut {
			continue
		}
		switch len(norm) {
		case 0:
			st.failed = true
		case 1:
			if !st.enqueue(norm[0], -1) {
				st.failed = true
			}
		default:
			end := start + len(norm)
			slab = slab[:end]
			st.addClause(slab[start:end:end])
		}
		// Bump initial activity by occurrence so early decisions favor
		// frequently constrained variables.
		for _, l := range norm {
			st.activity[l.Var()] += 0.1
		}
	}
	st.heap.rebuild(st.numVars)
	return st
}

func (st *dpllState) addClause(lits []cnf.Lit) int32 {
	ci := int32(len(st.clauses))
	st.clauses = append(st.clauses, lits)
	st.watches[lits[0]] = append(st.watches[lits[0]], ci)
	st.watches[lits[1]] = append(st.watches[lits[1]], ci)
	return ci
}

func (st *dpllState) litValue(l cnf.Lit) cnf.Value {
	v := st.assign[l.Var()]
	if v == cnf.Unassigned {
		return cnf.Unassigned
	}
	if (v == cnf.True) != l.IsNeg() {
		return cnf.True
	}
	return cnf.False
}

// enqueue asserts literal l with the given reason clause. It reports false
// if l is already false (conflict at the caller's level).
func (st *dpllState) enqueue(l cnf.Lit, reason int32) bool {
	switch st.litValue(l) {
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

// propagate performs unit propagation; it returns the index of a
// conflicting clause or -1.
func (st *dpllState) propagate() int32 {
	for st.qhead < len(st.trail) {
		p := st.trail[st.qhead]
		st.qhead++
		st.stats.Propagations++
		falseLit := p.Not()
		ws := st.watches[falseLit]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := st.clauses[ci]
			// Ensure the falsified watch is c[1].
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			if st.litValue(c[0]) == cnf.True {
				kept = append(kept, ci)
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if st.litValue(c[k]) != cnf.False {
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
			if !st.enqueue(c[0], ci) {
				// Conflict: restore remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				st.watches[falseLit] = kept
				return ci
			}
		}
		st.watches[falseLit] = kept
	}
	return -1
}

func (st *dpllState) decisionLevel() int { return len(st.trailLim) }

// Activity rescale parameters shared by the DPLL and Incremental
// solvers: when any activity exceeds activityLimit, all activities and
// the bump increment are scaled down together so their ratios — and
// therefore the decision order — are preserved exactly.
const (
	activityLimit   = 1e100
	activityRescale = 1e-100
)

// rescaleActivities scales every activity and the bump increment by
// activityRescale. Scaling varInc alongside the activities is what
// keeps future bumps proportionate: rescaling only the activity array
// would make the next bumps 1e100 times too strong, collapsing the
// decision order to recency and degrading long incremental runs.
func rescaleActivities(activity []float64, varInc *float64) {
	for i := range activity {
		activity[i] *= activityRescale
	}
	*varInc *= activityRescale
}

func (st *dpllState) bumpVar(v int) {
	st.activity[v] += st.varInc
	if st.activity[v] > activityLimit {
		rescaleActivities(st.activity, &st.varInc)
	}
	st.heap.update(v)
}

// analyze derives a 1-UIP learned clause from the conflict and returns it
// with the backjump level.
func (st *dpllState) analyze(confl int32) ([]cnf.Lit, int) {
	learnt := []cnf.Lit{litUndef}
	counter := 0
	p := litUndef
	index := len(st.trail) - 1
	for {
		c := st.clauses[confl]
		for _, q := range c {
			if q == p {
				continue
			}
			v := q.Var()
			if !st.seen[v] && st.level[v] > 0 {
				st.seen[v] = true
				st.bumpVar(v)
				if int(st.level[v]) == st.decisionLevel() {
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
	// Backjump level: highest level among the non-asserting literals.
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(st.level[learnt[i].Var()]) > back {
			back = int(st.level[learnt[i].Var()])
		}
	}
	for _, l := range learnt[1:] {
		st.seen[l.Var()] = false
	}
	return learnt, back
}

// cancelUntil pops the trail back to the given decision level.
func (st *dpllState) cancelUntil(lvl int) {
	if st.decisionLevel() <= lvl {
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
}

func (st *dpllState) pickBranchVar() int {
	for st.heap.size() > 0 {
		v := st.heap.pop()
		if st.assign[v] == cnf.Unassigned {
			return v
		}
	}
	return -1
}

func (st *dpllState) run() Solution {
	if st.cfg.Limits.expired() {
		return Solution{Status: Unknown, Stats: st.stats}
	}
	if st.failed {
		return Solution{Status: Unsat, Stats: st.stats}
	}
	if confl := st.propagate(); confl >= 0 {
		return Solution{Status: Unsat, Stats: st.stats}
	}
	restartLimit := int64(100)
	conflictsAtRestart := int64(0)
	var steps int64
	for {
		steps++
		if steps%limitCheck == 0 && st.cfg.Limits.expired() {
			return Solution{Status: Unknown, Stats: st.stats}
		}
		confl := st.propagate()
		if confl >= 0 {
			st.stats.Conflicts++
			conflictsAtRestart++
			if st.decisionLevel() == 0 {
				return Solution{Status: Unsat, Stats: st.stats}
			}
			if st.cfg.MaxConflicts > 0 && st.stats.Conflicts > st.cfg.MaxConflicts {
				return Solution{Status: Unknown, Stats: st.stats}
			}
			if st.cfg.DisableLearning {
				// Chronological backtracking: flip the most recent decision
				// that still has an untried branch. We emulate by learning
				// nothing and backjumping one level, asserting the negation
				// of the last decision.
				lastDecision := st.trail[st.trailLim[st.decisionLevel()-1]]
				st.cancelUntil(st.decisionLevel() - 1)
				if !st.enqueue(lastDecision.Not(), -1) {
					return Solution{Status: Unsat, Stats: st.stats}
				}
				// Note: without learning this can revisit work; the reprise
				// is bounded by MaxConflicts in the ablation benches.
				continue
			}
			learnt, back := st.analyze(confl)
			st.cancelUntil(back)
			if len(learnt) == 1 {
				if !st.enqueue(learnt[0], -1) {
					return Solution{Status: Unsat, Stats: st.stats}
				}
			} else {
				ci := st.addClause(learnt)
				st.stats.Learned++
				if !st.enqueue(learnt[0], ci) {
					return Solution{Status: Unsat, Stats: st.stats}
				}
			}
			st.varInc /= 0.95
			continue
		}
		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restartLimit = restartLimit * 3 / 2
			st.cancelUntil(0)
			continue
		}
		v := st.pickBranchVar()
		if v < 0 {
			model := make([]bool, st.numVars)
			for i := range model {
				model[i] = st.assign[i] == cnf.True
			}
			return Solution{Status: Sat, Model: model, Stats: st.stats}
		}
		st.stats.Decisions++
		if st.decisionLevel()+1 > st.stats.MaxDepth {
			st.stats.MaxDepth = st.decisionLevel() + 1
		}
		st.trailLim = append(st.trailLim, len(st.trail))
		st.enqueue(cnf.NewLit(v, !st.phase[v]), -1)
	}
}

// varHeap is an indexed max-heap over variable activities.
type varHeap struct {
	act  []float64
	heap []int
	pos  []int // var → heap index, -1 if absent
}

func newVarHeap(act []float64) *varHeap {
	h := &varHeap{act: act, pos: make([]int, len(act))}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *varHeap) size() int           { return len(h.heap) }
func (h *varHeap) contains(v int) bool { return h.pos[v] >= 0 }

func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v])
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}

// reset empties the heap, keeping its buffers.
func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	h.pos = h.pos[:0]
	h.act = h.act[:0]
}

// grow pushes variable v, extending pos to cover it; v must equal
// len(pos) (variables are added in order) and act must already cover it.
func (h *varHeap) grow(v int) {
	h.pos = append(h.pos, -1)
	h.push(v)
}

// remove deletes v from the heap if present.
func (h *varHeap) remove(v int) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	h.pos[v] = -1
	last := len(h.heap) - 1
	u := h.heap[last]
	h.heap = h.heap[:last]
	if i == last {
		return
	}
	h.heap[i] = u
	h.pos[u] = i
	h.down(i)
	h.up(h.pos[u])
}

// rebuild re-heapifies after bulk activity initialization.
func (h *varHeap) rebuild(n int) {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.act[h.heap[parent]] >= h.act[v] {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.act[h.heap[r]] > h.act[h.heap[l]] {
			best = r
		}
		if h.act[h.heap[best]] <= h.act[v] {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.pos[v] = i
}
