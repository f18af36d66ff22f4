package sat

import (
	"math/rand"
	"testing"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// mirrorSink writes clauses into an Incremental and keeps a copy, so a
// test can brute-force the exact formula the solver was given. Clauses
// collected in w go to both on flush.
type mirrorSink struct {
	inc     *Incremental
	w       cnf.ClauseWriter
	clauses []cnf.Clause
}

func (m *mirrorSink) flush() {
	for i := 0; i < m.w.NumClauses(); i++ {
		m.clauses = append(m.clauses, append(cnf.Clause(nil), m.w.Clause(i)...))
	}
	m.inc.AddClauses(&m.w)
	m.w.Reset()
}

func (m *mirrorSink) add(lits ...cnf.Lit) {
	m.w.Add(lits...)
	m.flush()
}

// loadCircuit resets inc to c's consistency formula (variable = node ID)
// through a mirror, returning the mirror.
func loadCircuit(t *testing.T, inc *Incremental, c *logic.Circuit, prio []int) *mirrorSink {
	t.Helper()
	f, err := cnf.FromCircuitConsistency(c)
	if err != nil {
		t.Fatal(err)
	}
	inc.Reset(f.NumVars, prio)
	m := &mirrorSink{inc: inc}
	for _, cl := range f.Clauses {
		m.add(cl...)
	}
	return m
}

// addExtension appends a random conservative extension of the formula
// over the first n variables: fresh variables defined as gates over
// older literals, and selector-gated clauses. Every model of the old
// formula extends to a model of the new one (selectors false), the
// contract Retire relies on. It returns the selector variables.
func addExtension(rng *rand.Rand, m *mirrorSink, n int) []int {
	inc := m.inc
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	for d := 1 + rng.Intn(3); d > 0; d-- {
		v := inc.AddVars(1)
		gt := types[rng.Intn(len(types))]
		k := 2
		if gt == logic.Not {
			k = 1
		}
		in := make([]cnf.Lit, k)
		for i := range in {
			in[i] = cnf.NewLit(rng.Intn(v), rng.Intn(2) == 0)
		}
		if err := cnf.EmitGate(&m.w, gt, v, in); err != nil {
			panic(err)
		}
		m.flush()
	}
	nonSel := inc.NumVars()
	sels := make([]int, 1+rng.Intn(2))
	for i := range sels {
		sels[i] = inc.AddVars(1)
		for c := 1 + rng.Intn(3); c > 0; c-- {
			lits := []cnf.Lit{cnf.NewLit(sels[i], true)}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				lits = append(lits, cnf.NewLit(rng.Intn(nonSel), rng.Intn(2) == 0))
			}
			m.add(lits...)
		}
	}
	return sels
}

// bruteUnder decides clauses ∧ assumptions by enumeration.
func bruteUnder(nVars int, clauses []cnf.Clause, assumps []cnf.Lit) Status {
	f := &cnf.Formula{NumVars: nVars, Clauses: clauses}
	for _, a := range assumps {
		f.Clauses = append(f.Clauses, cnf.Clause{a})
	}
	return bruteForce(f)
}

// checkRetired asserts the post-Retire invariants over n surviving
// variables: no watch, trail entry, reason, heap entry or clause
// mentions a retired variable; every clause is watched exactly at its
// first two literals; the level-0 trail has cleared reasons.
func checkRetired(t *testing.T, s *Incremental, n int) {
	t.Helper()
	st := &s.st
	if st.numVars != n || len(st.assign) != n || len(st.level) != n || len(st.reason) != n ||
		len(st.activity) != n || len(st.phase) != n || len(st.seen) != n || len(st.watches) != 2*n {
		t.Fatalf("per-variable state not truncated to %d variables", n)
	}
	if len(st.heap.pos) != n {
		t.Fatalf("heap positions cover %d variables, want %d", len(st.heap.pos), n)
	}
	for i, v := range st.heap.heap {
		if v >= n || st.heap.pos[v] != i {
			t.Fatalf("heap entry %d holds variable %d (pos %d)", i, v, st.heap.pos[v])
		}
	}
	if len(st.trailLim) != 0 || st.qhead > len(st.trail) {
		t.Fatalf("not at level 0: %d levels, qhead %d of %d", len(st.trailLim), st.qhead, len(st.trail))
	}
	for _, l := range st.trail {
		if l.Var() >= n {
			t.Fatalf("trail keeps retired variable %d", l.Var())
		}
	}
	for v, r := range st.reason {
		if r != -1 {
			t.Fatalf("variable %d keeps reason %d", v, r)
		}
	}
	if len(st.born) != len(st.learned) || len(st.lbd) != len(st.learned) || len(st.act) != len(st.learned) {
		t.Fatal("learned metadata out of step with the learned clauses")
	}
	want := map[int32]int{}
	check := func(ci int32, c []cnf.Lit) {
		for _, l := range c {
			if l.Var() >= n {
				t.Fatalf("clause %d %v keeps retired variable %d", ci, c, l.Var())
			}
		}
		want[ci] = 2
	}
	for ci, c := range st.problem {
		check(int32(ci), c)
	}
	for li, c := range st.learned {
		check(int32(learnedRef+li), c)
	}
	for l, ws := range st.watches {
		for _, ci := range ws {
			if _, ok := want[ci]; !ok {
				t.Fatalf("watch list of literal %d references retired clause %d", l, ci)
			}
			c := st.clause(ci)
			if c[0] != cnf.Lit(l) && c[1] != cnf.Lit(l) {
				t.Fatalf("clause %d %v watched on literal %d, not one of its first two", ci, c, l)
			}
			want[ci]--
		}
	}
	for ci, left := range want {
		if left != 0 {
			t.Fatalf("clause %d watched %d times, want 2", ci, 2-left)
		}
	}
}

// impliedBy reports whether every model of good (over n variables)
// satisfies clause c.
func impliedBy(n int, good []cnf.Clause, c []cnf.Lit) bool {
	f := &cnf.Formula{NumVars: n, Clauses: good}
	assign := make([]bool, n)
	for pat := 0; pat < 1<<uint(n); pat++ {
		for i := range assign {
			assign[i] = pat>>uint(i)&1 == 1
		}
		if !f.Eval(assign) {
			continue
		}
		sat := false
		for _, l := range c {
			if l.Sat(assign[l.Var()]) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// retireRounds drives the persistent-instance lifecycle on small
// circuits (≤ 12 variables): load the circuit, mark, then round after
// round append a random conservative extension, solve under several
// selector assumptions against brute force, and retire. After every
// Retire it calls check with the instance, the circuit's variable count
// and the circuit's clauses.
func retireRounds(t *testing.T, check func(inc *Incremental, n int, good []cnf.Clause)) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		c := gen.Random(gen.RandomParams{
			Inputs: 3 + rng.Intn(2), Gates: 5 + rng.Intn(4),
			Locality: 1.5, Seed: int64(300 + trial),
		})
		n := c.NumNodes()
		if n > 12 {
			t.Fatalf("trial %d: %d nodes, test assumes ≤ 12", trial, n)
		}
		var prio []int
		if trial%2 == 1 {
			prio = c.Inputs
		}
		inc := NewIncremental()
		m := loadCircuit(t, inc, c, prio)
		good := append([]cnf.Clause(nil), m.clauses...)
		base := inc.Mark()
		for round := 0; round < 12; round++ {
			sels := addExtension(rng, m, n)
			var sets [][]cnf.Lit
			for i := range sels {
				var a []cnf.Lit
				for j, s := range sels {
					a = append(a, cnf.NewLit(s, j != i))
				}
				sets = append(sets, a)
			}
			var all []cnf.Lit
			for _, s := range sels {
				all = append(all, cnf.NewLit(s, false))
			}
			sets = append(sets, all, nil)
			for _, a := range sets {
				sol := inc.SolveAssuming(a, Limits{})
				want := bruteUnder(inc.NumVars(), m.clauses, a)
				if sol.Status != want {
					t.Fatalf("trial %d round %d: assumptions %v: solver %v, brute force %v", trial, round, a, sol.Status, want)
				}
				if sol.Status == Sat {
					f := &cnf.Formula{NumVars: inc.NumVars(), Clauses: m.clauses}
					if err := Verify(f, sol.Model); err != nil {
						t.Fatalf("trial %d round %d: %v", trial, round, err)
					}
				}
			}
			inc.Retire(base)
			m.clauses = append(m.clauses[:0], good...)
			if inc.Failed() {
				t.Fatalf("trial %d round %d: a conservative extension latched Failed", trial, round)
			}
			check(inc, n, good)
		}
	}
}

// TestRetireLeavesNoRetiredReferences requires that after every Retire
// no watch, trail entry, reason, heap entry or clause mentions a
// retired variable (checkRetired), while every solve along the way
// agrees with brute force.
func TestRetireLeavesNoRetiredReferences(t *testing.T) {
	retireRounds(t, func(inc *Incremental, n int, _ []cnf.Clause) {
		checkRetired(t, inc, n)
	})
}

// TestRetireKeepsOnlyImpliedGoodClauses requires every learned clause
// and level-0 fact an instance keeps through Retire to be implied by
// the circuit formula alone — checked by enumeration.
func TestRetireKeepsOnlyImpliedGoodClauses(t *testing.T) {
	kept := 0
	retireRounds(t, func(inc *Incremental, n int, good []cnf.Clause) {
		for _, cl := range inc.st.learned {
			if !impliedBy(n, good, cl) {
				t.Fatalf("kept learned clause %v is not implied by the circuit", cl)
			}
		}
		for _, l := range inc.st.trail {
			if !impliedBy(n, good, []cnf.Lit{l}) {
				t.Fatalf("kept level-0 fact %v is not implied by the circuit", l)
			}
		}
		kept += len(inc.st.learned)
	})
	if kept == 0 {
		t.Fatal("no learned clause ever survived a Retire: the property was never exercised")
	}
}

// TestRetireKeepsPendingFactsQueued: level-0 facts that no propagate has
// visited yet — here units written before the mark, with the only solve
// in between aborted on entry by an expired deadline — must still be
// propagated after Retire. Marking them done would leave the 3-literal
// clause with both watched literals false and its third literal
// unwatched, and the next solve would return a model violating it.
func TestRetireKeepsPendingFactsQueued(t *testing.T) {
	inc := NewIncremental()
	inc.Reset(3, []int{2})
	x0, x1, x2 := cnf.NewLit(0, false), cnf.NewLit(1, false), cnf.NewLit(2, false)
	// The clause goes first: written after the units, AddClause would
	// simplify it against them to the unit x2.
	good := []cnf.Clause{{x0.Not(), x1.Not(), x2}, {x0}, {x1}}
	for _, c := range good {
		inc.AddClause(c...)
	}
	base := inc.Mark()
	sel := inc.AddVars(1)
	inc.AddClause(cnf.NewLit(sel, true), x2.Not())
	if sol := inc.SolveAssuming([]cnf.Lit{cnf.NewLit(sel, false)}, Limits{Deadline: time.Unix(1, 0)}); sol.Status != Unknown {
		t.Fatalf("expired deadline: status %v, want Unknown", sol.Status)
	}
	inc.Retire(base)
	checkRetired(t, inc, 3)
	sol := inc.SolveAssuming(nil, Limits{})
	if sol.Status != Sat {
		t.Fatalf("status %v, want Sat", sol.Status)
	}
	if err := Verify(&cnf.Formula{NumVars: 3, Clauses: good}, sol.Model); err != nil {
		t.Fatal(err)
	}
}
