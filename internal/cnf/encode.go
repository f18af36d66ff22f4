package cnf

import (
	"fmt"

	"atpgeasy/internal/logic"
)

// maxXorFanin bounds the fanin of XOR/XNOR gates we encode directly; a
// k-input parity gate needs 2^k clauses when the formula must keep one
// variable per net. Technology decomposition (package decomp) keeps real
// netlists well under this.
const maxXorFanin = 8

// ClauseWriter accumulates clauses in one shared literal slab, so a
// writer reused across many formulas allocates no slice per clause.
// Clause boundaries are tracked as slab offsets and only materialized
// into views on demand (the slab may reallocate while clauses are still
// being appended, so views cannot be taken earlier). EmitGate writes
// gate clauses into it; an Encoder builds Formulas from one, and
// sat.Incremental.AddClauses takes its clauses straight into the
// solver. The zero value is ready to use.
type ClauseWriter struct {
	slab []Lit
	ends []int32 // slab offset one past each clause's last literal
}

// Reset empties the writer, keeping its buffers.
func (w *ClauseWriter) Reset() {
	w.slab = w.slab[:0]
	w.ends = w.ends[:0]
}

// Add appends one complete clause.
func (w *ClauseWriter) Add(lits ...Lit) {
	w.slab = append(w.slab, lits...)
	w.ends = append(w.ends, int32(len(w.slab)))
}

// Push appends a literal to the open clause; End closes it.
func (w *ClauseWriter) Push(l Lit) { w.slab = append(w.slab, l) }
func (w *ClauseWriter) End()       { w.ends = append(w.ends, int32(len(w.slab))) }

// NumClauses reports the clauses written since the last Reset.
func (w *ClauseWriter) NumClauses() int { return len(w.ends) }

// Clause returns a view of clause i, valid until the next write.
func (w *ClauseWriter) Clause(i int) Clause {
	start := int32(0)
	if i > 0 {
		start = w.ends[i-1]
	}
	e := w.ends[i]
	return Clause(w.slab[start:e:e])
}

// clauses appends views over the slab to dst, one per collected clause.
// The views use full slice expressions so a later append to one clause
// copies instead of clobbering its neighbor.
func (w *ClauseWriter) clauses(dst []Clause) []Clause {
	start := int32(0)
	for _, e := range w.ends {
		dst = append(dst, Clause(w.slab[start:e:e]))
		start = e
	}
	return dst
}

// EmitGate writes the Figure 2 consistency clauses for one gate into w:
// out is the gate's output variable and in[i] the literal feeding gate
// input i (already carrying any input inversion). See GateClauses for
// the clause sets.
func EmitGate(w *ClauseWriter, t logic.GateType, out int, in []Lit) error {
	z := NewLit(out, false)
	nz := z.Not()
	switch t {
	case logic.Buf, logic.Not:
		l := in[0]
		if t == logic.Not {
			l = l.Not()
		}
		w.Add(nz, l)
		w.Add(z, l.Not())
	case logic.And, logic.Nand:
		if t == logic.Nand {
			z, nz = nz, z
		}
		for _, l := range in {
			w.Add(nz, l)
		}
		for _, l := range in {
			w.Push(l.Not())
		}
		w.Push(z)
		w.End()
	case logic.Or, logic.Nor:
		if t == logic.Nor {
			z, nz = nz, z
		}
		for _, l := range in {
			w.Add(z, l.Not())
		}
		for _, l := range in {
			w.Push(l)
		}
		w.Push(nz)
		w.End()
	case logic.Xor, logic.Xnor:
		k := len(in)
		if k > maxXorFanin {
			return fmt.Errorf("cnf: %d-input %s gate exceeds direct-encoding limit %d (run decomp first)", k, t, maxXorFanin)
		}
		want := t == logic.Xor
		// For every input combination, the row's clause forbids the wrong
		// output value: if parity(row) == want-parity the output must be 1.
		for row := 0; row < 1<<uint(k); row++ {
			parity := false
			for i := 0; i < k; i++ {
				bit := row>>uint(i)&1 == 1
				if bit {
					parity = !parity
				}
				// Literal that is false exactly on this row.
				lit := in[i]
				if bit {
					lit = lit.Not()
				}
				w.Push(lit)
			}
			if parity == want {
				w.Push(z)
			} else {
				w.Push(nz)
			}
			w.End()
		}
	default:
		return fmt.Errorf("cnf: no clause encoding for %s", t)
	}
	return nil
}

// GateClauses returns the consistency clauses for one gate, following
// Figure 2 of the paper. The gate's output variable is out; in[i] is the
// literal feeding gate input i (already carrying any input inversion).
//
//	AND z:  (~z + l_i) for each input i, plus (z + ~l_1 + ... + ~l_k).
//	OR  z:  (z + ~l_i) for each i, plus (~z + l_1 + ... + l_k).
//
// NAND/NOR are AND/OR with the output literal complemented; BUF/NOT are the
// two-clause equivalence; XOR/XNOR enumerate the parity-violating rows.
func GateClauses(t logic.GateType, out int, in []Lit) ([]Clause, error) {
	var w ClauseWriter
	if err := EmitGate(&w, t, out, in); err != nil {
		return nil, err
	}
	return w.clauses(nil), nil
}

// Encoder builds CIRCUIT-SAT formulas with reusable buffers, amortizing
// the per-clause and per-gate allocations of FromCircuit across the
// thousands of fault instances an ATPG worker encodes. The zero value is
// ready to use. An Encoder must not be used concurrently, and the
// *Formula returned by Encode (including its clauses and names) aliases
// the encoder's buffers: it is valid only until the next Encode call;
// callers needing to keep it must Clone it.
type Encoder struct {
	w       ClauseWriter
	f       Formula
	clauses []Clause
	names   []string
	in      []Lit
}

// Encode is FromCircuit with buffer reuse; see the Encoder doc for the
// result's lifetime.
func (e *Encoder) Encode(c *logic.Circuit, forced map[int]bool) (*Formula, error) {
	e.w.Reset()
	e.names = e.names[:0]
	for i := range c.Nodes {
		e.names = append(e.names, c.Nodes[i].Name)
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if _, isForced := forced[id]; isForced {
			continue // the forced value replaces the gate function
		}
		switch n.Type {
		case logic.Input:
			// free variable, no clauses
		case logic.Const0:
			e.w.Add(NewLit(id, true))
		case logic.Const1:
			e.w.Add(NewLit(id, false))
		default:
			e.in = e.in[:0]
			for i, fi := range n.Fanin {
				e.in = append(e.in, NewLit(fi, n.Negated(i)))
			}
			if err := EmitGate(&e.w, n.Type, id, e.in); err != nil {
				return nil, fmt.Errorf("gate %q: %w", n.Name, err)
			}
		}
	}
	for id, v := range forced {
		e.w.Add(NewLit(id, !v))
	}
	if len(c.Outputs) > 0 {
		for _, o := range c.Outputs {
			e.w.Push(NewLit(o, false))
		}
		e.w.End()
	}
	e.clauses = e.w.clauses(e.clauses[:0])
	e.f = Formula{NumVars: c.NumNodes(), Clauses: e.clauses, VarNames: e.names}
	return &e.f, nil
}

// FromCircuit builds the CIRCUIT-SAT formula f(C) of Section 2: one
// variable per net (variable index = node ID), Figure 2 clauses for each
// gate, unit clauses for constant drivers, and one clause asserting that at
// least one primary output is 1.
//
// ForcedNets optionally asserts nets to fixed values (unit clauses) — used
// by the ATPG encoding to activate the fault site. Passing nil forces
// nothing.
func FromCircuit(c *logic.Circuit, forced map[int]bool) (*Formula, error) {
	// A throwaway encoder: the formula owns the buffers outright.
	return new(Encoder).Encode(c, forced)
}

// FromCircuitConsistency builds only the gate-consistency clauses (no
// output-asserting clause): the characteristic function of the circuit's
// legal net-value combinations. Useful for counting distinct consistent
// sub-formulas and for equivalence checking harnesses.
func FromCircuitConsistency(c *logic.Circuit) (*Formula, error) {
	f, err := FromCircuit(c, nil)
	if err != nil {
		return nil, err
	}
	if len(c.Outputs) > 0 {
		f.Clauses = f.Clauses[:len(f.Clauses)-1]
	}
	return f, nil
}
