package atpg

// Region-grouped incremental solving: collapsed faults whose miters
// share a transitive-fanout region are dispatched as one group, so one
// worker decides them back to back on its persistent incremental CDCL
// instance (InF-ATPG's fanout-region organization, PAPERS.md). The
// instance holds the whole fault-free circuit for the worker's run;
// each fault adds its faulty cone and selector-gated activation over
// fresh variables, is solved under its selector and is retired, so the
// clauses learned about the good circuit — first of all the logic the
// region's faults share — carry to every later fault on the worker.
// This file holds the grouping — region heads, the canonical group
// order — the good-circuit load, and incMiter, which writes one fault's
// miter into the instance.

import (
	"fmt"
	"sort"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/sat"
)

// DefaultGroupMax is the group-size cap when RunOptions.GroupMax is
// zero: big enough that a fanout-free region's faults share one solver
// instance, small enough that one group never monopolizes a worker.
const DefaultGroupMax = 64

// regionHeads computes, for every net, the head of its fanout region:
// the first dominator at which its transitive fanout joins general
// fanout. A net with exactly one distinct reader inherits that
// reader's head (its fanout cone is {net} ∪ cone(reader), so its miter
// support C_ψ^sub is identical); a fanout stem or sink is its own
// head. Faults with equal heads have (near-)identical miter support
// and are grouped onto one solver instance. Node IDs are topologically
// ordered, so one reverse sweep suffices.
func regionHeads(c *logic.Circuit) []int32 {
	head := make([]int32, len(c.Nodes))
	for id := len(c.Nodes) - 1; id >= 0; id-- {
		reader := -1
		multi := false
		// Fanout has one entry per reading pin; a gate reading the net
		// twice is still a single reader.
		for _, fo := range c.Nodes[id].Fanout {
			if reader == -1 {
				reader = fo
			} else if fo != reader {
				multi = true
				break
			}
		}
		if reader >= 0 && !multi {
			head[id] = head[reader]
		} else {
			head[id] = int32(id)
		}
	}
	return head
}

// faultGroup is one unit of incremental dispatch: a consecutive span
// of the dispatch order whose faults share a fanout region and are
// solved on one incremental instance. id is the canonical group index
// (stable across worker counts and group-size caps of the faults it
// happens to contain; used by telemetry and effort records).
type faultGroup struct {
	id         int
	region     int32 // head net of the shared fanout region
	start, end int32 // span [start, end) of positions in the dispatch order
}

// buildGroups computes the incremental dispatch order and its group
// spans. The order is canonical and independent of groupMax: regions
// are sorted by (largest member cone first, smallest member index
// among equals), members within a region by (cone, index) — the same
// comparator as effortOrder — and groups are consecutive chunks of at
// most groupMax members that never span regions. Because the flattened
// fault order is identical for every groupMax, the engine's commit
// frontier, flush points and drop decisions are too: group size only
// sets how many faults one claim hands a worker.
func buildGroups(c *logic.Circuit, faults []Fault, skip []bool, groupMax int) ([]int32, []faultGroup) {
	if groupMax <= 0 {
		groupMax = DefaultGroupMax
	}
	head := regionHeads(c)
	sizer := newConeSizer(c)

	type regionAgg struct {
		maxCone int32
		minIdx  int32
		members []int32
	}
	cone := make([]int32, len(faults))
	regs := make(map[int32]*regionAgg)
	var regOrder []int32
	for i, f := range faults {
		if skip != nil && skip[i] {
			continue
		}
		cone[i] = sizer.coneOf(f.Net)
		r := head[f.Net]
		agg := regs[r]
		if agg == nil {
			agg = &regionAgg{maxCone: cone[i], minIdx: int32(i)}
			regs[r] = agg
			regOrder = append(regOrder, r)
		}
		if cone[i] > agg.maxCone {
			agg.maxCone = cone[i]
		}
		agg.members = append(agg.members, int32(i))
	}
	sort.Slice(regOrder, func(a, b int) bool {
		ra, rb := regs[regOrder[a]], regs[regOrder[b]]
		if ra.maxCone != rb.maxCone {
			return ra.maxCone > rb.maxCone
		}
		return ra.minIdx < rb.minIdx
	})

	order := make([]int32, 0, len(faults))
	var groups []faultGroup
	for _, r := range regOrder {
		m := regs[r].members
		sort.Slice(m, func(a, b int) bool {
			if cone[m[a]] != cone[m[b]] {
				return cone[m[a]] > cone[m[b]]
			}
			return m[a] < m[b]
		})
		for lo := 0; lo < len(m); lo += groupMax {
			hi := lo + groupMax
			if hi > len(m) {
				hi = len(m)
			}
			groups = append(groups, faultGroup{
				id:     len(groups),
				region: r,
				start:  int32(len(order) + lo),
				end:    int32(len(order) + hi),
			})
		}
		order = append(order, m...)
	}
	return order, groups
}

// loadGood resets inc to the fault-free CIRCUIT-SAT consistency
// formula of c, written straight from the netlist through the reusable
// writer w: one variable per parent node (variable = node ID), the
// Figure 2 gate clauses, unit clauses for constant drivers and no
// output clause. The branching priority is every primary input in input
// order, so each fault's first model is the lex-least detecting vector
// over all inputs — the inputs outside a fault's support are
// unconstrained and come out false, exactly as a single-fault miter
// leaves them.
func loadGood(inc *sat.Incremental, c *logic.Circuit, w *cnf.ClauseWriter) error {
	w.Reset()
	var in []cnf.Lit
	for id := range c.Nodes {
		n := &c.Nodes[id]
		switch n.Type {
		case logic.Input:
		case logic.Const0:
			w.Add(cnf.NewLit(id, true))
		case logic.Const1:
			w.Add(cnf.NewLit(id, false))
		default:
			in = in[:0]
			for i, fi := range n.Fanin {
				in = append(in, cnf.NewLit(fi, n.Negated(i)))
			}
			if err := cnf.EmitGate(w, n.Type, id, in); err != nil {
				return fmt.Errorf("gate %q: %w", n.Name, err)
			}
		}
	}
	inc.Reset(c.NumNodes(), c.Inputs)
	inc.AddClauses(w)
	return nil
}

// incMiter is Miter for the persistent incremental instance: it writes
// one fault's ATPG clauses straight into a sat.Incremental that already
// holds the parent circuit's fault-free copy (loadGood). Over fresh
// variables above the parent's node count it adds
//
//   - a faulty copy of the fault's transitive fanout, with the fault net
//     fixed to its stuck value and every other fanin read from the
//     faulty copy inside the cone and from the good copy outside it;
//   - one XOR per observable output, good copy against faulty copy;
//   - a selector s and the gated clauses ¬s ∨ activation (the good fault
//     net carries the complement of the stuck value) and
//     ¬s ∨ xor_1 ∨ … (some output differs).
//
// The faulty cone and XORs only define fresh variables and the gated
// clauses are satisfied by ¬s, so the fault's clauses are a
// conservative extension of the good circuit: the engine retires them
// after the solve and keeps every clause learned over good variables
// (see sat.Incremental). Solving under the assumption s is solving the
// fault's own miter. Faults are written one at a time, not a region
// group at once: every variable of the encoding is a function of the
// inputs, so each solve would propagate every co-resident fault's cone,
// and since one fault's learned clauses over its own faulty or selector
// variables never help another fault, a second resident fault costs
// propagation and buys nothing.
//
// An incMiter's buffers are reused across faults; it must not be used
// concurrently.
type incMiter struct {
	c      *logic.Circuit
	f      Fault
	sel    int     // selector variable of the last encode
	cone   []int32 // the fault's transitive fanout
	visit  []uint32
	epoch  uint32  // visit[id] == epoch marks id as in the cone
	faulty []int32 // faulty-copy variable of a node in the cone
	stack  []int32
	in     []cnf.Lit
	obs    []cnf.Lit
	w      cnf.ClauseWriter
}

// prepare computes fault f's transitive fanout on circuit c and reports
// whether it reaches a primary output; an unobservable fault is
// trivially untestable and has nothing to encode.
func (m *incMiter) prepare(c *logic.Circuit, f Fault) (bool, error) {
	if f.Net < 0 || f.Net >= c.NumNodes() {
		return false, fmt.Errorf("atpg: fault net %d out of range", f.Net)
	}
	m.c, m.f = c, f
	if len(m.visit) != c.NumNodes() {
		m.visit = make([]uint32, c.NumNodes())
		m.faulty = make([]int32, c.NumNodes())
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 {
		// The stamp wrapped: clear it so a stale stamp cannot alias.
		clear(m.visit)
		m.epoch = 1
	}
	m.visit[f.Net] = m.epoch
	m.stack = append(m.stack[:0], int32(f.Net))
	m.cone = m.cone[:0]
	observable := false
	for len(m.stack) > 0 {
		id := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.cone = append(m.cone, id)
		observable = observable || c.IsOutput(int(id))
		for _, fo := range c.Nodes[id].Fanout {
			if m.visit[fo] != m.epoch {
				m.visit[fo] = m.epoch
				m.stack = append(m.stack, int32(fo))
			}
		}
	}
	return observable, nil
}

// encode writes the prepared fault's clauses into inc, which must hold
// the good circuit of the c given to prepare.
func (m *incMiter) encode(inc *sat.Incremental) error {
	c, f := m.c, m.f
	base := inc.AddVars(len(m.cone))
	nObs := 0
	for j, id := range m.cone {
		m.faulty[id] = int32(base + j)
		if c.IsOutput(int(id)) {
			nObs++
		}
	}
	x := inc.AddVars(nObs)
	m.sel = inc.AddVars(1)
	w := &m.w
	w.Reset()
	for _, id := range m.cone {
		fv := int(m.faulty[id])
		if int(id) == f.Net {
			w.Add(cnf.NewLit(fv, !f.StuckAt))
			continue
		}
		n := &c.Nodes[id]
		m.in = m.in[:0]
		for i, fi := range n.Fanin {
			v := fi
			if m.visit[fi] == m.epoch {
				v = int(m.faulty[fi])
			}
			m.in = append(m.in, cnf.NewLit(v, n.Negated(i)))
		}
		if err := cnf.EmitGate(w, n.Type, fv, m.in); err != nil {
			return fmt.Errorf("gate %q: %w", n.Name, err)
		}
	}
	notSel := cnf.NewLit(m.sel, true)
	m.obs = append(m.obs[:0], notSel)
	for _, id := range m.cone {
		if !c.IsOutput(int(id)) {
			continue
		}
		m.in = append(m.in[:0], cnf.NewLit(int(id), false), cnf.NewLit(int(m.faulty[id]), false))
		if err := cnf.EmitGate(w, logic.Xor, x, m.in); err != nil {
			return err
		}
		m.obs = append(m.obs, cnf.NewLit(x, false))
		x++
	}
	w.Add(notSel, cnf.NewLit(f.Net, f.StuckAt))
	w.Add(m.obs...)
	inc.AddClauses(w)
	return nil
}

// assumption is the literal enabling the encoded fault: its selector.
func (m *incMiter) assumption() cnf.Lit { return cnf.NewLit(m.sel, false) }

// extractTest converts a satisfying model into a test vector over the
// parent circuit's primary inputs (variable = node ID). Because the
// solver branches lex-first over every input, the inputs irrelevant to
// the fault come out false, making the vector identical to the one a
// fresh single-fault solve extracts.
func extractTest(c *logic.Circuit, model []bool) []bool {
	vec := make([]bool, len(c.Inputs))
	for i, in := range c.Inputs {
		vec[i] = model[in]
	}
	return vec
}
