// Package podem implements a PODEM-style structural test generator for
// single stuck-at faults — the portfolio engine's third backend beside
// the caching backtracker and the CDCL solver.
//
// Where the SAT backends decide a CNF miter, PODEM searches directly on
// the circuit: it assigns primary inputs one at a time, simulates the
// good and faulty machines in three-valued logic (0, 1, X), and steers
// each assignment through an objective/backtrace pair — first activate
// the fault (set the fault net to the complement of the stuck value),
// then advance the D-frontier (gates with a fault effect on an input and
// an undetermined output) toward a primary output. Because only primary
// inputs are ever decision variables, backtracking is a simple flip/pop
// over the PI decision stack, and the inputs never assigned come out as
// X — don't-care bits in the returned pattern, for free.
//
// Implication is event-driven: each decision or backtrack re-evaluates
// only the nodes downstream of the changed inputs, drained in ascending
// node-ID (= topological) order off a dirty bitmap, so a sweep costs
// O(affected) rather than O(support). That is what makes PODEM
// competitive with the incremental CDCL backend on mid-size cones, where
// a full-support sweep per decision would dominate the search.
//
// Determinism contract: Run is a pure function of (circuit, fault,
// options). Every choice — which D-frontier gate to advance, which X
// input to backtrace through, tie-breaks between equal controllability
// costs — is resolved by smallest node ID, so the same fault always
// produces the same pattern regardless of scheduling. This is the
// structural analog of the sat package's lex-least branching guarantee
// (see the internal/sat package comment): callers may rely on
// byte-identical patterns at any worker count.
package podem

import (
	"math/bits"
	"time"

	"atpgeasy/internal/logic"
)

// Tri is a three-valued signal: 0, 1 or X (unknown / don't-care).
type Tri uint8

// Signal values. The composite five-valued alphabet of the classic
// algorithm (0, 1, X, D, D̄) is represented as a pair of Tri values, one
// per machine: D is good 1 / faulty 0, D̄ the reverse.
const (
	F0 Tri = 0
	F1 Tri = 1
	TX Tri = 2
)

// String returns "0", "1" or "X".
func (t Tri) String() string {
	switch t {
	case F0:
		return "0"
	case F1:
		return "1"
	default:
		return "X"
	}
}

// Status is the outcome of a Run call.
type Status int8

// Outcomes. Aborted means a resource limit (backtracks, deadline or
// cancellation) was hit before the search completed; the fault may still
// be testable.
const (
	Detected Status = iota
	Untestable
	Aborted
)

// String returns "detected", "untestable" or "aborted".
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// Options bound and guide a Run call. The zero value searches without
// limits under unit controllability costs.
type Options struct {
	// MaxBacktracks aborts the search after this many backtracks
	// (0 = unbounded). A backtrack-limit abort is deterministic: the
	// same fault aborts at the same point in every run, so a caller's
	// fallback to another backend is deterministic too.
	MaxBacktracks int64
	// Deadline, when nonzero, aborts the search once passed. Checked
	// every few implication sweeps; unlike MaxBacktracks this abort is
	// timing-dependent.
	Deadline time.Time
	// Cancel, when non-nil, aborts the search once closed.
	Cancel <-chan struct{}
	// CC0 and CC1, when non-nil, are per-net controllability costs
	// (SCOAP-style: the effort to set the net to 0 resp. 1) indexed by
	// node ID. Backtrace uses them to pick the easiest X input when any
	// input satisfies the objective and the hardest when all inputs
	// must — the standard PODEM guidance. Nil falls back to unit costs
	// (pure smallest-ID order). The heuristic affects search effort
	// only, never verdicts.
	CC0, CC1 []int32
}

// Result is the outcome of one Run.
type Result struct {
	Status Status
	// Pattern is the generated test over c.Inputs, in input order, valid
	// when Status is Detected. Inputs the search never constrained are
	// TX: any fill detects the fault.
	Pattern []Tri
	// Search counters: PI decisions, backtracks (decision flips/pops)
	// and three-valued gate evaluations across all implication sweeps.
	Decisions    int64
	Backtracks   int64
	Implications int64
}

// Vector returns the pattern as a []bool with every X filled as fill.
func (r *Result) Vector(fill bool) []bool {
	vec := make([]bool, len(r.Pattern))
	for i, t := range r.Pattern {
		switch t {
		case F1:
			vec[i] = true
		case F0:
			vec[i] = false
		default:
			vec[i] = fill
		}
	}
	return vec
}

// limitCheckMask throttles the deadline/cancel polls to one per 64
// implication sweeps.
const limitCheckMask = 63

// engine is the per-Run search state. All slices are indexed by node ID
// of the parent circuit; only IDs in the fault's support (transitive
// fanin of its fanout cone) are ever touched, and a Searcher resets
// exactly those after each Run, so the node-indexed arrays are allocated
// once per Searcher rather than once per fault.
type engine struct {
	c   *logic.Circuit
	net int
	sa  Tri // the stuck value as a Tri

	sub    []int  // support node IDs, ascending (= topological) order
	cone   []int  // transitive fanout node IDs, ascending
	inCone []bool // transitive fanout membership
	subPIs []int  // primary inputs inside the support, ascending
	outs   []int  // primary outputs inside the cone, ascending

	// pos maps node ID -> position in sub (-1 outside); dirty is the
	// pending re-evaluation bitmap over those positions. Because fanins
	// precede fanouts in ID order, draining set bits lowest-first always
	// sees finalized fanin values, and a changed node only ever marks
	// higher positions — one ascending pass per sweep.
	pos   []int32
	dirty []uint64

	good   []Tri
	faulty []Tri // meaningful only on cone nodes; elsewhere == good
	assign []Tri // PI decisions, indexed by input node ID

	// canReach[n], recomputed each sweep once the fault is activated,
	// reports that cone node n can still carry a fault effect to a
	// primary output: its composite value is undetermined (or already
	// D) and a forward path of such nodes reaches an output. The X-path
	// check of the classic algorithm.
	canReach []bool

	// mark/stamp and stack are the cone walks' visit set and work list.
	mark   []uint32
	stamp  uint32
	stack  []int
	frames []frame

	opt    Options
	res    Result
	sweeps int64
}

// Searcher runs PODEM searches on one circuit, reusing its node-indexed
// search state across calls. A Searcher is not safe for concurrent use;
// give each goroutine its own. Results are identical to Run's.
type Searcher struct {
	e engine
}

// NewSearcher returns a Searcher over c, whose structure must not change
// while the Searcher is in use.
func NewSearcher(c *logic.Circuit) *Searcher {
	n := c.NumNodes()
	s := &Searcher{e: engine{
		c:        c,
		inCone:   make([]bool, n),
		pos:      make([]int32, n),
		good:     make([]Tri, n),
		faulty:   make([]Tri, n),
		assign:   make([]Tri, n),
		canReach: make([]bool, n),
		mark:     make([]uint32, n),
	}}
	for i := range s.e.pos {
		s.e.pos[i] = -1
		s.e.assign[i] = TX
	}
	return s
}

// Circuit returns the circuit the Searcher was built for.
func (s *Searcher) Circuit() *logic.Circuit { return s.e.c }

// Run generates a test for net stuck-at sa on c. It is safe for
// concurrent use with other Run calls on the same circuit (the circuit
// is read-only; all search state is per-call).
func Run(c *logic.Circuit, net int, sa bool, opt Options) Result {
	return NewSearcher(c).Run(net, sa, opt)
}

// Run generates a test for net stuck-at sa on the Searcher's circuit.
func (s *Searcher) Run(net int, sa bool, opt Options) Result {
	e := &s.e
	defer e.reset()
	e.net, e.opt, e.res, e.sweeps = net, opt, Result{}, 0
	if sa {
		e.sa = F1
	} else {
		e.sa = F0
	}
	c := e.c

	e.walkCone()
	for _, id := range e.cone {
		e.inCone[id] = true
	}
	e.outs = e.outs[:0]
	for _, o := range c.Outputs {
		if e.inCone[o] {
			e.outs = append(e.outs, o)
		}
	}
	if len(e.outs) == 0 {
		e.sub = e.sub[:0]
		e.res.Status = Untestable // no observable output in the fanout
		return e.res
	}
	e.walkSupport()
	e.subPIs = e.subPIs[:0]
	for p, id := range e.sub {
		e.pos[id] = int32(p)
		if c.Nodes[id].Type == logic.Input {
			e.subPIs = append(e.subPIs, id)
		}
	}
	// The faulty machine's fault net is pinned to the stuck value for the
	// whole search; implication never re-evaluates it.
	e.faulty[net] = e.sa

	// Seed every support position dirty: the first imply is a full sweep
	// that establishes consistent values from the all-X assignment.
	nw := (len(e.sub) + 63) / 64
	if cap(e.dirty) < nw {
		e.dirty = make([]uint64, nw)
	}
	e.dirty = e.dirty[:nw]
	for i := range e.dirty {
		e.dirty[i] = ^uint64(0)
	}
	if tail := uint(len(e.sub)) & 63; tail != 0 {
		e.dirty[len(e.dirty)-1] = (1 << tail) - 1
	}

	e.search()
	return e.res
}

// nextStamp starts a new cone walk, clearing the marks on the rare
// counter wrap.
func (e *engine) nextStamp() {
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
}

// walkCone sets e.cone to the fault net's transitive fanout, ascending.
func (e *engine) walkCone() {
	c := e.c
	e.nextStamp()
	e.mark[e.net] = e.stamp
	hi := e.net
	e.stack = append(e.stack[:0], e.net)
	for len(e.stack) > 0 {
		n := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, fo := range c.Nodes[n].Fanout {
			if e.mark[fo] != e.stamp {
				e.mark[fo] = e.stamp
				hi = max(hi, fo)
				e.stack = append(e.stack, fo)
			}
		}
	}
	e.cone = e.cone[:0]
	for id := e.net; id <= hi; id++ {
		if e.mark[id] == e.stamp {
			e.cone = append(e.cone, id)
		}
	}
}

// walkSupport sets e.sub to the transitive fanin of the cone, ascending.
func (e *engine) walkSupport() {
	c := e.c
	e.nextStamp()
	lo, hi := e.net, e.net
	e.stack = e.stack[:0]
	for _, id := range e.cone {
		e.mark[id] = e.stamp
		hi = max(hi, id)
		e.stack = append(e.stack, id)
	}
	for len(e.stack) > 0 {
		n := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, fi := range c.Nodes[n].Fanin {
			if e.mark[fi] != e.stamp {
				e.mark[fi] = e.stamp
				lo = min(lo, fi)
				e.stack = append(e.stack, fi)
			}
		}
	}
	e.sub = e.sub[:0]
	for id := lo; id <= hi; id++ {
		if e.mark[id] == e.stamp {
			e.sub = append(e.sub, id)
		}
	}
}

// reset returns every entry the last Run touched to its initial value:
// the search only writes support nodes (the cone is part of the
// support), so this costs O(support), not O(circuit).
func (e *engine) reset() {
	for _, id := range e.cone {
		e.inCone[id] = false
		e.canReach[id] = false
	}
	for _, id := range e.sub {
		e.pos[id] = -1
		e.good[id] = F0
		e.faulty[id] = F0
		e.assign[id] = TX
	}
	e.faulty[e.net] = F0
}

// negTri inverts a determined value and passes X through.
func negTri(t Tri, neg bool) Tri {
	if !neg || t == TX {
		return t
	}
	return t ^ 1
}

// evalGood evaluates node id's good-machine value in three-valued logic.
func (e *engine) evalGood(id int) Tri {
	n := &e.c.Nodes[id]
	switch n.Type {
	case logic.Input:
		return e.assign[id]
	case logic.Const0:
		return F0
	case logic.Const1:
		return F1
	case logic.Buf, logic.Not:
		v := negTri(e.good[n.Fanin[0]], n.Negated(0))
		if n.Type == logic.Not {
			v = negTri(v, true)
		}
		return v
	case logic.And, logic.Nand:
		out := F1
		for i, fi := range n.Fanin {
			v := negTri(e.good[fi], n.Negated(i))
			if v == F0 {
				out = F0
				break
			}
			if v == TX {
				out = TX
			}
		}
		if n.Type == logic.Nand {
			out = negTri(out, true)
		}
		return out
	case logic.Or, logic.Nor:
		out := F0
		for i, fi := range n.Fanin {
			v := negTri(e.good[fi], n.Negated(i))
			if v == F1 {
				out = F1
				break
			}
			if v == TX {
				out = TX
			}
		}
		if n.Type == logic.Nor {
			out = negTri(out, true)
		}
		return out
	default: // Xor, Xnor
		out := F0
		for i, fi := range n.Fanin {
			v := negTri(e.good[fi], n.Negated(i))
			if v == TX {
				return TX
			}
			out ^= v
		}
		if n.Type == logic.Xnor {
			out = negTri(out, true)
		}
		return out
	}
}

// faultyIn reads the value fanin fi presents to a faulty-machine gate:
// the faulty value inside the cone, the shared good value outside it.
func (e *engine) faultyIn(fi int) Tri {
	if e.inCone[fi] {
		return e.faulty[fi]
	}
	return e.good[fi]
}

// evalFaulty evaluates cone node id's faulty-machine value. The fault
// net itself is never evaluated — its faulty value is pinned at setup.
func (e *engine) evalFaulty(id int) Tri {
	n := &e.c.Nodes[id]
	switch n.Type {
	case logic.Input:
		return e.assign[id]
	case logic.Const0:
		return F0
	case logic.Const1:
		return F1
	case logic.Buf, logic.Not:
		v := negTri(e.faultyIn(n.Fanin[0]), n.Negated(0))
		if n.Type == logic.Not {
			v = negTri(v, true)
		}
		return v
	case logic.And, logic.Nand:
		out := F1
		for i, fi := range n.Fanin {
			v := negTri(e.faultyIn(fi), n.Negated(i))
			if v == F0 {
				out = F0
				break
			}
			if v == TX {
				out = TX
			}
		}
		if n.Type == logic.Nand {
			out = negTri(out, true)
		}
		return out
	case logic.Or, logic.Nor:
		out := F0
		for i, fi := range n.Fanin {
			v := negTri(e.faultyIn(fi), n.Negated(i))
			if v == F1 {
				out = F1
				break
			}
			if v == TX {
				out = TX
			}
		}
		if n.Type == logic.Nor {
			out = negTri(out, true)
		}
		return out
	default: // Xor, Xnor
		out := F0
		for i, fi := range n.Fanin {
			v := negTri(e.faultyIn(fi), n.Negated(i))
			if v == TX {
				return TX
			}
			out ^= v
		}
		if n.Type == logic.Xnor {
			out = negTri(out, true)
		}
		return out
	}
}

// markDirty queues node id for re-evaluation in the next imply sweep.
func (e *engine) markDirty(id int) {
	if p := e.pos[id]; p >= 0 {
		e.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// imply drains the dirty bitmap in ascending position (= topological)
// order: each queued node is re-evaluated in both machines, and a node
// whose value changed marks its in-support fanouts — always at higher
// positions, so one pass settles the network. Monotone in the PI
// assignment during forward search — adding assignments only turns X
// into 0/1 — which is what makes the frontier checks below sound;
// backtracking re-queues the un-assigned inputs and the same drain
// restores the weaker values.
func (e *engine) imply() {
	var evals int64
	for w := 0; w < len(e.dirty); w++ {
		for e.dirty[w] != 0 {
			b := bits.TrailingZeros64(e.dirty[w])
			e.dirty[w] &^= 1 << uint(b)
			p := w<<6 | b
			id := e.sub[p]
			evals++
			g := e.evalGood(id)
			changed := g != e.good[id]
			e.good[id] = g
			if e.inCone[id] && id != e.net {
				f := e.evalFaulty(id)
				if f != e.faulty[id] {
					e.faulty[id] = f
					changed = true
				}
			}
			if !changed {
				continue
			}
			for _, fo := range e.c.Nodes[id].Fanout {
				if p2 := e.pos[fo]; p2 >= 0 {
					e.dirty[p2>>6] |= 1 << (uint(p2) & 63)
				}
			}
		}
	}
	e.res.Implications += evals
	e.sweeps++
}

// compositeBlocked reports that cone node n can no longer carry a fault
// effect: both machines determined and equal.
func (e *engine) compositeBlocked(n int) bool {
	return e.good[n] != TX && e.faulty[n] != TX && e.good[n] == e.faulty[n]
}

// isD reports a fault effect at cone node n: both machines determined
// and different.
func (e *engine) isD(n int) bool {
	return e.good[n] != TX && e.faulty[n] != TX && e.good[n] != e.faulty[n]
}

// updateReach recomputes canReach over the cone by one reverse
// topological sweep: a cone node still matters iff it is not blocked and
// is an output or feeds a cone reader that still matters.
func (e *engine) updateReach() {
	for i := len(e.cone) - 1; i >= 0; i-- {
		id := e.cone[i]
		if e.compositeBlocked(id) {
			e.canReach[id] = false
			continue
		}
		r := e.c.IsOutput(id)
		if !r {
			for _, fo := range e.c.Nodes[id].Fanout {
				if e.inCone[fo] && e.canReach[fo] {
					r = true
					break
				}
			}
		}
		e.canReach[id] = r
	}
}

// detected reports a fault effect at a primary output.
func (e *engine) detected() bool {
	for _, o := range e.outs {
		if e.isD(o) {
			return true
		}
	}
	return false
}

// failed reports that the current partial assignment can never detect
// the fault: activation lost (good fault net stuck at the fault value),
// or activation fixed with no undetermined path left from the fault site
// to an output.
func (e *engine) failed() bool {
	if e.good[e.net] != TX && e.good[e.net] == e.sa {
		return true
	}
	if e.good[e.net] == TX {
		return false // activation objective still open
	}
	// Activated: the fault net carries D. updateReach has run for this
	// sweep, so the X-path check is one array read.
	return !e.canReach[e.net]
}

// ctrlCost is the controllability cost of setting net id to v.
func (e *engine) ctrlCost(id int, v Tri) int64 {
	if v == F0 {
		if e.opt.CC0 != nil {
			return int64(e.opt.CC0[id])
		}
	} else if e.opt.CC1 != nil {
		return int64(e.opt.CC1[id])
	}
	return 1
}

// objective picks the next (net, value) goal: activate the fault if its
// good value is still X, otherwise advance the lowest-ID D-frontier gate
// that can still reach an output, asking for a non-controlling value on
// its lowest-ID X input. Returns ok=false when no gate offers an X input
// to steer — the caller then falls back to a plain PI decision.
func (e *engine) objective() (net int, val Tri, ok bool) {
	if e.good[e.net] == TX {
		return e.net, e.sa ^ 1, true
	}
	// D-frontier: cone gates with a fault-effect input, an undetermined
	// output, and a live X-path. e.cone is ascending, so the first match
	// is the lowest ID.
	for _, id := range e.cone {
		if id == e.net || !e.canReach[id] {
			continue
		}
		if e.good[id] != TX && e.faulty[id] != TX {
			continue // output determined: not frontier
		}
		n := &e.c.Nodes[id]
		hasD := false
		for _, fi := range n.Fanin {
			if e.inCone[fi] && e.isD(fi) {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		for i, fi := range n.Fanin {
			if e.good[fi] != TX {
				continue
			}
			// Ask for the non-controlling value so the fault effect
			// passes through; XOR/XNOR have none, any value propagates.
			var nc Tri
			switch n.Type {
			case logic.And, logic.Nand:
				nc = F1
			case logic.Or, logic.Nor:
				nc = F0
			default:
				nc = F0
			}
			return fi, negTri(nc, n.Negated(i)), true
		}
	}
	return 0, TX, false
}

// backtrace walks an objective back to an unassigned primary input
// through X-valued nets, choosing at each gate the easiest X input when
// one suffices and the hardest when all are needed (ties to the lowest
// ID). The walk always terminates at an X input: a gate with an X output
// has at least one X fanin, and constants are never X.
func (e *engine) backtrace(net int, val Tri) (int, Tri) {
	for {
		n := &e.c.Nodes[net]
		if n.Type == logic.Input {
			return net, val
		}
		outInv := n.Type == logic.Not || n.Type == logic.Nand || n.Type == logic.Nor
		vb := negTri(val, outInv)
		var need Tri // base-gate input value to request
		var all bool // true when every input must take it
		switch n.Type {
		case logic.Buf, logic.Not:
			need, all = vb, true
		case logic.And, logic.Nand:
			need, all = vb, vb == F1 // AND=1 needs all inputs 1; AND=0 needs one 0
		case logic.Or, logic.Nor:
			need, all = vb, vb == F0 // OR=0 needs all inputs 0; OR=1 needs one 1
		default: // Xor, Xnor: no controlling value; steer the first X input
			need, all = vb, false
		}
		best, bestJ := int64(-1), -1
		var bestVal Tri
		for j, fi := range n.Fanin {
			if e.good[fi] != TX {
				continue
			}
			want := negTri(need, n.Negated(j))
			cost := e.ctrlCost(fi, want)
			better := bestJ < 0
			if !better {
				if all {
					better = cost > best // hardest first: fail fast
				} else {
					better = cost < best // easiest first
				}
			}
			if better {
				best, bestJ, bestVal = cost, j, want
			}
		}
		// bestJ >= 0 always: the objective net has good X, so some fanin
		// is X (a gate over determined inputs is determined).
		net, val = n.Fanin[bestJ], bestVal
	}
}

// frame is one PI decision on the stack.
type frame struct {
	pi     int
	val    Tri
	second bool // both values tried; next failure pops
}

// aborted polls the deadline and cancellation channel, throttled to one
// check per limitCheckMask+1 sweeps.
func (e *engine) abortedByLimits() bool {
	// Poll on the first sweep (so a pre-expired deadline aborts before
	// any verdict) and every limitCheckMask+1 sweeps after.
	if e.sweeps&limitCheckMask != 1 {
		return false
	}
	if !e.opt.Deadline.IsZero() && time.Now().After(e.opt.Deadline) {
		return true
	}
	if e.opt.Cancel != nil {
		select {
		case <-e.opt.Cancel:
			return true
		default:
		}
	}
	return false
}

// search is the PODEM main loop: imply, test, backtrack on failure,
// otherwise decide one more primary input via objective/backtrace.
func (e *engine) search() {
	stack := e.frames[:0]
	defer func() { e.frames = stack[:0] }()
	for {
		e.imply()
		if e.abortedByLimits() {
			e.res.Status = Aborted
			return
		}
		if e.detected() {
			e.res.Status = Detected
			e.res.Pattern = make([]Tri, len(e.c.Inputs))
			for i, in := range e.c.Inputs {
				e.res.Pattern[i] = e.assign[in]
			}
			return
		}
		if e.good[e.net] == e.sa^1 {
			// Only an activated fault reads the X-path (failed and
			// objective); before that the sweep would be wasted.
			e.updateReach()
		}
		if e.failed() {
			// Backtrack: flip the deepest single-tried decision, popping
			// exhausted ones; an empty stack proves untestability.
			for {
				if len(stack) == 0 {
					e.res.Status = Untestable
					return
				}
				top := &stack[len(stack)-1]
				if !top.second {
					top.second = true
					top.val ^= 1
					e.assign[top.pi] = top.val
					e.markDirty(top.pi)
					break
				}
				e.assign[top.pi] = TX
				e.markDirty(top.pi)
				stack = stack[:len(stack)-1]
			}
			e.res.Backtracks++
			if e.opt.MaxBacktracks > 0 && e.res.Backtracks >= e.opt.MaxBacktracks {
				e.res.Status = Aborted
				return
			}
			continue
		}
		net, val, ok := e.objective()
		var pi int
		var pv Tri
		if ok {
			pi, pv = e.backtrace(net, val)
		} else {
			// No steerable X input on the frontier (the undetermined
			// side lives only in the faulty machine): fall back to the
			// lowest unassigned support PI. Completeness is unaffected —
			// the search still enumerates PI assignments.
			pi = -1
			for _, id := range e.subPIs {
				if e.assign[id] == TX {
					pi = id
					break
				}
			}
			if pi < 0 {
				// Fully assigned yet neither detected nor failed cannot
				// happen (all values determined); guard anyway.
				e.res.Status = Untestable
				return
			}
			pv = F0
		}
		e.assign[pi] = pv
		e.markDirty(pi)
		stack = append(stack, frame{pi: pi, val: pv})
		e.res.Decisions++
	}
}
