// Package logic implements the combinational Boolean network model of
// Section 2 of "Why is ATPG Easy?" (Prasad, Chong, Keutzer, DAC 1999).
//
// A Circuit is a directed acyclic graph of gates. Each gate drives exactly
// one net, identified with the gate's node ID, so "net X" and "node X" are
// used interchangeably, as in the paper. Primary inputs are source nodes;
// primary outputs are designated nets.
//
// The package provides construction (Builder), structural queries
// (transitive fanin/fanout cones, levelization, topological order),
// simulation (single-pattern and 64-way bit-parallel), and subcircuit
// extraction — the substrate every other package in this module builds on.
package logic

import (
	"fmt"
	"sort"
)

// GateType enumerates the gate functions supported by the network model.
// The paper's analysis assumes circuits mapped to simple AND and OR gates
// with inversions (Section 2); the richer set here is what practical
// netlists contain before technology decomposition (package decomp maps
// them down).
type GateType uint8

// Gate function codes. Input nodes have no fanin; Const0/Const1 are
// zero-fanin constant drivers; all others require at least one fanin
// (Buf and Not exactly one).
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateTypeNames = [...]string{
	Input:  "INPUT",
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Or:     "OR",
	Nand:   "NAND",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
}

// String returns the conventional upper-case mnemonic for the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Valid reports whether t is one of the defined gate type codes.
func (t GateType) Valid() bool { return t < numGateTypes }

// Node is one gate (or primary input, or constant) of a circuit. The node
// drives the net with the same ID.
//
// Neg marks inverted gate inputs ("bubbles"). The paper's circuit model is
// simple AND and OR gates *allowing inversions* (Section 2): an inversion
// is part of the consuming gate, not a separate net, so the working example
// of Figure 4(a) has exactly nine nets a..i. A nil Neg means no inversions.
type Node struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int  // IDs of driver nodes, in gate-input order
	Neg    []bool // per-fanin inversion flags; nil = none inverted
	Fanout []int  // IDs of nodes reading this net (computed by Build)
}

// Negated reports whether gate input i is inverted.
func (n *Node) Negated(i int) bool { return n.Neg != nil && n.Neg[i] }

// Circuit is an immutable combinational Boolean network. Construct one with
// a Builder or a netlist parser; the zero value is an empty circuit.
type Circuit struct {
	Name    string
	Nodes   []Node // indexed by node ID
	Inputs  []int  // primary input node IDs, in declaration order
	Outputs []int  // primary output net IDs, in declaration order

	byName map[string]int
	topo   []int  // topological order, computed once by Build
	level  []int  // logic level per node (inputs = 0)
	isOut  []bool // per node: a primary output, computed once by Build
}

// NumNodes returns the number of nodes (gates + primary inputs + constants).
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumGates returns the number of logic gates, excluding primary inputs and
// constant drivers.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Nodes {
		switch c.Nodes[i].Type {
		case Input, Const0, Const1:
		default:
			n++
		}
	}
	return n
}

// Node returns the node with the given ID. It panics if id is out of range,
// mirroring slice indexing.
func (c *Circuit) Node(id int) *Node { return &c.Nodes[id] }

// Lookup returns the ID of the node with the given name.
func (c *Circuit) Lookup(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; convenient in tests
// and examples where the name is known to exist.
func (c *Circuit) MustLookup(name string) int {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("logic: circuit %q has no node named %q", c.Name, name))
	}
	return id
}

// IsOutput reports whether net id is a primary output, in O(1).
func (c *Circuit) IsOutput(id int) bool {
	return id >= 0 && id < len(c.isOut) && c.isOut[id]
}

// TopoOrder returns node IDs in a topological order (fanins before fanouts).
// The returned slice is shared; callers must not modify it.
func (c *Circuit) TopoOrder() []int { return c.topo }

// Level returns the logic level of node id: 0 for primary inputs and
// constants, 1 + max(level of fanins) otherwise.
func (c *Circuit) Level(id int) int { return c.level[id] }

// Depth returns the maximum logic level over all nodes.
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.level {
		if l > d {
			d = l
		}
	}
	return d
}

// MaxFanin returns k_fi, the largest gate fanin in the circuit.
func (c *Circuit) MaxFanin() int {
	k := 0
	for i := range c.Nodes {
		if len(c.Nodes[i].Fanin) > k {
			k = len(c.Nodes[i].Fanin)
		}
	}
	return k
}

// MaxFanout returns k_fo, the largest net fanout in the circuit. Nets
// feeding primary outputs only (no gate sinks) count their gate readers
// only, matching the paper's use of k_fo as the bound on how many gate
// clauses a single net variable appears in.
func (c *Circuit) MaxFanout() int {
	k := 0
	for i := range c.Nodes {
		if len(c.Nodes[i].Fanout) > k {
			k = len(c.Nodes[i].Fanout)
		}
	}
	return k
}

// Names returns the names of the given node IDs, in order.
func (c *Circuit) Names(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.Nodes[id].Name
	}
	return out
}

// Builder constructs a Circuit incrementally. Methods panic on structural
// misuse (duplicate names, bad fanin arity) because those are programming
// errors in the caller; Build returns an error for whole-circuit problems
// (cycles, dangling outputs) that can depend on input data.
type Builder struct {
	name    string
	nodes   []Node
	inputs  []int
	outputs []int
	byName  map[string]int
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]int)}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Input adds a primary input with the given name and returns its net ID.
func (b *Builder) Input(name string) int {
	return b.add(name, Input, nil, nil)
}

// Const adds a constant driver (Const1 if v, else Const0).
func (b *Builder) Const(name string, v bool) int {
	t := Const0
	if v {
		t = Const1
	}
	return b.add(name, t, nil, nil)
}

// Gate adds a gate of type t named name with the given fanin nets and
// returns its net ID. No inputs are inverted; use GateN for bubbled inputs.
func (b *Builder) Gate(t GateType, name string, fanin ...int) int {
	return b.add(name, t, fanin, nil)
}

// GateN adds a gate with per-input inversion flags: input i is inverted
// when neg[i] is true. neg may be nil (no inversions) but otherwise must
// have the same length as fanin.
func (b *Builder) GateN(t GateType, name string, fanin []int, neg []bool) int {
	return b.add(name, t, fanin, neg)
}

// Lookup returns the ID already assigned to name, if any.
func (b *Builder) Lookup(name string) (int, bool) {
	id, ok := b.byName[name]
	return id, ok
}

func (b *Builder) add(name string, t GateType, fanin []int, neg []bool) int {
	if !t.Valid() {
		panic(fmt.Sprintf("logic: invalid gate type %d", t))
	}
	if _, dup := b.byName[name]; dup {
		panic(fmt.Sprintf("logic: duplicate node name %q", name))
	}
	if neg != nil && len(neg) != len(fanin) {
		panic(fmt.Sprintf("logic: node %q has %d fanins but %d inversion flags", name, len(fanin), len(neg)))
	}
	switch t {
	case Input, Const0, Const1:
		if len(fanin) != 0 {
			panic(fmt.Sprintf("logic: %s node %q must have no fanin", t, name))
		}
	case Buf, Not:
		if len(fanin) != 1 {
			panic(fmt.Sprintf("logic: %s node %q must have exactly one fanin, got %d", t, name, len(fanin)))
		}
	default:
		if len(fanin) < 1 {
			panic(fmt.Sprintf("logic: %s node %q must have at least one fanin", t, name))
		}
	}
	for _, f := range fanin {
		if f < 0 || f >= len(b.nodes) {
			panic(fmt.Sprintf("logic: node %q references undefined fanin ID %d", name, f))
		}
	}
	id := len(b.nodes)
	var negCopy []bool
	for _, inv := range neg {
		if inv {
			negCopy = append([]bool(nil), neg...)
			break
		}
	}
	b.nodes = append(b.nodes, Node{
		ID:    id,
		Name:  name,
		Type:  t,
		Fanin: append([]int(nil), fanin...),
		Neg:   negCopy,
	})
	b.byName[name] = id
	if t == Input {
		b.inputs = append(b.inputs, id)
	}
	return id
}

// MarkOutput declares net id as a primary output. Marking the same net
// twice is an error reported by Build.
func (b *Builder) MarkOutput(id int) {
	b.outputs = append(b.outputs, id)
}

// Build finalizes the circuit: computes fanout lists, checks output sanity,
// and derives topological order and levels. The builder may not be reused
// afterwards.
func (b *Builder) Build() (*Circuit, error) {
	c := &Circuit{
		Name:    b.name,
		Nodes:   b.nodes,
		Inputs:  b.inputs,
		Outputs: b.outputs,
		byName:  b.byName,
	}
	c.isOut = make([]bool, len(c.Nodes))
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Nodes) {
			return nil, fmt.Errorf("logic: circuit %q marks undefined net %d as output", c.Name, o)
		}
		if c.isOut[o] {
			return nil, fmt.Errorf("logic: circuit %q marks net %q as output twice", c.Name, c.Nodes[o].Name)
		}
		c.isOut[o] = true
	}
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanin {
			c.Nodes[f].Fanout = append(c.Nodes[f].Fanout, i)
		}
	}
	// Builder.add only permits references to already-created nodes, so IDs
	// are already topologically ordered; recompute levels in that order.
	c.topo = make([]int, len(c.Nodes))
	c.level = make([]int, len(c.Nodes))
	for i := range c.Nodes {
		c.topo[i] = i
		lvl := 0
		for _, f := range c.Nodes[i].Fanin {
			if c.level[f]+1 > lvl {
				lvl = c.level[f] + 1
			}
		}
		c.level[i] = lvl
	}
	return c, nil
}

// MustBuild is Build that panics on error, for statically known-good
// construction in tests and generators.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TransitiveFanout returns the set of node IDs reachable from net start by
// following fanout edges, including start itself. The result is sorted.
func (c *Circuit) TransitiveFanout(start int) []int {
	mark := make([]bool, len(c.Nodes))
	stack := []int{start}
	mark[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range c.Nodes[n].Fanout {
			if !mark[fo] {
				mark[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	return markedIDs(mark)
}

// TransitiveFanin returns the set of node IDs that can reach any of the
// given nets by following fanin edges, including the nets themselves.
// The result is sorted.
func (c *Circuit) TransitiveFanin(starts ...int) []int {
	mark := make([]bool, len(c.Nodes))
	var stack []int
	for _, s := range starts {
		if !mark[s] {
			mark[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range c.Nodes[n].Fanin {
			if !mark[fi] {
				mark[fi] = true
				stack = append(stack, fi)
			}
		}
	}
	return markedIDs(mark)
}

func markedIDs(mark []bool) []int {
	var ids []int
	for i, m := range mark {
		if m {
			ids = append(ids, i)
		}
	}
	return ids
}

// OutputsIn returns the primary outputs of c that belong to the given
// sorted ID set.
func (c *Circuit) OutputsIn(ids []int) []int {
	var out []int
	for _, o := range c.Outputs {
		if containsSorted(ids, o) {
			out = append(out, o)
		}
	}
	return out
}

func containsSorted(ids []int, x int) bool {
	i := sort.SearchInts(ids, x)
	return i < len(ids) && ids[i] == x
}

// Stats summarizes a circuit's size and shape.
type Stats struct {
	Nodes     int
	Gates     int
	Inputs    int
	Outputs   int
	Depth     int
	MaxFanin  int
	MaxFanout int
}

// Stats computes summary statistics for the circuit.
func (c *Circuit) Stats() Stats {
	return Stats{
		Nodes:     c.NumNodes(),
		Gates:     c.NumGates(),
		Inputs:    len(c.Inputs),
		Outputs:   len(c.Outputs),
		Depth:     c.Depth(),
		MaxFanin:  c.MaxFanin(),
		MaxFanout: c.MaxFanout(),
	}
}

// String returns a one-line summary, e.g. "adder8: 41 gates, 17 in, 9 out".
func (c *Circuit) String() string {
	return fmt.Sprintf("%s: %d gates, %d in, %d out", c.Name, c.NumGates(), len(c.Inputs), len(c.Outputs))
}
