package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"atpgeasy/internal/bench"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// netlist is one generated input: the program under test only ever sees
// its .bench text, never the generator's circuit.
type netlist struct {
	name string
	text []byte
}

// workload describes one benchmark input set. Engine workloads run their
// netlists through atpg.Engine.RunFaults; the daemon workload submits
// them to an in-process atpgd.
type workload struct {
	name   string
	daemon bool
	// circuits builds the workload's inputs; tiny selects the reduced
	// sizes the benchmark's own tests run.
	circuits func(tiny bool) []*logic.Circuit
}

var workloads = []workload{
	{name: "redundant-logic", circuits: redundantLogic},
	{name: "resistant-datapath", circuits: resistantDatapath},
	{name: "random-testable", circuits: randomTestable},
	{name: "atpgd-jobs", daemon: true, circuits: daemonMix},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// netlists renders the workload's circuits as .bench text. The workload
// seed orders them: it is the order in which an engine pass runs the
// circuits (the daemon's clients each draw their own order from it).
func (w workload) netlists(seed int64, tiny bool) ([]netlist, error) {
	cs := w.circuits(tiny)
	rand.New(rand.NewSource(seed)).Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	out := make([]netlist, len(cs))
	for i, c := range cs {
		var buf bytes.Buffer
		if err := bench.Write(&buf, c); err != nil {
			return nil, fmt.Errorf("write %s: %w", c.Name, err)
		}
		out[i] = netlist{name: c.Name, text: buf.Bytes()}
	}
	return out, nil
}

// randomLogic is gen.Random control logic with the input count cmd/atpg
// uses for its rand<N> circuits, one fixed generator seed per size.
//
// The generator seeds are fixed rather than drawn from the workload
// seed: across workload seeds 1-10, drawn circuits moved test_vectors of
// redundant-logic between 142 and 170 and its time by a fifth, more than
// any bound a later change could be held to.
func randomLogic(sizes ...int) []*logic.Circuit {
	cs := make([]*logic.Circuit, len(sizes))
	for i, n := range sizes {
		cs[i] = gen.Random(gen.RandomParams{Inputs: 8 + n/20, Gates: n, Seed: int64(i + 1)})
	}
	return cs
}

// redundantLogic: about half of the collapsed faults of random control
// logic are redundant, so the engine's time goes to building and
// searching UNSAT proofs — the case the paper's question is about.
func redundantLogic(tiny bool) []*logic.Circuit {
	if tiny {
		return randomLogic(60, 80)
	}
	return randomLogic(120, 140, 160, 180, 200, 220, 240, 260)
}

// resistantDatapath: comparators, mux trees and a decoder are fully
// testable, but many of their faults resist random patterns, so fault
// dropping, test verification and commit ordering carry the run.
func resistantDatapath(tiny bool) []*logic.Circuit {
	if tiny {
		return []*logic.Circuit{gen.Comparator(8), gen.MuxTree(3), gen.Decoder(3)}
	}
	return []*logic.Circuit{gen.Comparator(64), gen.Comparator(128), gen.MuxTree(8), gen.MuxTree(9), gen.Decoder(9)}
}

// randomTestable: large arithmetic where random patterns plus fault
// simulation detect every fault and the solver never runs.
func randomTestable(tiny bool) []*logic.Circuit {
	if tiny {
		return []*logic.Circuit{gen.ArrayMultiplier(4), gen.CarryLookaheadAdder(8)}
	}
	return []*logic.Circuit{gen.ArrayMultiplier(24), gen.ArrayMultiplier(32), gen.CarryLookaheadAdder(128)}
}

// daemonMix is the pool of distinct netlists the atpgd clients submit:
// small arithmetic and datapath blocks plus random logic, so job sizes
// spread over an order of magnitude.
func daemonMix(tiny bool) []*logic.Circuit {
	if tiny {
		return append([]*logic.Circuit{gen.ArrayMultiplier(3), gen.Comparator(4)}, randomLogic(30)...)
	}
	return randomLogic(40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150)
}
