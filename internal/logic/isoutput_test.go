package logic_test

import (
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// TestIsOutputMatchesOutputs requires the O(1) output bitmap to agree
// with a scan of Outputs on every node of the generator circuits, and
// to reject out-of-range IDs.
func TestIsOutputMatchesOutputs(t *testing.T) {
	circuits := map[string]*logic.Circuit{
		"ripple8":  gen.RippleAdder(8),
		"cla8":     gen.CarryLookaheadAdder(8),
		"mult4":    gen.ArrayMultiplier(4),
		"cmp8":     gen.Comparator(8),
		"alu4":     gen.ALU(4),
		"tree":     gen.KaryTree(3, 3),
		"parity":   gen.ParityTree(9),
		"dec4":     gen.Decoder(4),
		"mux3":     gen.MuxTree(3),
		"cell1d":   gen.CellularArray1D(6),
		"cell2d":   gen.CellularArray2D(3, 4),
		"random":   gen.Random(gen.RandomParams{Inputs: 12, Gates: 80, Seed: 3}),
		"c432like": gen.ISCAS85Like()[0].C,
	}
	for _, nc := range gen.MCNC91Like() {
		circuits["mcnc-"+nc.Role] = nc.C
	}
	for name, c := range circuits {
		for id := range c.Nodes {
			want := false
			for _, o := range c.Outputs {
				if o == id {
					want = true
				}
			}
			if got := c.IsOutput(id); got != want {
				t.Fatalf("%s: IsOutput(%d) = %v, Outputs scan says %v", name, id, got, want)
			}
		}
		if c.IsOutput(-1) || c.IsOutput(c.NumNodes()) {
			t.Fatalf("%s: IsOutput accepts an out-of-range ID", name)
		}
	}
	var empty logic.Circuit
	if empty.IsOutput(0) {
		t.Fatal("zero-value circuit reports an output")
	}
}
