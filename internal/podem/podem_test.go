package podem_test

import (
	"reflect"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/podem"
)

// bruteForce decides a fault by exhaustive simulation: it returns true
// and a detecting vector when any input assignment exposes the fault at
// a primary output.
func bruteForce(t *testing.T, c *logic.Circuit, net int, sa bool) (bool, []bool) {
	t.Helper()
	n := len(c.Inputs)
	if n > 16 {
		t.Fatalf("bruteForce: %d inputs is too many", n)
	}
	forced := map[int]bool{net: sa}
	vec := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i := range vec {
			vec[i] = m&(1<<i) != 0
		}
		good := c.Simulate(vec)
		bad := c.SimulateWith(vec, forced)
		for _, o := range c.Outputs {
			if good[o] != bad[o] {
				out := make([]bool, n)
				copy(out, vec)
				return true, out
			}
		}
	}
	return false, nil
}

// checkDetects verifies that vec exposes the fault at some output.
func checkDetects(t *testing.T, c *logic.Circuit, net int, sa bool, vec []bool) {
	t.Helper()
	good := c.Simulate(vec)
	bad := c.SimulateWith(vec, map[int]bool{net: sa})
	for _, o := range c.Outputs {
		if good[o] != bad[o] {
			return
		}
	}
	t.Errorf("net%d/%v: pattern %v does not detect the fault", net, sa, vec)
}

// allFaults enumerates both stuck-at polarities on every non-constant net.
func allFaults(c *logic.Circuit) [][2]int {
	var out [][2]int
	for id := range c.Nodes {
		switch c.Nodes[id].Type {
		case logic.Const0, logic.Const1:
			continue
		}
		out = append(out, [2]int{id, 0}, [2]int{id, 1})
	}
	return out
}

// TestAgainstBruteForce checks verdicts and patterns against exhaustive
// simulation on a bank of small circuits, with both X fills.
func TestAgainstBruteForce(t *testing.T) {
	circuits := []*logic.Circuit{
		logic.Figure4a(),
		gen.ArrayMultiplier(3),
		gen.Random(gen.RandomParams{Inputs: 8, Gates: 40, Seed: 3}),
		gen.Random(gen.RandomParams{Inputs: 10, Gates: 80, Seed: 11}),
		gen.Random(gen.RandomParams{Inputs: 9, Gates: 60, Seed: 42, InvProb: 0.4}),
	}
	for _, c := range circuits {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, f := range allFaults(c) {
				net, sa := f[0], f[1] == 1
				want, _ := bruteForce(t, c, net, sa)
				res := podem.Run(c, net, sa, podem.Options{})
				if want && res.Status != podem.Detected {
					t.Fatalf("net%d/%v: got %v, brute force says testable", net, sa, res.Status)
				}
				if !want && res.Status != podem.Untestable {
					t.Fatalf("net%d/%v: got %v, brute force says untestable", net, sa, res.Status)
				}
				if res.Status == podem.Detected {
					checkDetects(t, c, net, sa, res.Vector(false))
					checkDetects(t, c, net, sa, res.Vector(true))
				}
			}
		})
	}
}

// TestDeterministic checks that two runs of the same fault produce the
// same result, counters included.
func TestDeterministic(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 12, Gates: 120, Seed: 5})
	for _, f := range allFaults(c) {
		net, sa := f[0], f[1] == 1
		a := podem.Run(c, net, sa, podem.Options{})
		b := podem.Run(c, net, sa, podem.Options{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("net%d/%v: runs differ: %+v vs %+v", net, sa, a, b)
		}
	}
}

// TestSearcherMatchesRun checks that one Searcher reused across every
// fault, in an order that interleaves aborted, untestable and detected
// searches, returns exactly what a fresh Run returns — counters included
// — so no state leaks from one search into the next.
func TestSearcherMatchesRun(t *testing.T) {
	for _, c := range []*logic.Circuit{
		gen.Random(gen.RandomParams{Inputs: 12, Gates: 120, Seed: 5}),
		gen.Random(gen.RandomParams{Inputs: 9, Gates: 60, Seed: 42, InvProb: 0.4}),
		gen.ArrayMultiplier(4),
	} {
		s := podem.NewSearcher(c)
		faults := allFaults(c)
		for k := range faults {
			f := faults[(k*7)%len(faults)]
			net, sa := f[0], f[1] == 1
			opt := podem.Options{}
			if k%3 == 0 {
				opt.MaxBacktracks = 1
			}
			want := podem.Run(c, net, sa, opt)
			got := s.Run(net, sa, opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s net%d/%v: reused searcher %+v, fresh run %+v", c.Name, net, sa, got, want)
			}
		}
	}
}

// TestScoapGuidanceKeepsVerdicts checks that controllability costs steer
// the search without changing any verdict.
func TestScoapGuidanceKeepsVerdicts(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 10, Gates: 100, Seed: 9})
	// Arbitrary but deterministic per-net costs.
	cc0 := make([]int32, c.NumNodes())
	cc1 := make([]int32, c.NumNodes())
	for i := range cc0 {
		cc0[i] = int32(1 + (i*7)%13)
		cc1[i] = int32(1 + (i*5)%11)
	}
	for _, f := range allFaults(c) {
		net, sa := f[0], f[1] == 1
		plain := podem.Run(c, net, sa, podem.Options{})
		guided := podem.Run(c, net, sa, podem.Options{CC0: cc0, CC1: cc1})
		if plain.Status != guided.Status {
			t.Fatalf("net%d/%v: plain %v, guided %v", net, sa, plain.Status, guided.Status)
		}
		if guided.Status == podem.Detected {
			checkDetects(t, c, net, sa, guided.Vector(false))
		}
	}
}

// TestMaxBacktracksAborts checks the deterministic backtrack-limit abort.
func TestMaxBacktracksAborts(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	aborted := 0
	for _, f := range allFaults(c) {
		net, sa := f[0], f[1] == 1
		res := podem.Run(c, net, sa, podem.Options{MaxBacktracks: 1})
		if res.Status == podem.Aborted {
			aborted++
			if res.Backtracks != 1 {
				t.Fatalf("net%d/%v: aborted with %d backtracks, want 1", net, sa, res.Backtracks)
			}
			// The abort must be reproducible.
			again := podem.Run(c, net, sa, podem.Options{MaxBacktracks: 1})
			if again.Status != podem.Aborted {
				t.Fatalf("net%d/%v: abort not deterministic", net, sa)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no fault hit the 1-backtrack limit on mult4")
	}
}

// TestDeadlineAborts checks that an already-expired deadline aborts.
func TestDeadlineAborts(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	res := podem.Run(c, c.Outputs[0], false, podem.Options{
		Deadline: time.Now().Add(-time.Second),
	})
	if res.Status != podem.Aborted {
		t.Fatalf("expired deadline: got %v, want aborted", res.Status)
	}
}

// TestCancelAborts checks that a closed cancel channel aborts.
func TestCancelAborts(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	done := make(chan struct{})
	close(done)
	res := podem.Run(c, c.Outputs[0], false, podem.Options{Cancel: done})
	if res.Status != podem.Aborted {
		t.Fatalf("closed cancel: got %v, want aborted", res.Status)
	}
}

// TestXPatternsHaveX checks that PODEM actually leaves don't-cares in
// patterns — the backend's headline feature — on a circuit with disjoint
// output cones.
func TestXPatternsHaveX(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 12, Gates: 100, Seed: 21})
	sawX := false
	for _, f := range allFaults(c) {
		net, sa := f[0], f[1] == 1
		res := podem.Run(c, net, sa, podem.Options{})
		if res.Status != podem.Detected {
			continue
		}
		for _, v := range res.Pattern {
			if v == podem.TX {
				sawX = true
			}
		}
		if sawX {
			break
		}
	}
	if !sawX {
		t.Fatal("no detected fault produced an X bit in its pattern")
	}
}

// TestUnobservableFault checks the immediate-untestable path for a net
// with no primary output in its fanout (possible only via dead logic; a
// net feeding nothing is promoted to an output by the generator, so use
// a hand-built circuit where a cone is masked by a constant).
func TestConstMaskedFault(t *testing.T) {
	b := logic.NewBuilder("masked")
	x := b.Input("x")
	zero := b.Const("zero", false)
	g := b.GateN(logic.And, "g", []int{x, zero}, nil) // g = x AND 0 = 0
	b.MarkOutput(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// x stuck-at-1 can never be observed through g.
	res := podem.Run(c, x, true, podem.Options{})
	if res.Status != podem.Untestable {
		t.Fatalf("masked fault: got %v, want untestable", res.Status)
	}
}

func BenchmarkPodemMult8(b *testing.B) {
	c := gen.ArrayMultiplier(8)
	faults := allFaults(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			podem.Run(c, f[0], f[1] == 1, podem.Options{})
		}
	}
}
