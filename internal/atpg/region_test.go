package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

func regionTestCircuits() map[string]*logic.Circuit {
	return map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(3),
	}
}

// TestRegionHeads pins the region-head invariants: a net whose fanout
// is read by exactly one distinct gate shares that gate's head, every
// other net is its own head, and head assignment is idempotent (the
// head of a head is itself).
func TestRegionHeads(t *testing.T) {
	for name, c := range regionTestCircuits() {
		head := regionHeads(c)
		for id := range c.Nodes {
			reader := -1
			multi := false
			for _, fo := range c.Nodes[id].Fanout {
				if reader == -1 {
					reader = fo
				} else if fo != reader {
					multi = true
					break
				}
			}
			if reader >= 0 && !multi {
				if head[id] != head[reader] {
					t.Fatalf("%s: net %d has single reader %d but head %d != %d",
						name, id, reader, head[id], head[reader])
				}
			} else if head[id] != int32(id) {
				t.Fatalf("%s: fanout stem/sink %d has head %d, want itself", name, id, head[id])
			}
			if h := head[id]; head[h] != h {
				t.Fatalf("%s: head %d of net %d is not its own head", name, h, id)
			}
		}
	}
}

// TestBuildGroupsCanonicalOrder requires the flattened dispatch order to
// be identical for every group-size cap — the property that makes the
// commit frontier, flush points and drop set independent of GroupMax —
// and the group spans to partition it without crossing regions or the
// cap.
func TestBuildGroupsCanonicalOrder(t *testing.T) {
	for name, c := range regionTestCircuits() {
		faults := Collapse(c, AllFaults(c))
		head := regionHeads(c)
		refOrder, _ := buildGroups(c, faults, nil, 1)
		for _, max := range []int{2, 3, 7, DefaultGroupMax} {
			order, groups := buildGroups(c, faults, nil, max)
			if len(order) != len(refOrder) {
				t.Fatalf("%s max=%d: order length %d vs %d", name, max, len(order), len(refOrder))
			}
			for i := range order {
				if order[i] != refOrder[i] {
					t.Fatalf("%s max=%d: order[%d] = %d, reference %d", name, max, i, order[i], refOrder[i])
				}
			}
			next := int32(0)
			for _, g := range groups {
				if g.start != next {
					t.Fatalf("%s max=%d: group %d starts at %d, want %d", name, max, g.id, g.start, next)
				}
				if n := g.end - g.start; n < 1 || int(n) > max {
					t.Fatalf("%s max=%d: group %d has %d members", name, max, g.id, n)
				}
				for _, idx := range order[g.start:g.end] {
					if h := head[faults[idx].Net]; h != g.region {
						t.Fatalf("%s max=%d: fault net %d (head %d) in region-%d group",
							name, max, faults[idx].Net, h, g.region)
					}
				}
				next = g.end
			}
			if next != int32(len(order)) {
				t.Fatalf("%s max=%d: groups cover %d of %d slots", name, max, next, len(order))
			}
		}
	}
}

// TestIncMiterMatchesMiter solves every fault, in group dispatch order,
// through incMiter on one persistent instance — the good circuit loaded
// once, each fault appended, solved under its selector and retired, as
// a worker does — and requires agreement with the fresh single-fault
// Miter: same verdict, and a vector that detects the fault and is
// byte-identical to the one a cold instance holding only that fault
// extracts. After each Retire the instance is back to the circuit's
// variables.
func TestIncMiterMatchesMiter(t *testing.T) {
	for name, c := range equivalenceCircuits() {
		faults := Collapse(c, AllFaults(c))
		order, _ := buildGroups(c, faults, nil, DefaultGroupMax)
		eng := &Engine{}
		warm := sat.NewIncremental()
		if err := loadGood(warm, c, new(cnf.ClauseWriter)); err != nil {
			t.Fatal(err)
		}
		mark := warm.Mark()
		var m incMiter
		for _, idx := range order {
			f := faults[idx]
			want, err := eng.TestFault(c, f)
			if err != nil {
				t.Fatalf("%s: fresh %s: %v", name, f.Name(c), err)
			}
			observable, err := m.prepare(c, f)
			if err != nil {
				t.Fatal(err)
			}
			if !observable {
				if want.Status != Untestable {
					t.Fatalf("%s: %s unobservable but %v fresh", name, f.Name(c), want.Status)
				}
				continue
			}
			// The cold reference: a fresh instance holding only this fault.
			cold := sat.NewIncremental()
			if err := loadGood(cold, c, new(cnf.ClauseWriter)); err != nil {
				t.Fatal(err)
			}
			if err := m.encode(cold); err != nil {
				t.Fatal(err)
			}
			ref := cold.SolveAssuming([]cnf.Lit{m.assumption()}, sat.Limits{})

			if err := m.encode(warm); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			sol := warm.SolveAssuming([]cnf.Lit{m.assumption()}, sat.Limits{})
			warm.Retire(mark)
			if warm.NumVars() != c.NumNodes() {
				t.Fatalf("%s: %d variables after Retire, want the circuit's %d", name, warm.NumVars(), c.NumNodes())
			}
			if sol.Status != ref.Status {
				t.Fatalf("%s: %s: warm %v, cold %v", name, f.Name(c), sol.Status, ref.Status)
			}
			switch sol.Status {
			case sat.Sat:
				if want.Status != Detected {
					t.Fatalf("%s: %s SAT on the instance, %v fresh", name, f.Name(c), want.Status)
				}
				vec, solo := extractTest(c, sol.Model), extractTest(c, ref.Model)
				if !VerifyTest(c, f, vec) {
					t.Fatalf("%s: vector for %s does not detect it", name, f.Name(c))
				}
				for b := range vec {
					if vec[b] != solo[b] {
						t.Fatalf("%s: %s warm vector %v differs from cold %v", name, f.Name(c), vec, solo)
					}
				}
			case sat.Unsat:
				if want.Status != Untestable {
					t.Fatalf("%s: %s UNSAT on the instance, %v fresh", name, f.Name(c), want.Status)
				}
				if warm.Failed() {
					t.Fatalf("%s: UNSAT under the selector latched global Failed", name)
				}
			default:
				t.Fatalf("%s: solve of %s returned %v", name, f.Name(c), sol.Status)
			}
		}
	}
}

// incrementalOptions is the equivalence harness's option set: full
// TEGUS options (collapse, dropping, and the RPT pre-phase when rpt is
// set — without it the solver produces every vector).
func incrementalOptions(groupMax int, rpt bool) RunOptions {
	opt := RunOptions{
		Collapse: true, DropDetected: true, Seed: 42,
		Incremental: true, GroupMax: groupMax,
	}
	if rpt {
		opt.RPTBatches = DefaultRPTBatches
	}
	return opt
}

// runIncremental is the equivalence harness: one incremental run with
// the given group cap and worker count.
func runIncremental(t *testing.T, c *logic.Circuit, groupMax, workers int, rpt bool) *Summary {
	t.Helper()
	eng := &Engine{VerifyTests: true, Workers: workers}
	sum, err := eng.Run(context.Background(), c, incrementalOptions(groupMax, rpt))
	if err != nil {
		t.Fatalf("incremental run (groupMax=%d, workers=%d): %v", groupMax, workers, err)
	}
	return sum
}

// sameVectors requires byte-identical vector sets in order.
func sameVectors(t *testing.T, name string, a, b [][]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d vectors", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: vector %d length %d vs %d", name, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: vector %d bit %d differs", name, i, j)
			}
		}
	}
}

// sameSummaries requires the deterministic parts of two summaries to be
// byte-identical: vectors, per-fault statuses in order, tallies and
// coverage. Solver statistics, instance sizes and timings are exempt —
// they legitimately vary with grouping and learned-clause retention.
func sameSummaries(t *testing.T, name string, a, b *Summary) {
	t.Helper()
	sameVectors(t, name, a.Vectors, b.Vectors)
	if a.Detected != b.Detected || a.Untestable != b.Untestable ||
		a.Aborted != b.Aborted || a.Errors != b.Errors ||
		a.DroppedByFaultSim != b.DroppedByFaultSim ||
		a.DetectedByRPT != b.DetectedByRPT {
		t.Fatalf("%s: tallies differ: (D%d U%d A%d E%d drop%d rpt%d) vs (D%d U%d A%d E%d drop%d rpt%d)",
			name,
			a.Detected, a.Untestable, a.Aborted, a.Errors, a.DroppedByFaultSim, a.DetectedByRPT,
			b.Detected, b.Untestable, b.Aborted, b.Errors, b.DroppedByFaultSim, b.DetectedByRPT)
	}
	if a.Coverage() != b.Coverage() {
		t.Fatalf("%s: coverage %v vs %v", name, a.Coverage(), b.Coverage())
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d vs %d results", name, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].Fault != b.Results[i].Fault || a.Results[i].Status != b.Results[i].Status {
			t.Fatalf("%s: result %d: %v/%v vs %v/%v", name, i,
				a.Results[i].Fault, a.Results[i].Status, b.Results[i].Fault, b.Results[i].Status)
		}
	}
}

// edgeCircuit builds a random netlist of the shapes the direct
// encoder must get right: constant drivers, XOR/XNOR gates, inverted
// inputs, and gates that read one net twice (AND(a,a)). Nets nobody
// reads become outputs, and a few more are marked at random.
func edgeCircuit(seed int64) *logic.Circuit {
	rng := rand.New(rand.NewSource(seed))
	b := logic.NewBuilder(fmt.Sprintf("edge%d", seed))
	var nets []int
	for i := 0; i < 7; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("i%d", i)))
	}
	nets = append(nets, b.Const("k0", false), b.Const("k1", true))
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	read := map[int]bool{}
	for g := 0; g < 45; g++ {
		t := types[rng.Intn(len(types))]
		k := 2 + rng.Intn(2)
		if t == logic.Not || t == logic.Buf {
			k = 1
		}
		fanin := make([]int, k)
		neg := make([]bool, k)
		for i := range fanin {
			if i > 0 && rng.Intn(5) == 0 {
				fanin[i] = fanin[i-1] // duplicate fanin
			} else {
				lo := len(nets) - 12
				if lo < 0 {
					lo = 0
				}
				fanin[i] = nets[lo+rng.Intn(len(nets)-lo)]
			}
			neg[i] = rng.Intn(4) == 0
			read[fanin[i]] = true
		}
		nets = append(nets, b.GateN(t, fmt.Sprintf("g%d", g), fanin, neg))
	}
	for _, n := range nets[9:] {
		if !read[n] || rng.Intn(8) == 0 {
			b.MarkOutput(n)
		}
	}
	return b.MustBuild()
}

// equivalenceCircuits is regionTestCircuits plus the edge-case netlists.
func equivalenceCircuits() map[string]*logic.Circuit {
	cs := regionTestCircuits()
	cs["edge1"] = edgeCircuit(1)
	cs["edge2"] = edgeCircuit(2)
	cs["parity"] = gen.ParityTree(9)
	return cs
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the rest of the test when
// the host would run it on one, so multi-worker runs really interleave.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestIncrementalEquivalence is the incremental path's acceptance
// property: solving region groups on a worker's persistent instance —
// good circuit loaded once, groups appended and retired — must produce
// byte-identical vectors and summaries to a cold instance per fault
// (no scratch reuse, one worker) at every worker count
// and group cap, under the TEGUS flow (collapse, fault dropping) with
// and without the RPT pre-phase.
func TestIncrementalEquivalence(t *testing.T) {
	atLeastTwoProcs(t)
	for name, c := range equivalenceCircuits() {
		for _, rpt := range []bool{true, false} {
			label := name + "/rpt"
			if !rpt {
				label = name + "/nopre"
			}
			cold := &Engine{VerifyTests: true, Workers: 1, DisableScratchReuse: true}
			ref, err := cold.Run(context.Background(), c, incrementalOptions(1, rpt))
			if err != nil {
				t.Fatalf("%s: cold reference: %v", label, err)
			}
			for _, groupMax := range []int{1, DefaultGroupMax} {
				for _, workers := range []int{1, 2, 4} {
					got := runIncremental(t, c, groupMax, workers, rpt)
					sameSummaries(t, label+"/max"+itoa(groupMax)+"w"+itoa(workers), ref, got)
				}
			}
			got := runIncremental(t, c, 3, 2, rpt)
			sameSummaries(t, label+"/max3w2", ref, got)
		}
	}
}

// TestIncrementalVerdictsMatchFresh requires every fault's verdict on
// the persistent incremental path to equal the fresh-per-fault DPLL
// path's (Incremental: false). Without RPT and dropping every fault
// reaches the solver on both paths. Vectors are not compared: the fresh
// solver branches by activity, not lex-first, so it may pick another
// detecting vector.
func TestIncrementalVerdictsMatchFresh(t *testing.T) {
	atLeastTwoProcs(t)
	for name, c := range equivalenceCircuits() {
		faults := Collapse(c, AllFaults(c))
		eng := &Engine{VerifyTests: true, Workers: 2}
		fresh, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
		if err != nil {
			t.Fatalf("%s: fresh: %v", name, err)
		}
		inc, err := eng.RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
		if err != nil {
			t.Fatalf("%s: incremental: %v", name, err)
		}
		if len(fresh.Results) != len(inc.Results) {
			t.Fatalf("%s: %d fresh results, %d incremental", name, len(fresh.Results), len(inc.Results))
		}
		for i := range fresh.Results {
			a, b := fresh.Results[i], inc.Results[i]
			if a.Fault != b.Fault || a.Status != b.Status {
				t.Fatalf("%s: result %d: fresh %v %v, incremental %v %v", name, i, a.Fault, a.Status, b.Fault, b.Status)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestIncrementalUntestableIsolated builds a circuit with a redundant
// gate (g = a∧b feeding out = a∨g, so g stuck-at-0 is untestable) and
// requires the group instance to keep serving its neighbors after
// proving the redundancy: the UNSAT-under-assumptions verdict must not
// poison the instance or be recorded as global.
func TestIncrementalUntestableIsolated(t *testing.T) {
	b := logic.NewBuilder("redundant")
	a := b.Input("a")
	bb := b.Input("b")
	g := b.Gate(logic.And, "g", a, bb)
	out := b.Gate(logic.Or, "out", a, g)
	b.MarkOutput(out)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c)
	eng := &Engine{VerifyTests: true, Workers: 1}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Untestable == 0 {
		t.Fatalf("redundant fault not reported untestable: %+v", sum)
	}
	if sum.Detected == 0 {
		t.Fatalf("no detections after the untestable member: %+v", sum)
	}
	if sum.Detected+sum.Untestable != sum.Total {
		t.Fatalf("faults unaccounted: D%d U%d of %d", sum.Detected, sum.Untestable, sum.Total)
	}
	fresh, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Detected != sum.Detected || fresh.Untestable != sum.Untestable {
		t.Fatalf("incremental (D%d U%d) vs fresh (D%d U%d)",
			sum.Detected, sum.Untestable, fresh.Detected, fresh.Untestable)
	}
}

// TestIncrementalMemWatchdogShrinksLearnedDB runs incremental mode
// under a 1-byte soft limit so every watchdog sample forces a shrink,
// and requires the learned-clause budget to bottom out without
// changing any verdict or vector.
func TestIncrementalMemWatchdogShrinksLearnedDB(t *testing.T) {
	// Uncollapsed multiplier faults, no pre-phase or dropping: every
	// fault reaches the solver, so the run outlives many 1ms samples
	// even on a single CPU (the watchdog goroutine needs the scheduler
	// to preempt a busy worker before it can sample the heap).
	c := gen.ArrayMultiplier(7)
	refEng := &Engine{VerifyTests: true, Workers: 2}
	ref, err := refEng.Run(context.Background(), c, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	met := NewMetrics(reg, 2)
	eng := &Engine{VerifyTests: true, Workers: 2, memCheckEvery: time.Millisecond}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Incremental:  true,
		MemSoftLimit: 1,
		Telemetry:    &Telemetry{Metrics: met},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameSummaries(t, "shrunk-vs-ref", ref, sum)
	if met.CacheShrinks.Value() == 0 {
		t.Fatal("watchdog never fired under a 1-byte soft limit")
	}
	if db := met.ClauseDBBytes.Value(); db > sat.DefaultLearnedLimit {
		t.Fatalf("clause DB gauge %d exceeds the default budget", db)
	}
}

// TestIncrementalPanicIsolation injects a panic into one member's
// processing: the run must survive, the victim (and any unemitted
// group neighbors) report Errored with the panic message, and every
// fault stays accounted for.
func TestIncrementalPanicIsolation(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	victim := faults[len(faults)/2]
	eng := &Engine{Workers: 2}
	eng.testHookPanic = func(f Fault) {
		if f == victim {
			panic("injected region explosion")
		}
	}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if sum.Errors == 0 {
		t.Fatal("no Errored results after an injected panic")
	}
	if got := sum.Detected + sum.Untestable + sum.Aborted + sum.Errors; got != sum.Total {
		t.Fatalf("faults lost to the panic: %d accounted of %d", got, sum.Total)
	}
	var found bool
	for i := range sum.Results {
		if sum.Results[i].Status == Errored {
			if !strings.Contains(sum.Results[i].Err, "injected region explosion") {
				t.Fatalf("Result.Err = %q", sum.Results[i].Err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no Errored result in the summary")
	}
}

// TestIncrementalRetryTiers forces aborts with a tiny budget and
// requires the incremental retry path (re-grouped by region) to
// recover them, matching the unlimited incremental run's verdicts.
func TestIncrementalRetryTiers(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	ref := runIncremental(t, c, DefaultGroupMax, 2, true)
	eng := &Engine{VerifyTests: true, Workers: 2}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, DropDetected: true,
		RPTBatches: DefaultRPTBatches, Seed: 42,
		Incremental:    true,
		PerFaultBudget: 50 * time.Microsecond,
		RetryTiers:     8,
		RetryBackoff:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Aborted > 0 {
		t.Skipf("budget too tight even after retries on this machine (%d aborted)", sum.Aborted)
	}
	if sum.Detected+sum.DroppedByFaultSim != ref.Detected+ref.DroppedByFaultSim ||
		sum.Untestable != ref.Untestable {
		t.Fatalf("retried run (D%d+drop%d U%d) vs reference (D%d+drop%d U%d)",
			sum.Detected, sum.DroppedByFaultSim, sum.Untestable,
			ref.Detected, ref.DroppedByFaultSim, ref.Untestable)
	}
}

// sameResultsExcept requires got's per-fault statuses and vectors to
// equal ref's, in order, skipping results with status skip.
func sameResultsExcept(t *testing.T, label string, ref, got *Summary, skip Status) {
	t.Helper()
	if len(ref.Results) != len(got.Results) {
		t.Fatalf("%s: %d results, reference %d", label, len(got.Results), len(ref.Results))
	}
	for i := range ref.Results {
		a, b := ref.Results[i], got.Results[i]
		if a.Fault != b.Fault {
			t.Fatalf("%s: result %d is fault %v, reference %v", label, i, b.Fault, a.Fault)
		}
		if b.Status == skip {
			continue
		}
		if a.Status != b.Status {
			t.Fatalf("%s: fault %v: %v, reference %v", label, a.Fault, b.Status, a.Status)
		}
		for j := range a.Vector {
			if a.Vector[j] != b.Vector[j] {
				t.Fatalf("%s: fault %v: vector %v, reference %v", label, a.Fault, b.Vector, a.Vector)
			}
		}
	}
}

// TestIncrementalRetryTiersTightBudget gives every main-sweep solve a
// 1 ns budget, so each one aborts on entry, and lets the retry tiers —
// re-grouped by region, solved on the same persistent instances the
// sweep retired its groups from — decide every fault. Each verdict and
// vector must equal an unbudgeted run's.
func TestIncrementalRetryTiersTightBudget(t *testing.T) {
	atLeastTwoProcs(t)
	for _, name := range []string{"rand", "edge1"} {
		c := equivalenceCircuits()[name]
		faults := Collapse(c, AllFaults(c))
		for _, workers := range []int{1, 2} {
			eng := &Engine{VerifyTests: true, Workers: workers}
			ref, err := eng.RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{
				Incremental:    true,
				PerFaultBudget: time.Nanosecond,
				RetryTiers:     3,
				RetryBackoff:   1e7, // tier 1: 10 ms per fault
			})
			if err != nil {
				t.Fatal(err)
			}
			label := name + "/w" + itoa(workers)
			if len(sum.Retries) == 0 || sum.Retries[0].Attempted == 0 {
				t.Fatalf("%s: the 1 ns sweep left nothing to retry: %+v", label, sum.Retries)
			}
			if sum.Aborted > 0 {
				t.Fatalf("%s: %d faults still aborted after a 10 ms retry tier", label, sum.Aborted)
			}
			sameResultsExcept(t, label, ref, sum, -1)
		}
	}
}

// TestIncrementalPanicReloadsGoodCircuit panics inside one region
// group on a single worker. The worker's arena — and with it the
// instance holding the good circuit — is replaced, so every later group
// must reload the circuit into the new instance: apart from the Errored
// members of the victim's group, every verdict and vector must equal an
// unfaulted run's.
func TestIncrementalPanicReloadsGoodCircuit(t *testing.T) {
	c := equivalenceCircuits()["rand"]
	faults := Collapse(c, AllFaults(c))
	ref, err := (&Engine{VerifyTests: true, Workers: 1}).RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	order, groups := buildGroups(c, faults, nil, DefaultGroupMax)
	victim := faults[order[groups[0].start]]
	eng := &Engine{VerifyTests: true, Workers: 1}
	eng.testHookPanic = func(f Fault) {
		if f == victim {
			panic("injected good-circuit loss")
		}
	}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors == 0 || sum.Errors > int(groups[0].end-groups[0].start) {
		t.Fatalf("%d Errored results; want the first group's %d members at most and at least one",
			sum.Errors, groups[0].end-groups[0].start)
	}
	if len(groups) < 2 {
		t.Fatal("circuit has one region group: nothing runs after the panic")
	}
	sameResultsExcept(t, "after-panic", ref, sum, Errored)
}

// TestIncrementalTelemetryCounters checks the new counters flow: a
// grouped run on a multi-fault region must report clauses kept across
// calls and a positive clause-DB high-water mark.
func TestIncrementalTelemetryCounters(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	reg := obs.NewRegistry()
	met := NewMetrics(reg, 1)
	eng := &Engine{Workers: 1}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, Incremental: true,
		Telemetry: &Telemetry{Metrics: met},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SolverTotals.LearnedKept == 0 {
		t.Fatal("no learned clauses survived across calls on a multiplier")
	}
	if met.LearnedKept.Value() != sum.SolverTotals.LearnedKept {
		t.Fatalf("atpg_learned_kept_total = %d, summary %d",
			met.LearnedKept.Value(), sum.SolverTotals.LearnedKept)
	}
	if met.LearnedReused.Value() != sum.SolverTotals.LearnedReused {
		t.Fatalf("atpg_learned_reused_total = %d, summary %d",
			met.LearnedReused.Value(), sum.SolverTotals.LearnedReused)
	}
	if met.ClauseDBBytes.Value() <= 0 {
		t.Fatal("atpg_clause_db_bytes gauge never set")
	}
	var grouped bool
	for _, r := range sum.Results {
		if r.Group > 0 && r.GroupSize > 1 {
			grouped = true
		}
	}
	if !grouped {
		t.Fatal("no multi-member group in the results")
	}
}
