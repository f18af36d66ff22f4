package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/atpg"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestTinyRunsPrintEveryMetric runs every workload of BENCHMARK.json at
// tiny sizes, untraced and traced, and checks that the result line names
// every metric BENCHMARK.json lists, with its unit, and nothing else.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload: w.name, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
				tiny: true, workers: 2, buildDir: t.TempDir(), source: "test",
			}
			rep, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			want, names := spec.EndToEnd, endToEnd
			if trace {
				want, names = spec.PerLayer, perLayer
			}
			var buf bytes.Buffer
			if err := rep.print(&buf, names); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d (%v)",
					w.name, trace, res.Correct, res.Attempted, res.Failed, rep.gateErr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// tinyRun runs the engine once on a small datapath circuit.
func tinyRun(t *testing.T) (prepared, *atpg.Summary) {
	t.Helper()
	nls, err := workloads[1].netlists(1, true)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := prepare(nls[0], nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	eng, opt := newEngine(2)
	sum, err := eng.RunFaults(context.Background(), pc.c, pc.faults, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pc, sum
}

func TestGateFailsOnARemovedVector(t *testing.T) {
	pc, sum := tinyRun(t)
	if err := gradeGate(pc, sum.Vectors, sum.Untestable, nil, -1, &probeStats{}); err != nil {
		t.Fatalf("full vector set: %v", err)
	}
	short := sum.Vectors[:len(sum.Vectors)-1]
	if err := gradeGate(pc, short, sum.Untestable, nil, -1, &probeStats{}); err == nil {
		t.Fatalf("%s: the gate passed %d of %d vectors", pc.name, len(short), len(sum.Vectors))
	}
}

func TestGateFailsOnAChangedVectorCount(t *testing.T) {
	_, sum := tinyRun(t)
	want := outcomes(passResult{sums: []*atpg.Summary{sum}})
	got := append([]outcome(nil), want...)
	got[0].Vectors++
	if err := sameOutcomes(want, got); err == nil {
		t.Fatal("a pass with one more vector matched the warm-up")
	}

	// Across runs: the second run of a seed and source must match the
	// outcomes the first left behind.
	cfg := runConfig{workload: "resistant-datapath", seed: 1, tiny: true, buildDir: t.TempDir(), source: "test"}
	if err := checkDigestFile(cfg, want); err != nil {
		t.Fatal(err)
	}
	if err := checkDigestFile(cfg, want); err != nil {
		t.Fatalf("identical rerun: %v", err)
	}
	if err := checkDigestFile(cfg, got); err == nil {
		t.Fatal("a rerun with one more vector matched the first run")
	}
}

func TestGateFailsOnAWrongVerdict(t *testing.T) {
	pc, sum := tinyRun(t)
	vs := resultVerdicts(sum.Results, true)
	if len(vs) == 0 {
		t.Skip("no fault reached the solver")
	}
	if err := probe(pc, vs, nil, -1, &probeStats{}); err != nil {
		t.Fatalf("true verdicts: %v", err)
	}
	vs[0].status = atpg.Untestable
	if err := probe(pc, vs, nil, -1, &probeStats{}); err == nil {
		t.Fatal("the probe accepted a detected fault reported untestable")
	}
}

func TestTail(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100 - i)
	}
	if p, v := tail(ds); p != 90 || v != 90 {
		t.Errorf("100 samples: p%d = %v, want p90 = 90", p, v)
	}
	if p, v := tail(ds[:7]); p != 100 || v != 100 {
		t.Errorf("7 samples: p%d = %v, want the maximum as p100", p, v)
	}
}
