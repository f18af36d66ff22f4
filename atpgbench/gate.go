package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/sat"
)

// vectorDigest identifies a vector set, order included.
func vectorDigest(vs [][]bool) string {
	ss := make([]string, len(vs))
	for i, v := range vs {
		ss[i] = checkpoint.EncodeVector(v)
	}
	return digestLines(ss)
}

// digestLines identifies a vector set in the journal's bit-string form.
func digestLines(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// probeStats accumulates the gate's grading and probe work over circuits
// or jobs; its timings are the per-layer metrics of those layers.
type probeStats struct {
	grade                  time.Duration
	graded                 int
	encode, solve, verify  []time.Duration
	vars, clauses          int
	conflicts              int64
	probedSat, probedUnsat int
}

func (p *probeStats) report(rep *report) {
	rep.seconds("faultsim.grade_s", p.grade)
	rep.exact("faultsim.graded_detected", "count", float64(p.graded))
	rep.timings("cnf.encode", p.encode)
	rep.exact("cnf.vars", "count", float64(p.vars))
	rep.exact("cnf.clauses", "count", float64(p.clauses))
	rep.timings("sat.probe_search", p.solve)
	rep.exact("sat.probe_conflicts", "count", float64(p.conflicts))
	rep.timings("atpg.verify", p.verify)
	rep.note("probe: single-threaded replay of %d solver faults (%d SAT, %d UNSAT) after the timed runs",
		p.probedSat+p.probedUnsat, p.probedSat, p.probedUnsat)
}

// grade fault-simulates the vector set against the collapsed fault list,
// 64 patterns to a word, dropping each fault at its first detection, and
// returns how many faults it detects.
func grade(pc prepared, vectors [][]bool) (int, error) {
	alive := make([]atpg.Fault, len(pc.faults))
	copy(alive, pc.faults)
	var sim *faultsim.Simulator
	var words, masks []uint64
	nets := make([]int, 0, len(alive))
	stuck := make([]bool, 0, len(alive))
	for lo := 0; lo < len(vectors) && len(alive) > 0; lo += 64 {
		batch := vectors[lo:min(lo+64, len(vectors))]
		var err error
		if words, err = faultsim.PackPatternsInto(words, pc.c, batch); err != nil {
			return 0, err
		}
		if sim == nil {
			sim, err = faultsim.NewSimulator(pc.c, words, len(batch))
		} else {
			err = sim.Reset(words, len(batch))
		}
		if err != nil {
			return 0, err
		}
		nets, stuck = nets[:0], stuck[:0]
		for _, f := range alive {
			nets = append(nets, f.Net)
			stuck = append(stuck, f.StuckAt)
		}
		masks = sim.DetectAll(nets, stuck, masks, true)
		keep := alive[:0]
		for i, f := range alive {
			if masks[i] == 0 {
				keep = append(keep, f)
			}
		}
		alive = keep
	}
	return len(pc.faults) - len(alive), nil
}

// gradeGate checks that the vector set detects every collapsed fault the
// run did not prove untestable: graded detections + untestable must equal
// the collapsed fault count.
func gradeGate(pc prepared, vectors [][]bool, untestable int, tr *tracer, parent int, p *probeStats) error {
	s := tr.begin(pc.name, "faultsim", "grade", parent)
	start := time.Now()
	n, err := grade(pc, vectors)
	p.grade += time.Since(start)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: grade: %w", pc.name, err)
	}
	p.graded += n
	if n+untestable != len(pc.faults) {
		return fmt.Errorf("%s: %d vectors detect %d faults and %d are untestable, but %d faults were targeted",
			pc.name, len(vectors), n, untestable, len(pc.faults))
	}
	return nil
}

// verdict is a fault the program sent to its solver, with its status.
type verdict struct {
	fault  atpg.Fault
	status atpg.Status
}

// resultVerdicts lists the faults that reached the engine's solver: the
// untestable ones, plus the detected ones when all is set.
func resultVerdicts(rs []atpg.Result, all bool) []verdict {
	var out []verdict
	for _, r := range rs {
		if all || r.Status != atpg.Detected {
			out = append(out, verdict{r.Fault, r.Status})
		}
	}
	return out
}

// probe replays every fault that reached the program's solver on one
// thread through the public functions — NewMiter + Encode, DPLL Solve,
// ExtractTest + VerifyTest — and checks the SAT/UNSAT answer against the
// program's detected/untestable verdict.
func probe(pc prepared, vs []verdict, tr *tracer, parent int, p *probeStats) error {
	ps := tr.begin(pc.name, "harness", "probe", parent)
	defer tr.end(ps)
	solver := &sat.DPLL{MaxConflicts: dpllMaxConflicts}
	for _, v := range vs {
		s := tr.begin(pc.name, "cnf", "probe.encode", ps)
		start := time.Now()
		m, err := atpg.NewMiter(pc.c, v.fault)
		var f *cnf.Formula
		if err == nil {
			f, err = m.Encode()
		}
		p.encode = append(p.encode, time.Since(start))
		tr.end(s)
		if errors.Is(err, atpg.ErrUnobservable) {
			// No output observes the fault: untestable without a search.
			p.probedUnsat++
			if v.status != atpg.Untestable {
				return fmt.Errorf("%s %s: unobservable, but the program says %s", pc.name, v.fault.Name(pc.c), v.status)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s %s: encode: %w", pc.name, v.fault.Name(pc.c), err)
		}
		p.vars += f.NumVars
		p.clauses += f.NumClauses()

		s = tr.begin(pc.name, "sat", "probe.solve", ps)
		start = time.Now()
		sol := solver.Solve(f)
		p.solve = append(p.solve, time.Since(start))
		tr.end(s)
		p.conflicts += sol.Stats.Conflicts

		switch sol.Status {
		case sat.Sat:
			p.probedSat++
			s = tr.begin(pc.name, "atpg", "probe.verify", ps)
			start = time.Now()
			ok := atpg.VerifyTest(pc.c, v.fault, m.ExtractTest(pc.c, sol.Model))
			p.verify = append(p.verify, time.Since(start))
			tr.end(s)
			if !ok {
				return fmt.Errorf("%s %s: the probe's own test fails verification", pc.name, v.fault.Name(pc.c))
			}
			if v.status != atpg.Detected {
				return fmt.Errorf("%s %s: probe finds a test, but the program says %s", pc.name, v.fault.Name(pc.c), v.status)
			}
		case sat.Unsat:
			p.probedUnsat++
			if v.status != atpg.Untestable {
				return fmt.Errorf("%s %s: probe proves it untestable, but the program says %s", pc.name, v.fault.Name(pc.c), v.status)
			}
		default:
			return fmt.Errorf("%s %s: probe hit the conflict cap", pc.name, v.fault.Name(pc.c))
		}
	}
	return nil
}

// checkDigestFile compares this run's exact outcomes with those an
// earlier run of the same workload, seed and source tree left under the
// build directory, and records them for the next run.
func checkDigestFile(cfg runConfig, got []outcome) error {
	dir := filepath.Join(cfg.buildDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size := "full"
	if cfg.tiny {
		size = "tiny"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, size))
	type record struct {
		Source   string
		Outcomes []outcome
	}
	if data, err := os.ReadFile(path); err == nil {
		var prev record
		if err := json.Unmarshal(data, &prev); err == nil && prev.Source == cfg.source {
			if !reflect.DeepEqual(prev.Outcomes, got) {
				return fmt.Errorf("outcomes differ from an earlier run of the same seed and source (%s)", path)
			}
			return nil
		}
	}
	data, err := json.Marshal(record{cfg.source, got})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
