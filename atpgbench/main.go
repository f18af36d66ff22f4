// Command atpgbench is the repository benchmark: it runs one workload of
// generated netlists through the ATPG engine or the atpgd daemon, checks
// every output, and prints each metric by name with its unit. The last
// line of standard output is the result: one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Usage, from the repository root (run.sh builds this program first):
//
//	bash atpgbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run also traces the calls into each
// layer and reports the per-layer metrics, each layer's self time and
// the tracing overhead; the spans are written to .bench_build/traces/.
// A run whose outputs fail the correctness gate prints correct:false and
// exits with status 1. See README.md in this directory for the workloads
// and what each metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json
// order. On the engine workloads a "job" is one circuit's RunFaults call;
// on atpgd-jobs it is one daemon job, submit to end.
var endToEnd = []string{
	"setup_s", "atpg_s", "test_vectors", "fault_coverage_pct", "succeeded_pct",
	"peak_rss_mb", "jobs_per_s", "job_p50_s", "job_tail_s",
}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// does not exercise reads 0 there (serve and checkpoint on the engine
// workloads, for instance).
var perLayer = []string{
	"bench.parse_s", "decomp.decompose_s", "atpg.collapse_s", "atpg.collapse_ratio",
	"atpg.run_s", "atpg.rpt_detected", "atpg.sat_calls", "atpg.untestable",
	"atpg.dropped_by_sim", "atpg.wasted_solves", "atpg.wasted_ratio",
	"atpg.phase.rpt_s", "atpg.phase.build_s", "atpg.phase.solve_s",
	"atpg.phase.faultsim_s", "atpg.phase.frontier_stall_s",
	"sat.conflicts", "sat.decisions", "sat.learned_reused",
	"cnf.encode_s", "cnf.encode_p50_s", "cnf.encode_tail_s", "cnf.vars", "cnf.clauses",
	"sat.probe_search_s", "sat.probe_search_p50_s", "sat.probe_search_tail_s", "sat.probe_conflicts",
	"atpg.verify_s", "atpg.verify_p50_s", "atpg.verify_tail_s",
	"faultsim.grade_s", "faultsim.graded_detected",
	"serve.submit_s", "serve.submit_p50_s", "serve.submit_tail_s",
	"serve.queue_wait_s", "serve.queue_wait_p50_s", "serve.queue_wait_tail_s",
	"serve.run_s", "serve.run_p50_s", "serve.run_tail_s",
	"serve.result_s", "serve.result_p50_s", "serve.result_tail_s",
	"serve.refused_429", "serve.sse_events",
	"checkpoint.records", "checkpoint.journal_bytes", "checkpoint.append_s",
	"self.harness_s", "self.bench_s", "self.decomp_s", "self.atpg_s", "self.cnf_s",
	"self.sat_s", "self.faultsim_s", "self.serve_s", "self.checkpoint_s",
	"trace.overhead_s", "trace.spans",
}

// layers are this repository's modules a span can be attributed to, plus
// the benchmark's own code ("harness").
var layers = []string{"harness", "bench", "decomp", "atpg", "cnf", "sat", "faultsim", "serve", "checkpoint"}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool // the reduced sizes of the benchmark's tests
	workers  int
	buildDir string // where digests, traces and daemon data dirs go
	source   string // digest of the source tree under test
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "atpgbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("atpgbench", flag.ContinueOnError)
	workloadName := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "workload seed: orders the circuits of a pass and each daemon client's submissions")
	seconds := fl.Int("seconds", 10, "measuring time in seconds")
	traceFlag := fl.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	source, err := sourceDigest(".")
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, workers: runtime.NumCPU(),
		buildDir: ".bench_build", source: source,
	}
	rep, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		return err
	}
	wanted := endToEnd
	if cfg.trace {
		wanted = perLayer
	}
	if err := rep.print(stdout, wanted); err != nil {
		return err
	}
	if rep.gateErr != nil {
		return fmt.Errorf("correctness gate: %w", rep.gateErr)
	}
	return nil
}

// runWorkload measures one workload and returns its report; the report's
// gateErr is set when an output failed the correctness gate.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*report, error) {
	nls, err := w.netlists(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.note("host: nproc %d, GOMAXPROCS %d, %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep.note("build: git revision %s, source digest %s", gitRevision(), cfg.source)
	rep.note("workload %s, seed %d, %d netlists (%s), measuring %v, trace %v",
		cfg.workload, cfg.seed, len(nls), strings.Join(names(nls), ", "), cfg.seconds, cfg.trace)
	if w.daemon {
		err = runDaemon(cfg, nls, rep)
	} else {
		err = runEngine(ctx, cfg, nls, rep)
	}
	if err != nil {
		return nil, err
	}
	for _, name := range perLayer {
		if _, ok := rep.metrics[name]; !ok && cfg.trace {
			rep.set(name, unitOf(name), "not exercised", 0)
		}
	}
	return rep, nil
}

// unitOf gives the unit of a per-layer metric from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	}
	return "count"
}

// finishTrace reports each layer's self time and writes the spans out.
func finishTrace(cfg runConfig, tr *tracer, rep *report) error {
	self := tr.selfTimes()
	for _, l := range layers {
		rep.seconds("self."+l+"_s", self[l])
	}
	rep.exact("trace.spans", "count", float64(tr.len()))
	dir := filepath.Join(cfg.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

func names(nls []netlist) []string {
	out := make([]string, len(nls))
	for i, nl := range nls {
		out[i] = nl.name
	}
	return out
}

// passRSS records the peak resident set size of each timed pass or
// round: it resets the kernel's high-water mark before one and reads it
// after. A single peak over the whole run moved by a sixth between runs
// with the garbage collector's timing; the median over passes holds.
type passRSS struct {
	peaks   []float64
	noReset bool // the kernel refused the reset: peaks are running maxima
}

func (p *passRSS) begin() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		p.noReset = true
	}
}

func (p *passRSS) end() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.peaks = append(p.peaks, float64(ru.Maxrss)/1024) // Linux reports kilobytes
	}
}

func (p *passRSS) report(rep *report) {
	rep.varies("peak_rss_mb", "MB", median(p.peaks))
	if p.noReset {
		rep.note("peak_rss_mb: the peak could not be reset per pass, so it is the run's peak")
	}
}

// gitRevision is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func gitRevision() string {
	rev, modified := "none (not built in a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the exact tree it measured even outside git.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
