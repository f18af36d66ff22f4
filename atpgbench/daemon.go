package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/serve"
)

// daemonEngineWorkers is the engine parallelism of the daemon's one
// running slot. With nproc clients, their connections and the server's
// handlers on the same cores, an engine at nproc workers oversubscribed
// them: on a 2-vCPU host one competing busy loop doubled job_p50_s at
// nproc engine workers but raised it by a quarter to a third at one.
const daemonEngineWorkers = 1

// jobHangGuard bounds how long a client waits for one job. It is not a
// budget: every job of the workload finishes in well under a second, and
// a job that hits the guard counts as failed.
const jobHangGuard = 60 * time.Second

// jobRecord is one submission as a client saw it.
type jobRecord struct {
	netlist int
	id      string
	status  int    // HTTP status of the submit
	state   string // terminal state from the SSE end event
	events  int    // SSE events received
	err     error

	submitStart, submitted, running, end, resultDone time.Time
	result                                           *serve.JobResult
}

func (j *jobRecord) done() bool { return j.err == nil && j.state == serve.StateDone && j.result != nil }

// daemon is one in-process atpgd on its own data dir.
type daemon struct {
	srv  *serve.Server
	base string
	dir  string
}

func startDaemon(dir string, workers int) (*daemon, error) {
	srv, err := serve.Start(serve.Config{
		Addr:          "127.0.0.1:0",
		DataDir:       dir,
		RunningSlots:  1,
		EngineWorkers: workers,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return nil, fmt.Errorf("start atpgd: %w", err)
	}
	d := &daemon{srv: srv, base: "http://" + srv.Addr(), dir: dir}
	if err := d.waitReady(); err != nil {
		_ = srv.Close()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady() error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 1000 {
			return fmt.Errorf("atpgd at %s never became ready: %v", d.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// client is one closed-loop tenant: a CI pipeline that submits a netlist,
// waits for its test set, and only then submits the next, over a single
// connection.
type client struct {
	http *http.Client
	rng  *rand.Rand // draws the client's submission order for each round
}

func newClients(n int, seed int64) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			http: &http.Client{
				Timeout:   jobHangGuard,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
		}
	}
	return cs
}

// round runs every client once through every netlist, in a fresh order
// per client and round, and returns the jobs and the wall time from the
// first submit to the last terminal job. Fresh orders vary which jobs
// queue behind which, so a run's latencies do not hang on one pairing.
func round(d *daemon, clients []*client, nls []netlist) ([]*jobRecord, time.Duration) {
	var wg sync.WaitGroup
	recs := make([][]*jobRecord, len(clients))
	start := time.Now()
	for i, c := range clients {
		plan := c.rng.Perm(len(nls))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range plan {
				recs[i] = append(recs[i], c.job(d.base, n, nls[n]))
			}
		}()
	}
	wg.Wait()
	var all []*jobRecord
	last := start
	for _, rs := range recs {
		for _, r := range rs {
			all = append(all, r)
			if r.end.After(last) {
				last = r.end
			}
		}
	}
	return all, last.Sub(start)
}

// job submits one netlist, follows its SSE stream to the end event and
// fetches the result.
func (c *client) job(base string, n int, nl netlist) *jobRecord {
	r := &jobRecord{netlist: n, submitStart: time.Now()}
	resp, err := c.http.Post(base+"/jobs?name="+url.QueryEscape(nl.name), "text/plain", bytes.NewReader(nl.text))
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.status = resp.StatusCode
	var meta serve.JobMeta
	err = json.NewDecoder(resp.Body).Decode(&meta)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.submitted = time.Now()
	if r.status != http.StatusCreated || err != nil {
		r.err = fmt.Errorf("submit: status %d (%v)", r.status, err)
		return r
	}
	r.id = meta.ID
	if err := c.follow(base, r); err != nil {
		r.err = err
		return r
	}
	if err := c.fetchResult(base, r); err != nil {
		r.err = err
	}
	r.resultDone = time.Now()
	return r
}

// follow reads the job's event stream: the first event whose state is no
// longer queued ends the queue wait, the end event ends the run.
func (c *client) follow(base string, r *jobRecord) error {
	resp, err := c.http.Get(base + "/jobs/" + r.id + "/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("events: stream ended before the end event: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			now := time.Now()
			r.events++
			if r.running.IsZero() && ev.State != serve.StateQueued {
				r.running = now
			}
			if event == "end" {
				r.end, r.state = now, ev.State
				_, _ = io.Copy(io.Discard, br)
				return nil
			}
		}
	}
}

func (c *client) fetchResult(base string, r *jobRecord) error {
	resp, err := c.http.Get(base + "/jobs/" + r.id)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		State  string           `json:"state"`
		Result *serve.JobResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || doc.State != serve.StateDone || doc.Result == nil {
		return fmt.Errorf("result: status %d, state %q", resp.StatusCode, doc.State)
	}
	r.result = doc.Result
	return nil
}

// jobOutcome is the exact part of a done job, compared per netlist.
func jobOutcome(name string, res *serve.JobResult) outcome {
	return outcome{
		Circuit: name, Digest: digestLines(res.Vectors), Vectors: len(res.Vectors), Detected: res.Detected,
		Untestable: res.Untestable, RPT: res.DetectedByRPT, Aborted: res.Aborted,
		Errors: res.Errors, CollapsedTotal: res.Faults,
	}
}

// runDaemon measures the atpgd-jobs workload: nproc closed-loop clients
// against an in-process daemon with one running slot of
// daemonEngineWorkers engine workers, each submitting
// every netlist of the mix once per round in its own seeded order.
func runDaemon(cfg runConfig, nls []netlist, rep *report) error {
	circs, _, err := prepareAll(nls, nil, -1)
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp(cfg.buildDir, "atpgd-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	clients := newClients(cfg.workers, cfg.seed)
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()

	// Warm-up: one untimed round on its own data dir, which then serves
	// as the dir the timed restarts replay.
	warmDir := filepath.Join(root, "warm")
	d, err := startDaemon(warmDir, daemonEngineWorkers)
	if err != nil {
		return err
	}
	warmJobs, _ := round(d, clients, nls)
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop warm-up atpgd: %w", err)
	}
	want := make([]outcome, len(nls))
	for _, j := range warmJobs {
		if !j.done() {
			return fmt.Errorf("warm-up job for %s did not finish: state %q, %v", nls[j.netlist].name, j.state, j.err)
		}
		want[j.netlist] = jobOutcome(nls[j.netlist].name, j.result)
	}

	d, err = startDaemon(filepath.Join(root, "load"), daemonEngineWorkers)
	if err != nil {
		return err
	}
	defer d.srv.Close()
	check := func(jobs []*jobRecord) {
		for _, j := range jobs {
			rep.attempted++
			if !j.done() {
				rep.failed++
				rep.fail(fmt.Errorf("job %s (%s): state %q, %v", j.id, nls[j.netlist].name, j.state, j.err))
				continue
			}
			if got := jobOutcome(nls[j.netlist].name, j.result); got != want[j.netlist] {
				rep.fail(fmt.Errorf("job %s: outcome %+v differs from the warm-up's %+v", j.id, got, want[j.netlist]))
			}
		}
	}

	// Each round: setupsPerPass timed restarts, then one timed round of
	// load, each after a GC; with trace set, one traced round besides.
	// setup_s is an operator's restart over the data dir the warm-up load
	// left behind: the replay of every job dir until /readyz answers.
	var setups, walls, tracedWalls, latencies []time.Duration
	var rates []float64
	var rss passRSS
	var last, traced []*jobRecord
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(cfg.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		for i := 0; i < setupsPerPass; i++ {
			runtime.GC()
			start := time.Now()
			rd, err := startDaemon(warmDir, daemonEngineWorkers)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start))
			if err := rd.srv.Close(); err != nil {
				return fmt.Errorf("close restarted atpgd: %w", err)
			}
		}
		runtime.GC()
		rss.begin()
		jobs, wall := round(d, clients, nls)
		rss.end()
		check(jobs)
		walls = append(walls, wall)
		rates = append(rates, float64(len(jobs))/wall.Seconds())
		for _, j := range jobs {
			latencies = append(latencies, j.end.Sub(j.submitStart))
		}
		last = jobs
		if !cfg.trace {
			continue
		}
		runtime.GC()
		jobs, wall = round(d, clients, nls)
		check(jobs)
		traceJobs(tr, jobs)
		tracedWalls = append(tracedWalls, wall)
		traced = append(traced, jobs...)
		last = jobs
	}

	// Gate: grade each netlist's vector set once and probe the faults its
	// job journaled, after the timed rounds. As on the engine workloads,
	// grading confirms the detected verdicts and the probe proves the
	// untestable ones; a traced run probes every journaled fault.
	ps := &probeStats{}
	firstJob := make(map[int]*jobRecord)
	for _, j := range last {
		if _, ok := firstJob[j.netlist]; !ok && j.done() {
			firstJob[j.netlist] = j
		}
	}
	var sats int
	for i, nl := range nls {
		j, ok := firstJob[i]
		if !ok {
			rep.fail(fmt.Errorf("%s: no job finished in the last round", nl.name))
			continue
		}
		rootSpan := tr.begin(nl.name, "harness", "circuit", -1)
		pc := circs[i]
		if tr != nil {
			if pc, err = prepare(nl, tr, rootSpan); err != nil {
				return err
			}
		}
		if err := checkJobResult(pc, j.result); err != nil {
			rep.fail(err)
		}
		vectors, err := decodeVectors(j.result.Vectors)
		if err != nil {
			return err
		}
		if err := gradeGate(pc, vectors, j.result.Untestable, tr, rootSpan, ps); err != nil {
			rep.fail(err)
		}
		vs, err := journalVerdicts(pc, filepath.Join(d.dir, "jobs", j.id, "ckpt"), cfg.trace)
		if err != nil {
			rep.fail(err)
		} else if err := probe(pc, vs, tr, rootSpan, ps); err != nil {
			rep.fail(err)
		}
		sats += len(vs)
		tr.end(rootSpan)
	}
	if err := checkDigestFile(cfg, want); err != nil {
		rep.fail(err)
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop atpgd: %w", err)
	}

	var vectors, covered, testable int
	for _, j := range last {
		if j.done() {
			vectors += len(j.result.Vectors)
			covered += j.result.Detected + j.result.DetectedByRPT
			testable += j.result.Faults - j.result.Untestable
		}
	}
	rep.seconds("setup_s", medianDur(setups))
	rep.seconds("atpg_s", medianDur(walls))
	rep.exact("test_vectors", "count", float64(vectors))
	rep.exact("fault_coverage_pct", "%", pct(covered, testable))
	rep.exact("succeeded_pct", "%", 100-pct(rep.failed, rep.attempted))
	rss.report(rep)
	jobMetrics(rep, rates, latencies)
	rep.note("atpgd: %d closed-loop clients, 1 running slot, engine workers %d, %d jobs per round, %d timed rounds, %d restarts; failed_pct %.4g (submissions not done)",
		len(clients), daemonEngineWorkers, len(last), len(walls), len(setups), pct(rep.failed, rep.attempted))
	rep.note("atpg_s round range %.4g..%.4g s; setup_s range %.4g..%.4g s",
		minDur(walls).Seconds(), maxDur(walls).Seconds(), minDur(setups).Seconds(), maxDur(setups).Seconds())

	if cfg.trace {
		serveLayers(rep, traced)
		if err := checkpointLayers(rep, d.dir, last, tr); err != nil {
			return err
		}
		var rpt, untestable int
		for _, j := range firstJob {
			rpt += j.result.DetectedByRPT
			untestable += j.result.Untestable
		}
		rep.exact("atpg.rpt_detected", "count", float64(rpt))
		rep.exact("atpg.untestable", "count", float64(untestable))
		rep.exact("atpg.sat_calls", "count", float64(sats))
		rep.note("atpg.* counts on atpgd-jobs are over one job per netlist; checkpoint.* over the last round's jobs")
		ps.report(rep)
		setupLayers(rep, tr, circs)
		rep.seconds("trace.overhead_s", medianDur(tracedWalls)-medianDur(walls))
		rep.note("trace.overhead_s: median of %d traced rounds minus median of %d untraced rounds", len(tracedWalls), len(walls))
		return finishTrace(cfg, tr, rep)
	}
	return nil
}

// traceJobs records each job's protocol intervals as spans.
func traceJobs(tr *tracer, jobs []*jobRecord) {
	for _, j := range jobs {
		if !j.done() {
			continue
		}
		root := tr.add(j.id, "harness", "job", -1, j.submitStart, j.resultDone)
		tr.add(j.id, "serve", "submit", root, j.submitStart, j.submitted)
		tr.add(j.id, "serve", "queue_wait", root, j.submitted, j.running)
		tr.add(j.id, "serve", "run", root, j.running, j.end)
		tr.add(j.id, "serve", "result", root, j.end, j.resultDone)
	}
}

func serveLayers(rep *report, jobs []*jobRecord) {
	var submit, wait, run, result []time.Duration
	var refused, events int
	for _, j := range jobs {
		events += j.events
		if j.status == http.StatusTooManyRequests {
			refused++
		}
		if !j.done() {
			continue
		}
		submit = append(submit, j.submitted.Sub(j.submitStart))
		wait = append(wait, j.running.Sub(j.submitted))
		run = append(run, j.end.Sub(j.running))
		result = append(result, j.resultDone.Sub(j.end))
	}
	rep.timings("serve.submit", submit)
	rep.timings("serve.queue_wait", wait)
	rep.timings("serve.run", run)
	rep.timings("serve.result", result)
	rep.exact("serve.refused_429", "count", float64(refused))
	rep.varies("serve.sse_events", "count", float64(events))
}

// checkpointLayers reads the journals of the last round's jobs, then
// replays their verdicts through checkpoint.New and the Record methods on
// a scratch journal to time the append path.
func checkpointLayers(rep *report, dataDir string, jobs []*jobRecord, tr *tracer) error {
	scratch, err := os.MkdirTemp(filepath.Dir(dataDir), "ckpt-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var records, size int
	var appendTime time.Duration
	for _, j := range jobs {
		if !j.done() {
			continue
		}
		path := filepath.Join(dataDir, "jobs", j.id, "ckpt")
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size += int(fi.Size())
		st, err := checkpoint.Load(path)
		if err != nil {
			return err
		}
		records += len(st.Faults)
		s := tr.begin(j.id, "checkpoint", "append", -1)
		start := time.Now()
		err = replayJournal(filepath.Join(scratch, j.id), st)
		appendTime += time.Since(start)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	rep.exact("checkpoint.records", "count", float64(records))
	rep.exact("checkpoint.journal_bytes", "bytes", float64(size))
	rep.seconds("checkpoint.append_s", appendTime)
	return nil
}

func replayJournal(path string, st *checkpoint.State) error {
	j, err := checkpoint.New(path, st.Header, nil, checkpoint.Options{})
	if err != nil {
		return err
	}
	if st.RPT != nil {
		vs, err := decodeVectors(st.RPT.Vectors)
		if err != nil {
			return err
		}
		j.RecordRPT(st.RPT.Detected, vs, st.RPT.Batches)
	}
	for _, i := range journaledFaults(st) {
		fv := st.Faults[i]
		var v []bool
		if fv.Vector != "" {
			if v, err = checkpoint.DecodeVector(fv.Vector); err != nil {
				return err
			}
		}
		j.RecordFault(i, fv.Status, v, fv.Err)
	}
	return j.Close()
}

// journaledFaults returns the indices of a journal's fault verdicts in
// ascending order.
func journaledFaults(st *checkpoint.State) []int {
	idx := make([]int, 0, len(st.Faults))
	for i := range st.Faults {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// journalVerdicts lists the faults a job journaled — those that reached
// its solver — with their verdicts: the untestable ones, plus the
// detected ones when all is set.
func journalVerdicts(pc prepared, path string, all bool) ([]verdict, error) {
	st, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	var vs []verdict
	for _, i := range journaledFaults(st) {
		status, ok := atpg.ParseStatus(st.Faults[i].Status)
		if !ok || i < 0 || i >= len(pc.faults) {
			return nil, fmt.Errorf("%s: journal record %d (%q) is not a verdict on a collapsed fault", pc.name, i, st.Faults[i].Status)
		}
		if all || status != atpg.Detected {
			vs = append(vs, verdict{pc.faults[i], status})
		}
	}
	return vs, nil
}

// checkJobResult is the per-job part of the gate result.json alone can
// answer.
func checkJobResult(pc prepared, res *serve.JobResult) error {
	if res.Faults != len(pc.faults) {
		return fmt.Errorf("%s: job targeted %d faults, the collapsed list has %d", pc.name, res.Faults, len(pc.faults))
	}
	if res.Aborted != 0 || res.Errors != 0 {
		return fmt.Errorf("%s: %d aborted and %d errored faults", pc.name, res.Aborted, res.Errors)
	}
	if res.Detected+res.DetectedByRPT != res.Faults-res.Untestable {
		return fmt.Errorf("%s: coverage %.6f, want 1", pc.name, res.Coverage)
	}
	return nil
}

func decodeVectors(ss []string) ([][]bool, error) {
	out := make([][]bool, len(ss))
	for i, s := range ss {
		v, err := checkpoint.DecodeVector(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
