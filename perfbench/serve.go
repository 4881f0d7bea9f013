package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpfperf"
	"hpfperf/hpfclient"
	"hpfperf/internal/corpus"
)

// The serve workload: two closed-loop hpfclient callers against one
// hpfserve process, with a seeded request mix.
const (
	serveClients = 2
	// predictKeys bounds the distinct predict inputs, so that with the
	// batch, measure and invalid pools every cache kind stays under
	// hpfserve's default 4096 entries and nothing is evicted.
	predictKeys   = 1500
	batchPrograms = 16
	// measureSeeds perturbation seeds for each of the 64 measure
	// sources give 3840 measure inputs, visited in a seeded order, so a
	// run's measures miss the cache (and run the executor) until it has
	// issued that many.
	measureSeeds = 60
	invalidSrcs  = 16
	// streamLen ops are generated in setup, far more than a run issues.
	streamLen = 100_000
	// serveExpected is how many leading ops expected/serve.txt pins.
	serveExpected  = 2000
	measurePerturb = 0.01
)

type opKind uint8

const (
	opPredict opKind = iota
	opBatch
	opMeasure
	opJob
	opInvalid
)

var kindNames = [...]string{"predict", "batch", "measure", "job", "invalid"}

type serveOp struct {
	kind opKind
	idx  int   // into the pool of the op's kind
	seed int64 // perturbation seed of a measure
}

type predictKey struct {
	src    string
	values map[string]int64
}

type serveWL struct {
	seed int64
	bin  string
	out  string

	predicts []predictKey
	batches  [][]string // sources of each 24-point (size, procs) grid
	measures []string
	invalid  []string
	stream   []serveOp
	exp      []string

	srv *serverProc
	gen int // servers started, for distinct journal directories
}

// setup builds the input pools and the op stream, then starts hpfserve
// and waits until /healthz answers.
func (w *serveWL) setup() error {
	if err := w.pools(); err != nil {
		return err
	}
	w.stream = serveStream(w.seed)
	var err error
	if w.exp, err = loadExpected("serve", w.seed); err != nil {
		return err
	}
	w.srv, err = w.start()
	return err
}

func (w *serveWL) pools() error {
	fams := corpus.Families()
	pinFams := []corpus.Family{corpus.Stencil1D, corpus.Stencil2D, corpus.Relax, corpus.NBody}
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	w.predicts = make([]predictKey, 0, predictKeys)
	for j := 0; j < predictKeys; j++ {
		// Every fifth key pins STEPS of a rewritten kernel through
		// int_values.
		if j%5 == 4 {
			src, err := pinnable(corpus.GenerateOne(w.seed, pinFams[j/5%len(pinFams)], j/5/len(pinFams)).Source)
			if err != nil {
				return err
			}
			w.predicts = append(w.predicts, predictKey{src, map[string]int64{"STEPS": int64(4 + rng.Intn(60))}})
			continue
		}
		w.predicts = append(w.predicts, predictKey{src: corpus.GenerateOne(w.seed+1, fams[j%len(fams)], j/len(fams)).Source})
	}
	suite := hpfperf.Suite()
	w.batches, w.measures = nil, nil
	for _, p := range suite[:batchPrograms] {
		var grid []string
		for k := 0; k < 6; k++ {
			for _, np := range p.Procs {
				grid = append(grid, p.Source(p.Sizes[0]<<k, np))
			}
		}
		w.batches = append(w.batches, grid)
		for _, np := range p.Procs {
			w.measures = append(w.measures, p.Source(p.Sizes[0], np))
		}
	}
	w.invalid = nil
	for j := 0; j < invalidSrcs; j++ {
		src := corpus.GenerateOne(w.seed+2, fams[j%len(fams)], j).Source
		w.invalid = append(w.invalid, strings.Replace(src, "\nEND\n", "\nCHK = (CHK\nEND\n", 1))
	}
	return nil
}

// serveStream draws the op mix: about 70% predict (half of them repeat
// an already served key, Zipf-like), 10% batch, 10% measure, 5% durable
// predict jobs and 5% sources that do not compile.
func serveStream(seed int64) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, predictKeys-1)
	measures := rng.Perm(batchPrograms * 4 * measureSeeds)
	measured := 0
	introduced := 0
	served := func() int {
		r := int(zipf.Uint64())
		return r % introduced
	}
	out := make([]serveOp, streamLen)
	for i := range out {
		r := rng.Float64()
		switch {
		case r < 0.70:
			idx := 0
			if introduced > 0 && (introduced == predictKeys || rng.Intn(2) == 0) {
				idx = served()
			} else {
				idx = introduced
				introduced++
			}
			out[i] = serveOp{kind: opPredict, idx: idx}
		case r < 0.80:
			out[i] = serveOp{kind: opBatch, idx: rng.Intn(batchPrograms)}
		case r < 0.90:
			m := measures[measured%len(measures)]
			measured++
			out[i] = serveOp{kind: opMeasure, idx: m % (batchPrograms * 4), seed: 1 + int64(m/(batchPrograms*4))}
		case r < 0.95 && introduced > 0:
			out[i] = serveOp{kind: opJob, idx: rng.Intn(introduced)}
		default:
			out[i] = serveOp{kind: opInvalid, idx: rng.Intn(invalidSrcs)}
		}
	}
	return out
}

// inputKey identifies an op's input. A job has the key of the predict
// it submits: its result is the same, so it repeats that input.
func (op serveOp) inputKey() string {
	if op.kind == opJob {
		op.kind = opPredict
	}
	return fmt.Sprintf("%s|%d|%d", kindNames[op.kind], op.idx, op.seed)
}

func (w *serveWL) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *serveWL) peakRSSMB() (float64, error) { return peakRSS(w.srv.cmd.Process.Pid) }

// record is what a run keeps of one op until the checks after the timed
// phase.
type record struct {
	kind    opKind
	lat     time.Duration
	startNS int64
	digest  string
	err     error
}

// loop runs the closed-loop callers against the current server for
// seconds and returns one record per op issued.
func (w *serveWL) loop(seconds float64) ([]record, float64) {
	recs := make([]record, len(w.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		cl := w.srv.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				op := w.stream[i]
				t0 := time.Now()
				d, err := w.do(cl, op)
				recs[i] = record{kind: op.kind, lat: time.Since(t0), startNS: int64(t0.Sub(start)), digest: d, err: err}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	n := int(next.Load())
	if n > len(recs) {
		n = len(recs)
	}
	return recs[:n], wall
}

// do issues one op and digests the normalized response: request IDs,
// trace IDs, job IDs, timestamps and elapsed times are left out.
func (w *serveWL) do(cl *hpfclient.Client, op serveOp) (string, error) {
	ctx := context.Background()
	switch op.kind {
	case opPredict:
		resp, err := cl.Predict(ctx, w.predictRequest(op.idx))
		if err != nil {
			return "", err
		}
		return predictRespDigest(resp), nil
	case opBatch:
		req := &hpfclient.BatchRequest{}
		for _, src := range w.batches[op.idx] {
			req.Points = append(req.Points, hpfclient.BatchPoint{Predict: &hpfclient.PredictRequest{Source: src}})
		}
		resp, err := cl.Batch(ctx, req)
		if err != nil {
			return "", err
		}
		var ds []string
		for _, r := range resp.Results {
			if r.Error != nil || r.Predict == nil {
				return "", fmt.Errorf("batch point %d failed: %+v", r.Index, r.Error)
			}
			ds = append(ds, predictRespDigest(r.Predict))
		}
		return digest(ds), nil
	case opMeasure:
		resp, err := cl.Measure(ctx, &hpfclient.MeasureRequest{Source: w.measures[op.idx], Runs: 1, Perturb: measurePerturb, Seed: op.seed})
		if err != nil {
			return "", err
		}
		return digest(resp.Program, resp.Procs, resp.MeasuredUS, resp.RunsUS, resp.PerNodeUS, resp.Printed), nil
	case opJob:
		sub, err := cl.SubmitJob(ctx, &hpfclient.JobSubmitRequest{Kind: hpfclient.JobKindPredict, Predict: w.predictRequest(op.idx)})
		if err != nil {
			return "", err
		}
		view, err := cl.WaitJob(ctx, sub.Job.ID, hpfclient.PollPolicy{})
		if err != nil {
			return "", err
		}
		if view.State != "done" {
			return "", fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
		}
		var resp hpfclient.PredictResponse
		if err := json.Unmarshal(view.Result, &resp); err != nil {
			return "", fmt.Errorf("job result: %w", err)
		}
		return predictRespDigest(&resp), nil
	default:
		_, err := cl.Predict(ctx, &hpfclient.PredictRequest{Source: w.invalid[op.idx]})
		var ae *hpfclient.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			return "", fmt.Errorf("invalid source: want a 400, got %v", err)
		}
		return "400", nil
	}
}

func (w *serveWL) predictRequest(idx int) *hpfclient.PredictRequest {
	k := w.predicts[idx]
	req := &hpfclient.PredictRequest{Source: k.src}
	if k.values != nil {
		req.Options = &hpfclient.PredictOptions{IntValues: k.values}
	}
	return req
}

func predictRespDigest(r *hpfclient.PredictResponse) string {
	return digest(r.Program, r.Procs, r.EstUS, r.CompUS, r.CommUS, r.OvhdUS, r.Warnings)
}

// libraryDigest computes, in process through the public API, the digest
// a correct response to op must have.
func (w *serveWL) libraryDigest(op serveOp) (string, error) {
	predict := func(src string, values map[string]int64) (string, error) {
		prog, err := hpfperf.Compile(src)
		if err != nil {
			return "", err
		}
		pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{IntValues: values})
		if err != nil {
			return "", err
		}
		comp, comm, ovhd := pred.Breakdown()
		return digest(prog.Name(), prog.Processors(), pred.Microseconds(), comp, comm, ovhd, pred.Warnings()), nil
	}
	switch op.kind {
	case opPredict, opJob:
		k := w.predicts[op.idx]
		return predict(k.src, k.values)
	case opBatch:
		var ds []string
		for _, src := range w.batches[op.idx] {
			d, err := predict(src, nil)
			if err != nil {
				return "", err
			}
			ds = append(ds, d)
		}
		return digest(ds), nil
	case opMeasure:
		prog, err := hpfperf.Compile(w.measures[op.idx])
		if err != nil {
			return "", err
		}
		m, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Runs: 1, Perturb: measurePerturb, Seed: op.seed})
		if err != nil {
			return "", err
		}
		return digest(prog.Name(), prog.Processors(), m.Microseconds(), m.Runs(), m.PerNode(), m.Printed()), nil
	default:
		if _, err := hpfperf.Compile(w.invalid[op.idx]); err == nil {
			return "", errors.New("invalid source compiled")
		}
		return "400", nil
	}
}

// check compares every response with the library result for the same
// request (and, for the default seed, with the pinned digests). It runs
// after the timed phase.
func (w *serveWL) check(recs []record, lr *loopResult) {
	want := make(map[string]string)
	for i, r := range recs {
		lr.attempted++
		if r.err != nil {
			lr.fail(i, fmt.Errorf("%s: %w", kindNames[r.kind], r.err))
			continue
		}
		op := w.stream[i]
		k := op.inputKey()
		wd, ok := want[k]
		if !ok {
			var err error
			if wd, err = w.libraryDigest(op); err != nil {
				lr.fail(i, fmt.Errorf("library %s: %w", kindNames[op.kind], err))
				continue
			}
			want[k] = wd
		}
		if r.digest != wd {
			lr.fail(i, fmt.Errorf("%s response digest %s, library result %s", kindNames[op.kind], r.digest, wd))
			continue
		}
		if err := checkExpected(w.exp, i, r.digest); err != nil {
			lr.fail(i, err)
			continue
		}
		lr.lat = append(lr.lat, r.lat.Seconds())
	}
}

func (w *serveWL) run(seconds float64) (*loopResult, error) {
	recs, wall := w.loop(seconds)
	lr := &loopResult{wall: wall}
	w.check(recs, lr)
	return lr, nil
}

// trace runs the stream twice for half the time each, on two fresh
// servers: untraced, then with client-side spans per route and
// /metrics scraped around the window. Spans stay in the benchmark: no
// X-HPF-Trace header is sent, so the server runs its untraced code.
func (w *serveWL) trace(seconds float64) (*traceResult, error) {
	res := &traceResult{metrics: make(map[string]float64)}
	lr := &loopResult{}
	plainRecs, plainWall := w.loop(seconds / 2)
	w.check(plainRecs, lr)
	w.srv.stop()
	var err error
	if w.srv, err = w.start(); err != nil {
		return nil, err
	}
	before, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	recs, wall := w.loop(seconds / 2)
	after, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	w.check(recs, lr)

	byKind := make(map[opKind][]float64)
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		byKind[r.kind] = append(byKind[r.kind], r.lat.Seconds())
		op := len(res.spans)
		res.spans = append(res.spans,
			span{Name: "op", Parent: -1, StartNS: r.startNS, DurNS: int64(r.lat)},
			span{Name: "server." + kindNames[w.stream[i].kind], Parent: op, StartNS: r.startNS, DurNS: int64(r.lat)})
	}
	for _, v := range byKind {
		sort.Float64s(v)
	}
	m := res.metrics
	m["server.predict.p50_ms"] = 1e3 * quantile(byKind[opPredict], 0.5)
	m["server.batch.p50_ms"] = 1e3 * quantile(byKind[opBatch], 0.5)
	m["server.measure.p50_ms"] = 1e3 * quantile(byKind[opMeasure], 0.5)
	m["jobs.submit_to_done_p90_ms"] = 1e3 * quantile(byKind[opJob], 0.9)
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, kind := range []string{"compile", "predict", "report", "exec"} {
		hit := delta(fmt.Sprintf(`sweep_cache_lookups_total{kind=%q,outcome="hit"}`, kind))
		miss := delta(fmt.Sprintf(`sweep_cache_lookups_total{kind=%q,outcome="miss"}`, kind))
		if hit+miss > 0 {
			m["sweep."+kind+".hit_ratio"] = hit / (hit + miss)
		}
		m["sweep.evictions"] += delta(fmt.Sprintf(`sweep_cache_evictions_total{kind=%q}`, kind))
	}
	m["sweep.compile.busy_s"] = delta(`sweep_stage_seconds_total{stage="compile"}`)
	m["sweep.interp.busy_s"] = delta(`sweep_stage_seconds_total{stage="interpret"}`)
	m["sweep.exec.busy_s"] = delta(`sweep_stage_seconds_total{stage="execute"}`)
	m["server.shed"] = delta("hpfserve_shed_total")
	m["server.cost_rejected"] = delta("hpfserve_cost_rejected_total")
	m["server.breaker_rejected"] = delta("hpfserve_breaker_rejected_total")
	m["jobs.events"] = delta("hpfjobs_events_total")
	m["trace.overhead_pct"] = 100 * (float64(len(plainRecs))/plainWall/(float64(len(recs))/wall) - 1)
	keys := make([]string, repeatPrefix)
	for i := range keys {
		keys[i] = w.stream[i].inputKey()
	}
	m["input.repeat_share"] = repeatShare(keys)
	res.attempted, res.failed, res.errs = lr.attempted, lr.failed, lr.errs
	return res, nil
}

// expected digests the first ops of the stream from the library.
func (w *serveWL) expected() ([]string, error) {
	var out []string
	for i := 0; i < serveExpected; i++ {
		d, err := w.libraryDigest(w.stream[i])
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// The hpfserve process.

type serverProc struct {
	cmd     *osexec.Cmd
	base    string
	jobsDir string
	exited  chan struct{}
}

// start launches hpfserve with its defaults apart from -quiet and a
// fresh -jobs-dir, and waits until /healthz answers.
func (w *serveWL) start() (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	w.gen++
	dir := filepath.Join(w.out, fmt.Sprintf("jobs-%d-%d", os.Getpid(), w.gen))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := osexec.Command(w.bin, "-quiet", "-jobs-dir", dir, "-addr", addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hpfserve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, jobsDir: dir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop is not interesting
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for t0 := time.Now(); time.Since(t0) < 30*time.Second; time.Sleep(2 * time.Millisecond) {
		select {
		case <-s.exited:
			s.stop()
			return nil, errors.New("hpfserve exited during start-up")
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, nil
		}
	}
	s.stop()
	return nil, errors.New("hpfserve did not answer /healthz within 30s")
}

func (s *serverProc) client() *hpfclient.Client {
	return hpfclient.New(hpfclient.Config{
		BaseURL:    s.base,
		HTTPClient: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		// A refused request (429/503) is a failed op, not a retry.
		Retry: hpfclient.RetryPolicy{MaxAttempts: 1},
	})
}

// stop sends SIGTERM, waits for the drain, and removes the journal.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	_ = os.RemoveAll(s.jobsDir)
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (s *serverProc) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
