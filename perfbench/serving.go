package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/federation"
	"repro/internal/sweep"
)

// The serving workloads drive the serving plane the way `lggsweep
// -remote` users do: cfg.workers closed-loop clients, each on its own
// connection, submit a small stability job (fresh seed per job) and
// follow GET /v1/jobs/{id}/results to its last line before submitting
// again. daemon targets one lggd server; fleet targets a federation
// coordinator fronting two lggd workers. Everything runs with default
// configuration, in this process, on loopback.

func runDaemon(ctx context.Context, cfg config, rep *report) error {
	return runServing(ctx, cfg, rep, false)
}

func runFleet(ctx context.Context, cfg config, rep *report) error {
	return runServing(ctx, cfg, rep, true)
}

// plane is one running daemon or fleet.
type plane struct {
	front string
	stops []func(context.Context) // in teardown order
}

func (p *plane) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range p.stops {
		s(ctx)
	}
}

// serve starts an HTTP server for h on a loopback port and registers its
// teardown (drain the system, then close the listener's server).
func (p *plane) serve(h http.Handler, drain func(context.Context) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	p.stops = append(p.stops, func(ctx context.Context) {
		_ = drain(ctx) // teardown of a finished run; nothing left to save
		_ = hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// startPlane brings up a daemon or a fleet in dir and waits until the
// front answers. tap, when non-nil, wraps every handler.
func startPlane(ctx context.Context, dir string, fleet bool, tap *httpTap) (*plane, error) {
	p := &plane{}
	wrap := func(role string, h http.Handler) http.Handler {
		if tap == nil {
			return h
		}
		return tap.wrap(role, h)
	}
	newServer := func(role string) (string, error) {
		s, err := server.New(server.Config{StateDir: filepath.Join(dir, role)})
		if err != nil {
			return "", err
		}
		return p.serve(wrap(role, s.Handler()), s.Drain)
	}
	var err error
	if !fleet {
		p.front, err = newServer("front")
	} else {
		var workers []string
		for i := 0; i < 2; i++ {
			url, err := newServer(fmt.Sprintf("worker%d", i))
			if err != nil {
				p.stop()
				return nil, err
			}
			workers = append(workers, url)
		}
		var c *federation.Coordinator
		c, err = federation.New(federation.Config{StateDir: filepath.Join(dir, "front"), Workers: workers})
		if err == nil {
			p.front, err = p.serve(wrap("front", c.Handler()), c.Drain)
			// The coordinator stops before the workers it drives.
			n := len(p.stops)
			p.stops = append([]func(context.Context){p.stops[n-1]}, p.stops[:n-1]...)
		}
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	cli, err := client.New(client.Config{BaseURL: p.front})
	if err == nil {
		err = cli.Ping(ctx)
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// jobRecord is one client job as the client saw it. The streamed
// results are kept as their length and SHA-256, so the benchmark's own
// memory does not grow with the number of jobs and peak_rss_mb stays a
// measure of the system under test.
type jobRecord struct {
	spec        server.JobSpec
	id          string
	start       time.Duration // before Submit
	first, last time.Duration // first and last result line read
	size        int
	sum         [sha256.Size]byte
	err         error
}

type serving struct {
	cfg   config
	fleet bool
	front string
	grid  experiments.NamedGrid
	round int // loops run so far
}

func runServing(ctx context.Context, cfg config, rep *report, fleet bool) error {
	grid, err := experiments.FindGrid("stability")
	if err != nil {
		return err
	}
	base, err := scratchDir(cfg, "serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	var tap *httpTap
	if cfg.trace {
		tap = &httpTap{}
	}
	var pl *plane
	reps := 0
	if err := timeSetup(rep, func() error {
		reps++
		pl, err = startPlane(ctx, filepath.Join(base, fmt.Sprintf("plane%d", reps)), fleet, tap)
		return err
	}, func() { pl.stop() }); err != nil {
		return err
	}
	defer pl.stop()
	s := &serving{cfg: cfg, fleet: fleet, front: pl.front, grid: grid}

	// Warm-up: one job per client, checked but not timed.
	warm, err := s.loop(ctx, s.newPass(), 0)
	if err != nil {
		return err
	}
	s.check(rep, warm)

	untraced := s.newPass()
	recs, err := s.loop(ctx, untraced, passSeconds(cfg))
	if err != nil {
		return err
	}
	s.check(rep, recs)
	if !cfg.trace {
		untraced.endToEnd(rep)
		return nil
	}
	h0 := sampleHost()
	tap.on.Store(true)
	traced := s.newPass()
	recs, err = s.loop(ctx, traced, passSeconds(cfg))
	tap.on.Store(false)
	h1 := sampleHost()
	if err != nil {
		return err
	}
	overhead(rep, untraced, traced)
	s.metrics(rep, tap, recs)
	rep.metrics["runtime.gc_cpu_share"] = gcShare(h0, h1)
	s.check(rep, recs)
	return nil
}

func (s *serving) jobRuns() int {
	return len(s.grid.Jobs(s.spec(0, 0, 0).Config()))
}

func (s *serving) newPass() *pass {
	runs := float64(s.jobRuns())
	return &pass{runsPerJob: runs, stepsPerJob: runs * float64(s.cfg.jobHorizon)}
}

// spec is the job client c submits n-th in loop round. The idempotency
// key is what the fleet's range launches carry as their key prefix, so
// the traced run can tie worker requests back to client jobs.
func (s *serving) spec(round, c, n int) server.JobSpec {
	salt := uint64(round)<<40 | uint64(c)<<32 | uint64(n)
	return server.JobSpec{
		Grid: "stability", Quick: true, Seeds: s.cfg.jobSeeds, Horizon: s.cfg.jobHorizon,
		Seed:           deriveSeed(s.cfg.seed, 2+salt),
		IdempotencyKey: fmt.Sprintf("pb%d-r%d-c%d-j%d", s.cfg.seed, round, c, n),
	}
}

// loop runs the closed-loop clients for d (d == 0: one job each),
// records their jobs in p and returns them in start order.
func (s *serving) loop(ctx context.Context, p *pass, d time.Duration) ([]jobRecord, error) {
	s.round++
	p.begin(d)
	deadline := p.to
	var (
		mu   sync.Mutex
		recs []jobRecord
		wg   sync.WaitGroup
		errs = make([]error, s.cfg.workers)
	)
	for c := 0; c < s.cfg.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			cli, err := client.New(client.Config{BaseURL: s.front, HTTP: hc})
			if err != nil {
				errs[c] = err
				return
			}
			for n := 0; (n == 0 || now() < deadline) && ctx.Err() == nil; n++ {
				r := s.job(ctx, cli, hc, s.spec(s.round, c, n))
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	for _, r := range recs {
		if r.err == nil {
			p.add(interval{r.start, r.last}, r.first)
		}
	}
	return recs, nil
}

// job submits one job and follows its results to the last line.
func (s *serving) job(ctx context.Context, cli *client.Client, hc *http.Client, spec server.JobSpec) jobRecord {
	r := jobRecord{spec: spec, start: now()}
	st, err := cli.Submit(ctx, spec)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.id = st.ID
	req, err := http.NewRequestWithContext(ctx, "GET", s.front+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		r.err = err
		return r
	}
	resp, err := hc.Do(req)
	if err != nil {
		r.err = fmt.Errorf("results: %w", err)
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("results: HTTP %d", resp.StatusCode)
		return r
	}
	br := bufio.NewReader(resp.Body)
	body := sha256.New()
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			t := now()
			if r.first == 0 {
				r.first = t
			}
			r.last = t
			body.Write(line)
			r.size += len(line)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			r.err = fmt.Errorf("results stream: %w", err)
			return r
		}
	}
	if r.first == 0 {
		r.first, r.last = now(), now()
	}
	body.Sum(r.sum[:0])
	return r
}

// check compares every job's streamed results with an in-process
// sweep.Runner run of the same spec — the determinism oracle — and
// checks each run's packet accounting.
func (s *serving) check(rep *report, recs []jobRecord) {
	for i, r := range recs {
		rep.attempted++
		if r.err != nil {
			rep.fail("%s: job %s: %v", s.name(), r.spec.IdempotencyKey, r.err)
			continue
		}
		jobs := s.grid.Jobs(r.spec.WithDefaults().Config())
		want, err := (&sweep.Runner{Workers: s.cfg.workers}).Run(jobs)
		if err != nil {
			rep.fail("%s: oracle run for job %s: %v", s.name(), r.id, err)
			continue
		}
		var buf bytes.Buffer
		if err := sweep.WriteJSONL(&buf, want); err != nil {
			rep.fail("%s: oracle encode: %v", s.name(), err)
			continue
		}
		got := r.sum
		if s.cfg.corrupt && i == len(recs)-1 {
			got[0] ^= 1
		}
		if got != sha256.Sum256(buf.Bytes()) {
			rep.fail("%s: job %s (seed %d) results differ from the in-process run (%d vs %d bytes)",
				s.name(), r.id, r.spec.Seed, r.size, buf.Len())
			continue
		}
		for _, res := range want {
			if err := conserved(res); err != nil {
				rep.fail("%s: job %s: %v", s.name(), r.id, err)
			}
		}
	}
}

func (s *serving) name() string {
	if s.fleet {
		return "fleet"
	}
	return "daemon"
}

// httpTap is HTTP middleware around the daemon's and the coordinator's
// Handler(): it records one span per request while on.
type httpTap struct {
	on   atomic.Bool
	mu   sync.Mutex
	reqs []httpReq
}

// httpReq is one request a handler served.
type httpReq struct {
	role       string // front, worker0, worker1
	route      string // submit, poll, results, other
	key        string // Idempotency-Key
	job        string // job id from the path or the submit response
	status     int
	start, end time.Duration
}

func (t *httpTap) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		q := httpReq{role: role, route: "other", key: r.Header.Get("Idempotency-Key"), start: now()}
		parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
		switch {
		case r.Method == "POST" && r.URL.Path == "/v1/jobs":
			q.route = "submit"
		case r.Method == "GET" && len(parts) == 3 && parts[1] == "jobs":
			q.route, q.job = "poll", parts[2]
		case r.Method == "GET" && len(parts) == 4 && parts[1] == "jobs" && parts[3] == "results":
			q.route, q.job = "results", parts[2]
		}
		rw := &recWriter{ResponseWriter: w, status: http.StatusOK, keep: q.route == "submit"}
		h.ServeHTTP(rw, r)
		q.end, q.status = now(), rw.status
		if q.route == "submit" {
			var st struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(rw.body.Bytes(), &st) == nil {
				q.job = st.ID
			}
		}
		t.mu.Lock()
		t.reqs = append(t.reqs, q)
		t.mu.Unlock()
	})
}

// recWriter records the status and, for submissions, the body; it
// forwards Flush so result streaming behaves as without it.
type recWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (w *recWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (w *recWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// metrics derives the server and federation per-layer metrics from the
// traced pass's requests and client jobs, and records their spans.
func (s *serving) metrics(rep *report, tap *httpTap, all []jobRecord) {
	var recs []jobRecord
	for _, r := range all {
		if r.err == nil {
			recs = append(recs, r)
		}
	}
	m := rep.metrics
	jobs := float64(len(recs))
	var rec recorder
	// Server-layer handlers: the daemon itself, or the fleet's workers.
	isServer := func(q httpReq) bool { return (q.role == "front") != s.fleet }
	var submitMS, streamMS []float64
	var serverReqs, polls, frontSubmits, shed float64
	for _, q := range tap.reqs {
		if q.role == "front" && q.route == "submit" {
			frontSubmits++
			if q.status == http.StatusTooManyRequests {
				shed++
			}
		}
		if !isServer(q) {
			continue
		}
		serverReqs++
		d := float64(q.end-q.start) / 1e6
		switch q.route {
		case "submit":
			submitMS = append(submitMS, d)
		case "results":
			streamMS = append(streamMS, d)
		case "poll":
			polls++
		}
	}
	m["server.submit_ms.p50"] = median(submitMS)
	m["server.stream_ms.p50"] = median(streamMS)
	m["server.requests_per_job"] = safeDiv(serverReqs, jobs)
	m["server.status_polls_per_job"] = safeDiv(polls, jobs)
	m["server.shed_share"] = safeDiv(shed, frontSubmits)

	frontLayer := "server"
	if s.fleet {
		frontLayer = "federation"
	}
	// Client job spans, with the front's submit and stream as children.
	byFront := make(map[string][]httpReq)
	for _, q := range tap.reqs {
		if q.role == "front" && q.job != "" {
			byFront[q.job] = append(byFront[q.job], q)
		}
	}
	streamSpan := make(map[string]int64) // client key → front stream span id
	for _, r := range recs {
		root := rec.add(span{Trace: r.spec.IdempotencyKey, Name: "bench.job", Layer: "bench",
			Start: int64(r.start), End: int64(r.last)})
		for _, q := range byFront[r.id] {
			id := rec.add(span{Parent: root, Trace: r.spec.IdempotencyKey, Name: frontLayer + "." + q.route,
				Layer: frontLayer, Start: int64(q.start), End: int64(q.end)})
			if q.route == "results" {
				streamSpan[r.spec.IdempotencyKey] = id
			}
		}
	}
	if s.fleet {
		s.fleetMetrics(m, &rec, tap.reqs, recs, streamSpan)
	}
	rep.spans = rec.spans
	rep.notef("traced jobs: %d, requests: %d", len(recs), len(tap.reqs))
}

// fleetMetrics ties worker requests to coordinator ranges through the
// range idempotency key "<client key>/<start>+<count>".
func (s *serving) fleetMetrics(m map[string]float64, rec *recorder, reqs []httpReq, recs []jobRecord, streamSpan map[string]int64) {
	type rangeT struct {
		key        string // client key
		start, end time.Duration
		reqs       []httpReq
	}
	ranges := make(map[string]*rangeT) // range key → range
	workerJob := make(map[string]string)
	var launches, polls float64
	for _, q := range reqs {
		if q.role == "front" || q.route != "submit" {
			continue
		}
		launches++
		i := strings.LastIndexByte(q.key, '/')
		if i < 0 {
			continue
		}
		rg := ranges[q.key]
		if rg == nil {
			rg = &rangeT{key: q.key[:i], start: q.start}
			ranges[q.key] = rg
		}
		rg.start = min(rg.start, q.start)
		workerJob[q.role+"/"+q.job] = q.key
	}
	for _, q := range reqs {
		if q.role == "front" {
			continue
		}
		rg := ranges[workerJob[q.role+"/"+q.job]]
		if rg == nil {
			continue
		}
		rg.reqs = append(rg.reqs, q)
		switch q.route {
		case "poll":
			polls++
		case "results":
			rg.end = max(rg.end, q.end)
		}
	}
	byClient := make(map[string][]*rangeT)
	var rtt []float64
	for _, rg := range ranges {
		byClient[rg.key] = append(byClient[rg.key], rg)
		if rg.end > 0 {
			rtt = append(rtt, float64(rg.end-rg.start)/1e6)
		}
	}
	var dispatch, tail []float64
	for _, r := range recs {
		rgs := byClient[r.spec.IdempotencyKey]
		if len(rgs) == 0 {
			continue
		}
		first, last := rgs[0].start, rgs[0].end
		for _, rg := range rgs {
			first, last = min(first, rg.start), max(last, rg.end)
			parent := streamSpan[rg.key]
			id := rec.add(span{Parent: parent, Trace: rg.key, Name: "federation.range", Layer: "federation",
				Start: int64(rg.start), End: int64(rg.end)})
			for _, q := range rg.reqs {
				rec.add(span{Parent: id, Trace: rg.key, Name: "server." + q.route, Layer: "server",
					Start: int64(q.start), End: int64(q.end)})
			}
		}
		dispatch = append(dispatch, float64(first-r.start)/1e6)
		tail = append(tail, float64(r.last-last)/1e6)
	}
	jobs := float64(len(recs))
	m["federation.range_launches_per_job"] = safeDiv(launches, jobs)
	m["federation.useful_range_share"] = safeDiv(float64(len(ranges)), launches)
	m["federation.worker_polls_per_range"] = safeDiv(polls, float64(len(ranges)))
	m["federation.range_rtt_ms.p50"] = median(rtt)
	m["federation.dispatch_ms.p50"] = median(dispatch)
	m["federation.merge_tail_ms.p50"] = median(tail)
}
