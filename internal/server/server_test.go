package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// unitResolver serves a single synthetic grid ("unit") whose size and run
// length come entirely from the spec, so tests dial jobs from
// milliseconds to effectively unbounded via seeds/horizon.
func unitResolver() GridResolver {
	ng := experiments.NamedGrid{
		Name: "unit",
		Desc: "synthetic test grid",
		Jobs: func(cfg experiments.Config) []sweep.Job {
			spec := core.NewSpec(graph.Line(5)).SetSource(0, 1).SetSink(4, 1)
			jobs, err := (&sweep.Space{
				Name: "unit", BaseSeed: cfg.Seed, Replicas: cfg.Seeds, Horizon: cfg.Horizon,
				Axes: []sweep.Axis{
					{Name: "network", Labels: []string{"line(5)"}},
					{Name: "router", Labels: []string{"lgg"}},
					{Name: "variant", Labels: []string{""}},
				},
				SeedFn: func(sweep.Point, int) uint64 { return cfg.Seed },
				Build:  func(sweep.Probe) *core.Engine { return core.NewEngine(spec, core.NewLGG()) },
			}).Jobs()
			if err != nil {
				panic(err)
			}
			return jobs
		},
	}
	return func(name string) (experiments.NamedGrid, error) {
		if name == "unit" {
			return ng, nil
		}
		return experiments.NamedGrid{}, fmt.Errorf("unknown grid %q", name)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.FindGrid == nil {
		cfg.FindGrid = unitResolver()
	}
	if cfg.SweepWorkers == 0 {
		cfg.SweepWorkers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// expiredContext returns an already-cancelled context: Drain with it
// skips the grace period and checkpoints immediately.
func expiredContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx, cancel
}

// drain shuts a test server down with an immediate checkpoint-cancel.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := expiredContext()
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, key string) (*http.Response, JobState) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobState
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &st)
	return resp, st
}

func waitStatus(t *testing.T, s *Server, id string, want JobStatus) JobState {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Status == want {
			return st
		}
		if st.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobState{}
}

func TestSubmitRunResults(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	defer drain(t, s)

	resp, st := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 3, Horizon: 150}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Status != StatusQueued {
		t.Fatalf("submit state: %+v", st)
	}
	done := waitStatus(t, s, st.ID, StatusDone)
	if done.Total != 3 || done.Done != 3 {
		t.Fatalf("done counts: %+v", done)
	}

	// Status over HTTP.
	hr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobState
	if err := json.NewDecoder(hr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if got.Status != StatusDone {
		t.Fatalf("HTTP status: %+v", got)
	}

	// Results stream: one JSONL line per run, in index order.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("results: %d lines, want 3:\n%s", len(lines), raw)
	}
	for i, ln := range lines {
		var res sweep.Result
		if err := json.Unmarshal([]byte(ln), &res); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if res.Index != i {
			t.Fatalf("line %d carries index %d", i, res.Index)
		}
	}

	// Unknown job → 404.
	nr, _ := http.Get(ts.URL + "/v1/jobs/job-99999999")
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: got %d, want 404", nr.StatusCode)
	}
}

func TestResultsStreamFollowsLiveJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	defer drain(t, s)

	// Long enough that the stream attaches while the sweep is running.
	_, st := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 4, Horizon: 300_000}, "")
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rr.Body) // blocks until the job is terminal
	rr.Body.Close()
	if n := strings.Count(string(raw), "\n"); n != 4 {
		t.Fatalf("followed stream has %d lines, want 4", n)
	}
	if st, _ := s.Job(st.ID); st.Status != StatusDone {
		t.Fatalf("job after stream: %+v", st)
	}
}

func TestIdempotencyKeyDeduplicates(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	defer drain(t, s)

	r1, st1 := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 2, Horizon: 100}, "retry-123")
	r2, st2 := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 2, Horizon: 100}, "retry-123")
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusOK {
		t.Fatalf("codes: %d then %d, want 202 then 200", r1.StatusCode, r2.StatusCode)
	}
	if st1.ID != st2.ID {
		t.Fatalf("idempotent retry created a second job: %s vs %s", st1.ID, st2.ID)
	}
	// A different key is a different job.
	_, st3 := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 2, Horizon: 100}, "retry-456")
	if st3.ID == st1.ID {
		t.Fatal("distinct keys shared a job")
	}
	waitStatus(t, s, st1.ID, StatusDone)
	waitStatus(t, s, st3.ID, StatusDone)
}

func TestOverloadShedsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, QueueDepth: 1})
	defer drain(t, s)

	// Occupy the single worker with an effectively unbounded job...
	_, running := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 1 << 40}, "")
	waitStatus(t, s, running.ID, StatusRunning)
	// ...fill the queue...
	r2, queued := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "fill")
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: got %d, want 202", r2.StatusCode)
	}
	// ...and the next arrival is shed with a backoff hint.
	r3, _ := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "")
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: got %d, want 429", r3.StatusCode)
	}
	ra, err := strconv.Atoi(r3.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", r3.Header.Get("Retry-After"))
	}
	if got := s.cShed.Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}
	// An idempotent retry of an already-admitted job is NOT shed even at
	// full queue — the dedup hit answers before the depth check.
	r4, dup := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "fill")
	if r4.StatusCode != http.StatusOK || dup.ID != queued.ID {
		t.Fatalf("dedup at full queue: got %d / %s, want 200 / %s", r4.StatusCode, dup.ID, queued.ID)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, QueueDepth: 4})
	defer drain(t, s)

	_, running := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 1 << 40}, "")
	waitStatus(t, s, running.ID, StatusRunning)
	_, queued := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "")

	// Cancel the queued job: immediate, terminal, never runs.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobState
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Status != StatusCancelled {
		t.Fatalf("queued cancel: %+v", st)
	}

	// Cancel the running job: the sweep stops mid-run.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, _ := s.Job(running.ID)
		if st.Status == StatusCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job never cancelled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cancelling a terminal job is a no-op that reports the final state.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Status != StatusCancelled {
		t.Fatalf("re-cancel: %+v", st)
	}
}

func TestDeadlinePropagatesIntoRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	defer drain(t, s)

	// A single run far too large to finish: only mid-run cancellation via
	// sim.RunContext can stop it.
	_, st := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 1 << 40, TimeoutMS: 100}, "")
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, _ := s.Job(st.ID)
		if got.Status == StatusFailed {
			if !strings.Contains(got.Error, "deadline") {
				t.Fatalf("failed without a deadline error: %q", got.Error)
			}
			break
		}
		if got.Status.Terminal() {
			t.Fatalf("unexpected terminal state: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline never fired: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	defer drain(t, s)
	for name, spec := range map[string]JobSpec{
		"missing grid":  {},
		"unknown grid":  {Grid: "nope"},
		"at-file fault": {Grid: "unit", Faults: "@/etc/passwd"},
		"bad fault":     {Grid: "unit", Faults: "???"},
		"negative":      {Grid: "unit", TimeoutMS: -1},
	} {
		resp, _ := postJob(t, ts, spec, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}
	// Unknown JSON fields are rejected, catching client typos.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"grid":"unit","sedes":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: got %d, want 400", resp.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: got %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{MetricQueueDepth, MetricInflight, MetricShed, MetricDraining} {
		if !strings.Contains(string(raw), m) {
			t.Errorf("metrics scrape missing %s", m)
		}
	}

	// Draining flips readyz to 503 and refuses submissions with 503 +
	// Retry-After, distinct from the 429 shed.
	drain(t, s)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: got %d, want 503", resp.StatusCode)
	}
	sr, _ := postJob(t, ts, JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "")
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", sr.StatusCode)
	}
	if sr.Header.Get("Retry-After") == "" {
		t.Fatal("draining refusal carries no Retry-After")
	}
}
