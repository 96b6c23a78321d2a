package federation

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sweep"
)

// TestRangesFollowResultsStream holds attemptRange to submit → follow
// results: a successful two-worker job makes no worker status request.
func TestRangesFollowResultsStream(t *testing.T) {
	status := regexp.MustCompile(`^/v1/jobs/[^/]+$`)
	var statusGets, resultGets atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				switch {
				case status.MatchString(r.URL.Path):
					statusGets.Add(1)
				case filepath.Base(r.URL.Path) == "results":
					resultGets.Add(1)
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	_, w1 := newWrappedWorker(t, nil, count)
	_, w2 := newWrappedWorker(t, nil, count)
	c, _ := newCoordinator(t, Config{RangeRuns: 4}, w1, w2)

	st, _, err := c.Admit(testSpec(13), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if n := statusGets.Load(); n != 0 {
		t.Fatalf("coordinator made %d worker GET /v1/jobs/{id} requests, want 0", n)
	}
	if n := resultGets.Load(); n < 4 {
		t.Fatalf("coordinator followed %d results streams for 4 ranges", n)
	}
}

// TestWorkerDrainMidRangeCostsNoRelaunch drains the only worker while
// it runs a range: the range finishes within the drain's grace, its
// results stream rides the grace out, and the coordinator takes the
// range as it is — one submission, no retry, no steal, the same bytes.
func TestWorkerDrainMidRangeCostsNoRelaunch(t *testing.T) {
	spec := testSpec(4)
	ref := singleDaemonJournal(t, spec)

	gate := make(chan struct{})
	var started sync.Once
	running := make(chan struct{})
	hold := func() {
		started.Do(func() { close(running) })
		<-gate
	}
	var submits atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				submits.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	w, url := newWrappedWorker(t, hold, count)
	reg := metrics.NewRegistry()
	c, _ := newCoordinator(t, Config{RangeRuns: 4, Lease: time.Minute, Registry: reg}, url)

	st, _, err := c.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- w.Drain(ctx) }()
	for !w.Draining() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // room for a cut stream to fail the attempt
	close(gate)

	if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if err := <-drained; err != nil {
		t.Fatalf("worker drain: %v", err)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("coordinator submitted the range %d times across the worker drain, want 1", n)
	}
	for _, m := range []string{MetricRangesRetried, MetricRangesStolen} {
		if v := reg.Counter(m, "").Value(); v != 0 {
			t.Fatalf("%s = %d, want 0", m, v)
		}
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal differs from the single-daemon bytes")
	}
}

// TestShortStreamOfDoneRangeIsReread: a results stream cut before its
// tail (here the worker's first answer is an empty body, sent once the
// range is done) costs one status call and one re-read, not an attempt.
func TestShortStreamOfDoneRangeIsReread(t *testing.T) {
	var w *server.Server
	var cut atomic.Bool
	cutFirst := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if filepath.Base(r.URL.Path) == "results" && cut.CompareAndSwap(false, true) {
				id := filepath.Base(filepath.Dir(r.URL.Path))
				for st, _ := w.Job(id); st.Status != server.StatusDone; st, _ = w.Job(id) {
					time.Sleep(time.Millisecond)
				}
				rw.Header().Set("Content-Type", "application/x-ndjson")
				return
			}
			h.ServeHTTP(rw, r)
		})
	}
	w, url := newWrappedWorker(t, nil, cutFirst)
	reg := metrics.NewRegistry()
	c, _ := newCoordinator(t, Config{RangeRuns: 4, Lease: time.Minute, Registry: reg}, url)
	st, _, err := c.Admit(testSpec(4), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !cut.Load() {
		t.Fatal("no results stream was cut")
	}
	if v := reg.Counter(MetricRangesRetried, "").Value(); v != 0 {
		t.Fatalf("%s = %d after a cut stream of a done range, want 0", MetricRangesRetried, v)
	}
}

// getSummaries returns the raw GET /v1/results body.
func getSummaries(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results: %d %s (err %v)", resp.StatusCode, raw, err)
	}
	return raw
}

// TestResultIndexSurvivesRestartWithTornTail restarts a coordinator on
// its state directory after a crash tore the index's last line: the
// summaries served from disk are the ones served before, and a job
// compacted after the restart appends cleanly behind them.
func TestResultIndexSurvivesRestartWithTornTail(t *testing.T) {
	_, url := newWorker(t, nil)
	dir := t.TempDir()
	runJob := func(c *Coordinator, seed uint64) {
		t.Helper()
		spec := testSpec(4)
		spec.Seed = seed
		st, _, err := c.Admit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
			t.Fatalf("job ended %s: %s", final.Status, final.Error)
		}
	}

	c1, ts1 := newCoordinator(t, Config{StateDir: dir, RangeRuns: 4}, url)
	runJob(c1, 1)
	runJob(c1, 2)
	before := getSummaries(t, ts1.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	index := filepath.Join(dir, "results-index.jsonl")
	intact, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(index, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, ts2 := newCoordinator(t, Config{StateDir: dir, RangeRuns: 4}, url)
	if after := getSummaries(t, ts2.URL); !bytes.Equal(after, before) {
		t.Fatalf("summaries changed across the restart:\n--- before\n%s\n--- after\n%s", before, after)
	}
	if raw, _ := os.ReadFile(index); !bytes.Equal(raw, intact) {
		t.Fatal("reopening did not truncate the torn tail")
	}

	runJob(c2, 3)
	cells, err := c2.rstore.query(ResultFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || cells[2].Seed != 3 {
		t.Fatalf("index after a post-restart job: %+v, want 3 cells ending with seed 3", cells)
	}
}

// TestResultIndexFailedAppendLeavesNoTornLine: a compaction whose
// append fails partway (here a summary JSON cannot encode) commits
// nothing, so the summaries appended after it stay visible to queries
// and to a reopened index.
func TestResultIndexFailedAppendLeavesNoTornLine(t *testing.T) {
	dir := t.TempDir()
	rs, err := openResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(job string, share float64) CellSummary {
		return CellSummary{Job: job, CellStats: sweep.CellStats{Grid: "unit", StableShare: share}}
	}
	if err := rs.append(cell("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rs.append(cell("b", 1), cell("b", math.NaN())); err == nil {
		t.Fatal("appending a NaN summary succeeded")
	}
	if err := rs.append(cell("c", 1)); err != nil {
		t.Fatal(err)
	}
	jobs := func(rs *resultStore) string {
		t.Helper()
		cells, err := rs.query(ResultFilter{})
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, cs := range cells {
			s += cs.Job
		}
		return s
	}
	if got := jobs(rs); got != "ac" {
		t.Fatalf("query after a failed append sees jobs %q, want \"ac\"", got)
	}
	if err := rs.close(); err != nil {
		t.Fatal(err)
	}
	if rs, err = openResultStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	if got := jobs(rs); got != "ac" {
		t.Fatalf("reopened index holds jobs %q, want \"ac\"", got)
	}
}

// cancelHeld reports whether a coordinator job still holds its run
// context's cancel func, documented non-nil only while executeJob runs.
func cancelHeld(c *Coordinator, id string) bool {
	c.mu.Lock()
	jb := c.jobs[id]
	c.mu.Unlock()
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.cancel != nil
}

func TestFinishedJobReleasesCancel(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		_, url := newWorker(t, nil)
		c, _ := newCoordinator(t, Config{RangeRuns: 4}, url)
		st, _, err := c.Admit(testSpec(4), "")
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, c, st.ID, 60*time.Second); final.Status != server.StatusDone {
			t.Fatalf("job ended %s: %s", final.Status, final.Error)
		}
		if cancelHeld(c, st.ID) {
			t.Fatal("done job still holds its cancel func")
		}
	})

	// held starts a worker whose runs block until the test ends, so the
	// coordinator job stays running until the test interrupts it.
	held := func(t *testing.T) (*Coordinator, server.JobState) {
		hold := make(chan struct{})
		_, url := newWorker(t, func() { <-hold })
		t.Cleanup(func() { close(hold) }) // before the worker's drain
		c, _ := newCoordinator(t, Config{RangeRuns: 4}, url)
		st, _, err := c.Admit(testSpec(4), "")
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s, _ := c.Job(st.ID); s.Status != server.StatusRunning; s, _ = c.Job(st.ID) {
			if time.Now().After(deadline) {
				t.Fatalf("job never started: %+v", s)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return c, st
	}

	t.Run("client-cancel", func(t *testing.T) {
		c, st := held(t)
		c.Cancel(st.ID)
		if final := waitTerminal(t, c, st.ID, 20*time.Second); final.Status != server.StatusCancelled {
			t.Fatalf("job ended %s, want cancelled", final.Status)
		}
		if cancelHeld(c, st.ID) {
			t.Fatal("client-cancelled job still holds its cancel func")
		}
	})

	t.Run("drain", func(t *testing.T) {
		c, st := held(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if s, _ := c.Job(st.ID); s.Status != server.StatusQueued {
			t.Fatalf("drained job is %s, want queued (checkpointed)", s.Status)
		}
		if cancelHeld(c, st.ID) {
			t.Fatal("drain-checkpointed job still holds its cancel func")
		}
	})
}
