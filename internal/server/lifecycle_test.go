package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// waitDone polls a server until the job is terminal.
func waitDone(t *testing.T, s *Server, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Status.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return JobState{}
}

// TestDrainRestartByteIdentical is the daemon's end-to-end durability
// contract: a job interrupted mid-sweep by a drain (the SIGTERM path in
// cmd/lggd) and finished by a fresh daemon on the same state directory
// produces byte-for-byte the results an uninterrupted daemon produces.
func TestDrainRestartByteIdentical(t *testing.T) {
	spec := JobSpec{Grid: "unit", Seeds: 6, Horizon: 400_000}
	dirA := t.TempDir()
	dirB := t.TempDir()

	// Reference: uninterrupted execution on state dir B.
	ref, _ := newTestServer(t, Config{Jobs: 1, StateDir: dirB})
	refSt, _, err := ref.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitDone(t, ref, refSt.ID)
	if refDone.Status != StatusDone {
		t.Fatalf("reference job: %+v", refDone)
	}
	drain(t, ref)
	refBytes, err := os.ReadFile(filepath.Join(dirB, "results", refSt.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted execution on state dir A: drain after the first run
	// lands, while the sweep is still mid-flight.
	s1, _ := newTestServer(t, Config{Jobs: 1, StateDir: dirA})
	st, _, err := s1.Admit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := s1.Job(st.ID)
		if got.Done >= 1 && got.Status == StatusRunning {
			break
		}
		if got.Status.Terminal() {
			t.Fatalf("job finished before the drain could interrupt it: %+v — grow Horizon", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("first run never landed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, s1) // immediate grace expiry → checkpoint-cancel

	// The interrupted job is durably queued with a partial journal.
	mid, err := os.ReadFile(filepath.Join(dirA, "results", st.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	midLines := strings.Count(string(mid), "\n") - 1 // minus header
	if midLines < 1 || midLines >= 6 {
		t.Fatalf("checkpoint has %d result lines, want mid-flight (1..5)", midLines)
	}

	// Restart on the same state directory: the job resumes and finishes.
	s2, err := New(Config{Jobs: 1, StateDir: dirA, SweepWorkers: 2, FindGrid: unitResolver()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.cResumed.Value(); got != 1 {
		t.Fatalf("%s = %d after restart, want 1", MetricJobsResumed, got)
	}
	fin := waitDone(t, s2, st.ID)
	if fin.Status != StatusDone || fin.Done != 6 || fin.Total != 6 {
		t.Fatalf("resumed job: %+v", fin)
	}
	drain(t, s2)

	gotBytes, err := os.ReadFile(filepath.Join(dirA, "results", st.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Fatalf("resumed results differ from uninterrupted results:\n--- resumed (%d bytes)\n%s\n--- reference (%d bytes)\n%s",
			len(gotBytes), gotBytes, len(refBytes), refBytes)
	}
}

// TestRestartResumesQueuedJobs: jobs still queued at the drain (never
// started) survive the restart too, in submission order.
func TestRestartResumesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newTestServer(t, Config{Jobs: 1, QueueDepth: 8, StateDir: dir})
	// Worker pinned by an unbounded job; two more queue behind it.
	blocker, _, err := s1.Admit(JobSpec{Grid: "unit", Seeds: 1, Horizon: 1 << 40}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, blocker.ID, StatusRunning)
	var queued []string
	for i := 0; i < 2; i++ {
		st, _, err := s1.Admit(JobSpec{Grid: "unit", Seeds: 2, Horizon: 150}, fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}
	drain(t, s1)

	s2, err := New(Config{Jobs: 1, StateDir: dir, SweepWorkers: 2, FindGrid: unitResolver()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.cResumed.Value(); got != 3 {
		t.Fatalf("resumed %d jobs, want 3 (1 interrupted + 2 queued)", got)
	}
	// Cancel the unbounded blocker so the queued jobs get the worker.
	if _, ok := s2.Cancel(blocker.ID); !ok {
		t.Fatal("blocker vanished across restart")
	}
	for _, id := range queued {
		if st := waitDone(t, s2, id); st.Status != StatusDone {
			t.Fatalf("queued job %s after restart: %+v", id, st)
		}
	}
	// Idempotency keys survive restart: re-submitting q0 dedups.
	st, created, err := s2.Admit(JobSpec{Grid: "unit", Seeds: 2, Horizon: 150}, "q0")
	if err != nil {
		t.Fatal(err)
	}
	if created || st.ID != queued[0] {
		t.Fatalf("key q0 after restart: created=%v id=%s, want dedup to %s", created, st.ID, queued[0])
	}
	drain(t, s2)
}

// TestLedgerTornTailTolerated: a crash mid-append leaves a torn final
// line; the restart truncates it and every whole-line snapshot stands.
func TestLedgerTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newTestServer(t, Config{Jobs: 1, StateDir: dir})
	st, _, err := s1.Admit(JobSpec{Grid: "unit", Seeds: 2, Horizon: 150}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, st.ID)
	drain(t, s1)

	ledger := filepath.Join(dir, "jobs.jsonl")
	f, err := os.OpenFile(ledger, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(Config{Jobs: 1, StateDir: dir, SweepWorkers: 2, FindGrid: unitResolver()})
	if err != nil {
		t.Fatalf("torn ledger tail rejected: %v", err)
	}
	got, ok := s2.Job(st.ID)
	if !ok || got.Status != StatusDone {
		t.Fatalf("job after torn-tail restart: %+v (ok=%v)", got, ok)
	}
	// The truncated ledger accepts appends again: submit another job.
	st2, _, err := s2.Admit(JobSpec{Grid: "unit", Seeds: 1, Horizon: 100}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s2, st2.ID)
	drain(t, s2)

	// And the final ledger replays clean.
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("ledger line %d invalid after recovery: %q", i, line)
		}
	}
}

// cancelHeld reports whether the job still holds its run context's
// cancel func. The field is documented non-nil only while execute runs
// the job; a finished or checkpointed job that kept it would pin the
// context (and its Done channel) for the daemon's lifetime.
func cancelHeld(s *Server, id string) bool {
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.cancel != nil
}

func TestFinishedJobReleasesCancel(t *testing.T) {
	s, _ := newTestServer(t, Config{Jobs: 2})
	unbounded := JobSpec{Grid: "unit", Seeds: 2, Horizon: 1 << 40}

	done, _, err := s.Admit(JobSpec{Grid: "unit", Seeds: 2, Horizon: 200}, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, done.ID); st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if cancelHeld(s, done.ID) {
		t.Fatal("done job still holds its cancel func")
	}

	cancelled, _, err := s.Admit(unbounded, "")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, cancelled.ID, StatusRunning)
	s.Cancel(cancelled.ID)
	if st := waitDone(t, s, cancelled.ID); st.Status != StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", st.Status)
	}
	if cancelHeld(s, cancelled.ID) {
		t.Fatal("client-cancelled job still holds its cancel func")
	}

	drained, _, err := s.Admit(unbounded, "")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, drained.ID, StatusRunning)
	drain(t, s)
	if st, _ := s.Job(drained.ID); st.Status != StatusQueued {
		t.Fatalf("drained job is %s, want queued (checkpointed)", st.Status)
	}
	if cancelHeld(s, drained.ID) {
		t.Fatal("drain-checkpointed job still holds its cancel func")
	}
}

// gatedResolver is unitResolver with every run's Build held until gate
// is closed, so a test decides when a running job may finish.
func gatedResolver(gate <-chan struct{}) GridResolver {
	find := unitResolver()
	return func(name string) (experiments.NamedGrid, error) {
		ng, err := find(name)
		if err != nil {
			return ng, err
		}
		jobsFn := ng.Jobs
		ng.Jobs = func(cfg experiments.Config) []sweep.Job {
			jobs := jobsFn(cfg)
			for i := range jobs {
				build := jobs[i].Build
				jobs[i].Build = func(seed uint64) *core.Engine {
					<-gate
					return build(seed)
				}
			}
			return jobs
		}
		return ng, nil
	}
}

// TestDrainGraceStreamsFinishingJobWhole: a drain gives in-flight jobs
// their grace to finish, and a results follower rides it out with them —
// the stream of a job that finishes in the grace carries every run.
func TestDrainGraceStreamsFinishingJobWhole(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Jobs: 1, FindGrid: gatedResolver(gate)})
	st, _, err := s.Admit(JobSpec{Grid: "unit", Seeds: 4, Horizon: 200}, "")
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
		if err != nil {
			streamed <- -1
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		streamed <- strings.Count(string(raw), "\n")
	}()
	waitStatus(t, s, st.ID, StatusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-streamed:
		t.Fatalf("results stream ended with %d lines while its job ran in the drain's grace", n)
	case <-time.After(200 * time.Millisecond):
	}
	close(gate)
	if n := <-streamed; n != 4 {
		t.Fatalf("stream carried %d lines, want all 4 runs", n)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, _ := s.Job(st.ID); got.Status != StatusDone || got.Done != 4 {
		t.Fatalf("job after the drain: %+v", got)
	}
}
