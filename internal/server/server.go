// Package server is the resilient simulation service behind cmd/lggd: an
// HTTP/JSON daemon that admits run and sweep jobs, executes them on a
// bounded worker pool built from internal/sweep's panic-isolated retrying
// runner, and survives overload, deadlines, cancellation, crashes and
// restarts without losing or corrupting work.
//
// Robustness is applied at every layer, mirroring the paper's saturation
// semantics (Section III): a network fed past its service rate must shed
// at the edge, not grow an unbounded backlog. Concretely:
//
//   - Admission is a bounded queue. A full queue sheds with HTTP 429 and
//     a Retry-After derived from the queue depth and the measured mean
//     job duration — the service-side analogue of the paper's saturated
//     regime, where bounded state is bought by refusing excess arrivals.
//   - Deadlines propagate: a job's timeout_ms flows through the sweep
//     runner into sim.RunContext, so even a single enormous run is
//     cancelled mid-flight instead of wedging a worker.
//   - Idempotency keys deduplicate client retries, so an at-least-once
//     client (the companion client package) never double-submits.
//   - Jobs are durable: every state transition appends to a fsynced
//     JSONL ledger, and every finished run is checkpointed to the PR-4
//     sweep journal. A killed daemon resumes unfinished jobs on restart,
//     and — by the sweep determinism contract — the resumed results are
//     byte-identical to an uninterrupted execution.
//   - Drain is graceful: Drain stops admission (readyz goes 503), lets
//     in-flight jobs finish within the caller's grace, then cancels
//     them so their journals hold the finished prefix, flushes, and
//     returns. Nothing is lost; the next start picks the work back up.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Config tunes a Server. The zero value is usable apart from StateDir,
// which is required.
type Config struct {
	// StateDir holds the job ledger and per-job sweep journals.
	StateDir string
	// Jobs is the number of concurrent job executors (default 2).
	Jobs int
	// QueueDepth bounds the admission queue; arrivals beyond it are shed
	// with 429 + Retry-After (default 16).
	QueueDepth int
	// SweepWorkers is the per-sweep worker pool (default GOMAXPROCS).
	SweepWorkers int
	// Retries is the per-run panic retry budget (sweep.Runner.Retries).
	Retries int
	// FindGrid resolves grid names (default experiments.FindGrid).
	FindGrid GridResolver
	// Registry receives the daemon's metrics (default: a fresh registry,
	// exposed at /metrics).
	Registry *metrics.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Daemon metric names.
const (
	MetricQueueDepth   = "lggd_queue_depth"
	MetricInflight     = "lggd_inflight_jobs"
	MetricDraining     = "lggd_draining"
	MetricShed         = "lggd_jobs_shed_total"
	MetricAdmitted     = "lggd_jobs_admitted_total"
	MetricDeduped      = "lggd_jobs_deduplicated_total"
	MetricJobsDone     = "lggd_jobs_done_total"
	MetricJobsFailed   = "lggd_jobs_failed_total"
	MetricJobsCancel   = "lggd_jobs_cancelled_total"
	MetricJobsResumed  = "lggd_jobs_resumed_total"
	MetricRunsFinished = "lggd_runs_finished_total"
	MetricHTTPRequests = "lggd_http_requests_total"
)

// errDrain marks a cancellation caused by a graceful drain: the job is
// checkpointed and left resumable, unlike a client cancel.
var errDrain = errors.New("server: draining")

// errClientCancel marks a client-requested cancellation (terminal).
var errClientCancel = errors.New("server: cancelled by client")

// job is the in-memory state of one job. Lock order: Server.mu before
// job.mu; never the reverse.
type job struct {
	mu     sync.Mutex
	st     JobState
	cancel context.CancelCauseFunc // non-nil while execute runs it
	doneCh chan struct{}           // closed when the job reaches a terminal status
}

// state returns a consistent snapshot.
func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Status.Terminal()
}

// Server executes sweep jobs from a bounded queue with durable state.
// Construct with New, serve its Handler, and stop with Drain.
type Server struct {
	cfg    Config
	ledger *Ledger
	reg    *metrics.Registry

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	keys     map[string]string // idempotency key → job id
	fifo     []*job
	nextID   int
	draining bool

	wake  chan struct{} // buffered(1): work-available signal
	stopc chan struct{} // closed when draining starts
	haltc chan struct{} // closed when a drain has stopped every execution
	wg    sync.WaitGroup
	// runs parents every execution's context; a drain whose grace
	// expires cancels it with errDrain to checkpoint them all.
	runs     context.Context
	stopRuns context.CancelCauseFunc

	gQueue, gInflight, gDraining                *metrics.Gauge
	cShed, cAdmitted, cDeduped                  *metrics.Counter
	cDone, cFailed, cCancelled, cResumed, cRuns *metrics.Counter
	cHTTP                                       *metrics.Counter
	ewmaMu                                      sync.Mutex
	jobSecs                                     float64
}

// New opens the state directory, replays the job ledger, re-queues every
// unfinished job (oldest first) and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: Config.StateDir is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.FindGrid == nil {
		cfg.FindGrid = experiments.FindGrid
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st, replay, err := OpenLedger(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		ledger: st,
		reg:    cfg.Registry,
		jobs:   make(map[string]*job),
		keys:   make(map[string]string),
		wake:   make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		haltc:  make(chan struct{}),
	}
	s.runs, s.stopRuns = context.WithCancelCause(context.Background())
	s.gQueue = s.reg.Gauge(MetricQueueDepth, "Jobs waiting in the admission queue.")
	s.gInflight = s.reg.Gauge(MetricInflight, "Jobs currently executing.")
	s.gDraining = s.reg.Gauge(MetricDraining, "1 while the daemon drains (admission closed).")
	s.cShed = s.reg.Counter(MetricShed, "Submissions shed with 429 because the queue was full.")
	s.cAdmitted = s.reg.Counter(MetricAdmitted, "Jobs admitted to the queue.")
	s.cDeduped = s.reg.Counter(MetricDeduped, "Submissions answered by an existing job via idempotency key.")
	s.cDone = s.reg.Counter(MetricJobsDone, "Jobs that completed every run.")
	s.cFailed = s.reg.Counter(MetricJobsFailed, "Jobs that ended in a terminal error.")
	s.cCancelled = s.reg.Counter(MetricJobsCancel, "Jobs cancelled by clients.")
	s.cResumed = s.reg.Counter(MetricJobsResumed, "Unfinished jobs re-queued at startup.")
	s.cRuns = s.reg.Counter(MetricRunsFinished, "Individual sweep runs finished across all jobs.")
	s.cHTTP = s.reg.Counter(MetricHTTPRequests, "HTTP requests served.")

	for _, rec := range replay {
		rec := rec
		jb := &job{st: rec, doneCh: make(chan struct{})}
		if n, ok := idNumber(rec.ID); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		if rec.Spec.IdempotencyKey != "" {
			s.keys[rec.Spec.IdempotencyKey] = rec.ID
		}
		s.jobs[rec.ID] = jb
		s.order = append(s.order, rec.ID)
		if rec.Status.Terminal() {
			close(jb.doneCh)
			continue
		}
		// Unfinished (queued or running at the crash/drain): back on the
		// queue; its sweep journal makes the re-run skip finished work.
		jb.st.Status = StatusQueued
		s.fifo = append(s.fifo, jb)
		s.cResumed.Inc()
		cfg.Logf("lggd: resuming %s (%s, %d/%d runs done)", rec.ID, rec.Spec.Grid, rec.Done, rec.Total)
	}
	s.gQueue.Set(int64(len(s.fifo)))

	s.wg.Add(cfg.Jobs)
	for w := 0; w < cfg.Jobs; w++ {
		go s.worker()
	}
	return s, nil
}

// idNumber parses the numeric suffix of "job-%08d".
func idNumber(id string) (int, bool) {
	const p = "job-"
	if len(id) <= len(p) || id[:len(p)] != p {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(p):])
	return n, err == nil
}

// Admit validates and enqueues a job. It returns the job's state and
// whether it was newly created (false = deduplicated by idempotency
// key). Shed and drain conditions return ErrOverloaded / ErrDraining
// with a Retry-After hint attached.
func (s *Server) Admit(spec JobSpec, key string) (JobState, bool, error) {
	spec = spec.WithDefaults()
	if key != "" {
		spec.IdempotencyKey = key
	}
	if err := spec.Validate(s.cfg.FindGrid); err != nil {
		return JobState{}, false, err
	}
	s.mu.Lock()
	if s.draining {
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		return JobState{}, false, &Unavailable{Draining: true, RetryAfter: ra}
	}
	if spec.IdempotencyKey != "" {
		if id, ok := s.keys[spec.IdempotencyKey]; ok {
			jb := s.jobs[id]
			s.mu.Unlock()
			s.cDeduped.Inc()
			return jb.state(), false, nil
		}
	}
	if len(s.fifo) >= s.cfg.QueueDepth {
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		s.cShed.Inc()
		return JobState{}, false, &Unavailable{RetryAfter: ra}
	}
	id := fmt.Sprintf("job-%08d", s.nextID)
	s.nextID++
	jb := &job{st: JobState{ID: id, Spec: spec, Status: StatusQueued}, doneCh: make(chan struct{})}
	if err := s.ledger.Append(jb.st); err != nil {
		s.nextID-- // nothing was admitted
		s.mu.Unlock()
		return JobState{}, false, err
	}
	s.jobs[id] = jb
	s.order = append(s.order, id)
	if spec.IdempotencyKey != "" {
		s.keys[spec.IdempotencyKey] = id
	}
	s.fifo = append(s.fifo, jb)
	s.gQueue.Set(int64(len(s.fifo)))
	// Copied under s.mu: once it is released an executor may already
	// have moved the job on.
	st := jb.st
	s.mu.Unlock()
	s.cAdmitted.Inc()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return st, true, nil
}

// Unavailable is the shed/drain/standby admission refusal; RetryAfter
// is the server's backoff hint in seconds.
type Unavailable struct {
	Draining bool
	// Standby marks a federation coordinator that is mirroring a live
	// primary: it refuses admission (503 + Retry-After) until a missed
	// heartbeat window promotes it. A client that keeps retrying against
	// a standby is therefore admitted the moment failover completes.
	Standby    bool
	RetryAfter int
}

func (u *Unavailable) Error() string {
	switch {
	case u.Draining:
		return "server draining, not admitting jobs"
	case u.Standby:
		return "coordinator is a standby; submit to the primary (or retry after failover)"
	default:
		return "admission queue full, job shed"
	}
}

// retryAfterLocked derives the Retry-After hint from the queue depth and
// the measured mean job duration: the expected time until a queue slot
// frees for a new arrival. Requires s.mu.
func (s *Server) retryAfterLocked() int {
	s.ewmaMu.Lock()
	mean := s.jobSecs
	s.ewmaMu.Unlock()
	if mean <= 0 {
		mean = 1
	}
	secs := int(math.Ceil(mean * float64(len(s.fifo)+1) / float64(s.cfg.Jobs)))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// observeJobSeconds feeds the duration EWMA behind Retry-After.
func (s *Server) observeJobSeconds(secs float64) {
	s.ewmaMu.Lock()
	if s.jobSecs == 0 {
		s.jobSecs = secs
	} else {
		s.jobSecs = 0.7*s.jobSecs + 0.3*secs
	}
	s.ewmaMu.Unlock()
}

// Job returns a job's state by id.
func (s *Server) Job(id string) (JobState, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobState{}, false
	}
	return jb.state(), true
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []JobState {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	m := s.jobs
	s.mu.Unlock()
	out := make([]JobState, 0, len(ids))
	for _, id := range ids {
		out = append(out, m[id].state())
	}
	return out
}

// Cancel requests cancellation of a job. Terminal jobs are left alone
// (the current state is returned); queued jobs become cancelled
// immediately; running jobs are cancelled mid-sweep, their journal
// keeping the finished prefix.
func (s *Server) Cancel(id string) (JobState, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobState{}, false
	}
	jb.mu.Lock()
	switch {
	case jb.st.Status.Terminal():
		jb.mu.Unlock()
	case jb.st.Status == StatusQueued:
		jb.st.Status = StatusCancelled
		jb.st.Error = errClientCancel.Error()
		st := jb.st
		close(jb.doneCh)
		jb.mu.Unlock()
		s.cCancelled.Inc()
		s.persistState(st)
	default: // running
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel(errClientCancel)
		}
	}
	return jb.state(), true
}

// persistState appends a snapshot to the ledger, logging (not
// propagating) failures — an unwritable ledger must not wedge the
// daemon's control plane.
func (s *Server) persistState(st JobState) {
	if err := s.ledger.Append(st); err != nil {
		s.cfg.Logf("lggd: ledger append for %s: %v", st.ID, err)
	}
}

// worker pops queued jobs and executes them until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		jb := s.pop()
		if jb == nil {
			return
		}
		s.execute(jb)
	}
}

// pop blocks until a job is available or the server drains. Draining
// stops dispatch even with a non-empty queue: queued jobs stay persisted
// and resume on the next start.
func (s *Server) pop() *job {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil
		}
		if len(s.fifo) > 0 {
			jb := s.fifo[0]
			s.fifo = s.fifo[1:]
			s.gQueue.Set(int64(len(s.fifo)))
			s.mu.Unlock()
			return jb
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-s.stopc:
			return nil
		}
	}
}

// execute runs one job to a terminal state (or to a drain checkpoint).
func (s *Server) execute(jb *job) {
	jb.mu.Lock()
	if jb.st.Status.Terminal() { // cancelled while queued
		jb.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(s.runs)
	jb.cancel = cancel
	jb.st.Status = StatusRunning
	jb.st.Done, jb.st.Recovered, jb.st.Degraded, jb.st.Indeterminate = 0, 0, 0, 0
	spec := jb.st.Spec
	id := jb.st.ID
	st := jb.st
	jb.mu.Unlock()
	defer cancel(nil)
	s.persistState(st)
	s.gInflight.Add(1)
	defer s.gInflight.Add(-1)
	start := time.Now()

	g, err := s.cfg.FindGrid(spec.Grid)
	if err != nil {
		s.finish(jb, StatusFailed, err.Error())
		return
	}
	runs := g.Jobs(spec.Config())
	if spec.Faults != "" {
		if err := experiments.ApplyFaults(runs, spec.Faults); err != nil {
			s.finish(jb, StatusFailed, err.Error())
			return
		}
	}
	if spec.RunCount > 0 {
		// Range job (federation shard): execute only the requested
		// index window. Desc.Index stays global, so the results are the
		// exact lines an unsharded sweep would emit for these indices.
		if spec.RunStart+spec.RunCount > len(runs) {
			s.finish(jb, StatusFailed, fmt.Sprintf(
				"run range %d+%d exceeds the grid's %d runs", spec.RunStart, spec.RunCount, len(runs)))
			return
		}
		runs = runs[spec.RunStart : spec.RunStart+spec.RunCount]
	}
	journal, prefix, err := sweep.OpenJournalResume(s.ledger.JournalPath(id), len(runs))
	if err != nil {
		s.finish(jb, StatusFailed, err.Error())
		return
	}
	jb.mu.Lock()
	jb.st.Total = len(runs)
	jb.mu.Unlock()

	runCtx := ctx
	if spec.TimeoutMS > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
		defer cancelT()
	}
	runner := &sweep.Runner{
		Workers: s.cfg.SweepWorkers,
		Retries: s.cfg.Retries,
		Journal: journal,
		Resume:  prefix,
		OnResult: func(_ sweep.Job, res sweep.Result, _ *sim.Result) {
			jb.mu.Lock()
			jb.st.Done++
			switch res.Recovery {
			case "Recovered":
				jb.st.Recovered++
			case "Degraded":
				jb.st.Degraded++
			case "Indeterminate":
				jb.st.Indeterminate++
			}
			jb.mu.Unlock()
			s.cRuns.Inc()
		},
	}
	_, runErr := runner.RunWithContext(runCtx, runs)
	if cerr := journal.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("journal close: %w", cerr)
	}
	s.observeJobSeconds(time.Since(start).Seconds())

	switch {
	case runErr == nil:
		s.finish(jb, StatusDone, "")
	case errors.Is(runErr, context.Canceled):
		if errors.Is(context.Cause(ctx), errDrain) {
			// Drain checkpoint: journal holds the finished prefix; the
			// job goes back to queued so the next start resumes it.
			jb.mu.Lock()
			jb.st.Status = StatusQueued
			jb.cancel = nil
			st := jb.st
			jb.mu.Unlock()
			s.persistState(st)
			s.cfg.Logf("lggd: %s checkpointed at %d/%d runs for drain", id, st.Done, st.Total)
			return
		}
		s.finish(jb, StatusCancelled, errClientCancel.Error())
	case errors.Is(runErr, sweep.ErrTimeout) || errors.Is(runErr, context.DeadlineExceeded):
		s.finish(jb, StatusFailed, fmt.Sprintf("deadline exceeded after %dms", spec.TimeoutMS))
	default:
		s.finish(jb, StatusFailed, runErr.Error())
	}
}

// finish moves a job to a terminal state, persists it and wakes waiters.
func (s *Server) finish(jb *job, status JobStatus, errMsg string) {
	jb.mu.Lock()
	jb.cancel = nil // execute is returning
	if jb.st.Status.Terminal() {
		jb.mu.Unlock()
		return
	}
	jb.st.Status = status
	jb.st.Error = errMsg
	st := jb.st
	close(jb.doneCh)
	jb.mu.Unlock()
	switch status {
	case StatusDone:
		s.cDone.Inc()
	case StatusFailed:
		s.cFailed.Inc()
	case StatusCancelled:
		s.cCancelled.Inc()
	}
	s.persistState(st)
	s.cfg.Logf("lggd: %s → %s (%d/%d runs)", st.ID, status, st.Done, st.Total)
}

// JournalPath reports where a job's sweep journal lives on disk (the
// federation byte-identity tests compare these files directly).
func (s *Server) JournalPath(id string) string {
	return s.ledger.JournalPath(id)
}

// Draining reports whether admission is closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: admission closes immediately
// (readyz → 503, submissions refused), queued jobs stay durably queued,
// and in-flight jobs get until ctx's deadline to finish. Jobs still
// running when the grace expires are cancelled mid-sweep — their
// journals keep every finished run — and left queued for the next
// start; result streams follow their jobs until then. Drain returns
// once every worker has flushed and the ledger is closed; it is safe to
// call once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	s.gDraining.Set(1)
	close(s.stopc)

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		s.stopRuns(errDrain) // grace expired: checkpoint in-flight jobs
		<-workersDone
	}
	close(s.haltc)
	return s.ledger.Close()
}
