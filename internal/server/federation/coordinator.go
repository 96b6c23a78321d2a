// Package federation scales the lggd daemon horizontally without
// touching its determinism contract. A coordinator accepts the same
// sweep jobs as a single daemon (same JobSpec, same HTTP API), splits
// each job into contiguous run-index ranges, executes the ranges on a
// fleet of ordinary lggd workers, and k-way merges the returned results
// into one journal that is byte-identical to a single-daemon run of the
// same spec.
//
// Byte-stability falls out of the sweep determinism contract: every
// run's RNG stream derives only from the root seed and the run's global
// index, so a worker handed [start, start+count) produces exactly the
// result lines an unsharded sweep would for those indices, and merging
// by index reconstitutes the unsharded byte stream (internal/sweep's
// Merger).
//
// The same contract pays for fault tolerance. A range whose worker goes
// quiet past its lease is re-leased to another worker — work stealing —
// and if both eventually finish, the duplicate runs are byte-identical
// by construction, so merge dedup-by-index loses nothing. Worker jobs
// are submitted with deterministic idempotency keys derived from the
// coordinator job and range, so a restarted coordinator re-attaches to
// in-flight worker jobs instead of duplicating them.
//
// The coordinator itself is no longer a single point of failure. A
// standby coordinator (Config.Standby) tails the primary's
// /v1/coordinator/status heartbeat, mirroring its job ledger and fleet
// view, and promotes itself after a missed-heartbeat window — re-queueing
// every non-terminal job, whose merged output stays byte-identical to an
// unfailed run because the worker-side idempotency keys are derived from
// the job, not the coordinator. The fleet is one table with one record
// per worker (fleet.go): every worker contact refreshes a liveness age,
// standbys mirror those ages from the primary's heartbeat, and departed
// workers age out through suspicion instead of holding leases. Dispatch
// is health-aware: per-worker EWMA service rates drive adaptive
// straggler leases, and a worker whose error share crosses a threshold
// is browned out and drained instead of fed more ranges.
//
// On top, the coordinator adds the multi-tenant control the single
// daemon deliberately lacks: per-tenant admission quotas and fair-share
// dispatch (queue.go), and a compacting result store that distils
// finished jobs into per-cell summaries queryable without replaying
// journals (store.go).
package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sweep"
)

// Config tunes a Coordinator; only StateDir is required.
type Config struct {
	// StateDir holds the coordinator's job ledger, merged per-job
	// journals (results/) and the compacted summary index. The layout
	// matches a single daemon's state directory.
	StateDir string
	// Workers seeds the fleet with lggd base URLs; more join at runtime
	// via POST /v1/fleet/join (a standby also adopts the primary's).
	Workers []string
	// Jobs is the number of coordinator jobs sharded concurrently
	// (default 2) — each one fans out to the whole fleet.
	Jobs int
	// QueueDepth bounds total queued jobs across tenants (default 16).
	QueueDepth int
	// TenantQuota caps one tenant's live (queued+running) jobs
	// (default 4; <=0 only via an explicit negative = unlimited).
	TenantQuota int
	// RangeRuns is the target shard size in runs (default 8). Smaller
	// ranges steal and rebalance faster; larger ones amortise per-job
	// HTTP overhead.
	RangeRuns int
	// Lease is the straggler-lease ceiling and cold-start value
	// (default 60s). Once a worker has observed throughput, its actual
	// lease adapts: Health.LeaseFactor times the expected range
	// duration at max(its own EWMA rate, the fleet mean), clamped to
	// [Health.MinLease, Lease] — so a worker that falls behind the
	// fleet is stolen from sooner, without any fixed -lease tuning.
	Lease time.Duration
	// StealMax caps concurrent attempts per range, the original lease
	// included (default 2). Attempts stuck on suspect or browned-out
	// workers don't count against the cap, so a dying worker can't pin
	// a range to its own corpse.
	StealMax int
	// KeepJournals, when positive, bounds merged journals kept on disk:
	// after a job is compacted into the summary index, only the most
	// recent KeepJournals journals survive (0 keeps all).
	KeepJournals int
	// FindGrid resolves grid names (default experiments.FindGrid). The
	// coordinator and its workers must resolve identically or range
	// bounds will not line up.
	FindGrid server.GridResolver

	// Standby starts the coordinator as a warm standby: admission is
	// refused (503 + Retry-After) and nothing is dispatched; instead the
	// coordinator tails Primary's /v1/coordinator/status, mirroring its
	// job ledger and fleet view. After FailoverAfter without a
	// successful heartbeat it promotes itself, re-queues every
	// non-terminal job and starts dispatching. Requires Primary.
	Standby bool
	// Primary is the primary coordinator's base URL (standby mode only).
	Primary string
	// Rank is this coordinator's fixed position in the failover order:
	// 0 for the configured primary, 1 for the first standby, 2 for the
	// second, and so on (defaults to 1 in standby mode). Rank is
	// identity, not state — it never changes at runtime. It orders
	// promotions (a standby waits until EVERY better-ranked coordinator
	// has been silent for FailoverAfter, so rank 2 defers to a live
	// rank 1 even with the primary dead) and breaks the epoch tie two
	// coordinators can reach across a healed partition: equal epochs,
	// lower rank wins.
	Rank int
	// Watch lists the other coordinators in the failover chain this one
	// must monitor, besides Primary. A standby ranked r watches Primary
	// plus the standbys ranked 1..r-1; promotion requires them ALL
	// silent for FailoverAfter. An acting primary with a non-empty
	// watch set runs a guard loop over it: a watched coordinator
	// claiming the primary role with a higher epoch — or the same epoch
	// and a lower rank — demotes this one back to standby (no
	// consensus; the rank order is the arbiter).
	Watch []string
	// Heartbeat is the standby's primary-poll cadence (default 1s).
	Heartbeat time.Duration
	// FailoverAfter is how long a standby tolerates failed heartbeats
	// before assuming leadership (default 5s).
	FailoverAfter time.Duration
	// SuspectAfter marks a worker suspect after this long without
	// contact (default 75s). Suspect workers are dispatched to only
	// when no alive worker is eligible.
	SuspectAfter time.Duration
	// DeadAfter removes a worker unheard from for this long
	// (default 2×SuspectAfter).
	DeadAfter time.Duration
	// Health tunes worker health scoring (EWMA rates, adaptive leases,
	// brown-out); zero values take HealthConfig defaults.
	Health HealthConfig
	// ReapAttempts / ReapBackoff shape the retry loop that cancels
	// abandoned worker-side jobs after a steal won or a client
	// cancelled (defaults 4 / 250ms, doubling).
	ReapAttempts int
	ReapBackoff  time.Duration

	// Client tunes the per-worker HTTP clients; BaseURL is overwritten
	// per worker.
	Client client.Config
	// Registry receives coordinator metrics (default: fresh registry).
	Registry *metrics.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// Now and Rand are injectable for tests (defaults time.Now and
	// math/rand.Float64). Rand jitters the heartbeat and membership
	// cadences.
	Now  func() time.Time
	Rand func() float64
}

// Coordinator metric names.
const (
	MetricQueued           = "lggfed_queue_depth"
	MetricInflight         = "lggfed_inflight_jobs"
	MetricFleet            = "lggfed_fleet_size"
	MetricShed             = "lggfed_jobs_shed_total"
	MetricQuotaRefused     = "lggfed_jobs_quota_refused_total"
	MetricJobsDone         = "lggfed_jobs_done_total"
	MetricJobsFailed       = "lggfed_jobs_failed_total"
	MetricRangesDone       = "lggfed_ranges_done_total"
	MetricRangesStolen     = "lggfed_ranges_stolen_total"
	MetricRangesRetried    = "lggfed_ranges_retried_total"
	MetricCellsCompacted   = "lggfed_cells_compacted_total"
	MetricEpoch            = "lggfed_epoch"
	MetricStandby          = "lggfed_standby"
	MetricRank             = "lggfed_rank"
	MetricFailovers        = "lggfed_failovers_total"
	MetricDemotions        = "lggfed_demotions_total"
	MetricHeartbeatsMissed = "lggfed_heartbeats_missed_total"
	MetricMembersSuspect   = "lggfed_members_suspect"
	MetricBrownedOut       = "lggfed_workers_browned_out"
	MetricReapFailures     = "lggfed_reap_failures_total"
)

var (
	errDrain        = errors.New("federation: draining")
	errDemote       = errors.New("federation: demoted to standby")
	errClientCancel = errors.New("federation: cancelled by client")
)

// cjob is the in-memory state of one coordinator job.
type cjob struct {
	mu     sync.Mutex
	st     server.JobState
	cancel context.CancelCauseFunc // non-nil while executeJob runs it
	doneCh chan struct{}           // closed at a terminal status
}

func (j *cjob) state() server.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *cjob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Status.Terminal()
}

// Coordinator shards sweep jobs across a fleet of lggd daemons.
// Construct with New, serve its Handler, stop with Drain.
type Coordinator struct {
	cfg    Config
	ledger *server.Ledger
	reg    *metrics.Registry
	rstore *resultStore
	fleet  *fleet

	upstreams []*upstream // the failover chain this coordinator monitors

	mu           sync.Mutex
	jobs         map[string]*cjob
	order        []string
	keys         map[string]string // idempotency key → job id
	queue        *tenantQueue
	nextID       int
	draining     bool
	standby      bool
	epoch        int64
	mirrorEpoch  int64 // primary's epoch as last mirrored by a standby
	maxSeenEpoch int64 // highest epoch observed from any coordinator

	wake  chan struct{}
	stopc chan struct{} // closed when draining starts
	haltc chan struct{} // closed when a drain has stopped every execution
	wg    sync.WaitGroup
	// reign parents every job's run context; endReign checkpoints them
	// all, with errDemote on demotion or errDrain after a drain's grace.
	reign    context.Context
	endReign context.CancelCauseFunc

	gQueue, gInflight, gFleet, gEpoch   *metrics.Gauge
	gStandby, gRank, gSuspect, gBrowned *metrics.Gauge
	cShed, cQuota, cDone, cFailed       *metrics.Counter
	cRanges, cStolen, cRetried, cCells  *metrics.Counter
	cFailovers, cDemotions              *metrics.Counter
	cBeatsMissed, cReapFail             *metrics.Counter
	ewmaMu                              sync.Mutex
	jobSecs                             float64
}

// upstream is one coordinator in the failover chain that this one
// monitors: the primary and every better-ranked standby for a follower,
// or the configured watch set for an acting primary's guard loop. The
// client is single-attempt — the follow and guard loops are the retry
// policy.
type upstream struct {
	url string
	cli *client.Client
}

// New opens the state directory, replays the ledger (re-queueing
// unfinished jobs), connects the seed fleet and starts the dispatchers —
// or, in standby mode, the primary-tailing follow loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("federation: Config.StateDir is required")
	}
	if cfg.Standby && cfg.Primary == "" {
		return nil, fmt.Errorf("federation: standby mode requires Config.Primary")
	}
	if cfg.Rank < 0 {
		return nil, fmt.Errorf("federation: Config.Rank must be non-negative")
	}
	if cfg.Standby && cfg.Rank == 0 {
		cfg.Rank = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 4
	}
	if cfg.RangeRuns <= 0 {
		cfg.RangeRuns = 8
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 60 * time.Second
	}
	if cfg.StealMax <= 0 {
		cfg.StealMax = 2
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 5 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 75 * time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * cfg.SuspectAfter
	}
	if cfg.ReapAttempts <= 0 {
		cfg.ReapAttempts = 4
	}
	if cfg.ReapBackoff <= 0 {
		cfg.ReapBackoff = 250 * time.Millisecond
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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = mrand.Float64
	}
	ledger, replay, err := server.OpenLedger(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	rstore, err := openResultStore(cfg.StateDir, cfg.KeepJournals)
	if err != nil {
		ledger.Close()
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ledger: ledger,
		reg:    cfg.Registry,
		rstore: rstore,
		fleet:  newFleet(cfg),
		jobs:   make(map[string]*cjob),
		keys:   make(map[string]string),
		queue:  newTenantQueue(cfg.TenantQuota, cfg.QueueDepth),
		wake:   make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		haltc:  make(chan struct{}),
	}
	c.gQueue = c.reg.Gauge(MetricQueued, "Jobs waiting in the coordinator queue.")
	c.gInflight = c.reg.Gauge(MetricInflight, "Coordinator jobs currently sharded across the fleet.")
	c.gFleet = c.reg.Gauge(MetricFleet, "Workers in the fleet.")
	c.gEpoch = c.reg.Gauge(MetricEpoch, "Leadership epoch (increments at every failover).")
	c.gStandby = c.reg.Gauge(MetricStandby, "1 while this coordinator is a standby.")
	c.gRank = c.reg.Gauge(MetricRank, "This coordinator's fixed failover rank (0 = configured primary).")
	c.gSuspect = c.reg.Gauge(MetricMembersSuspect, "Fleet members past the suspicion threshold.")
	c.gBrowned = c.reg.Gauge(MetricBrownedOut, "Workers browned out by error rate.")
	c.cShed = c.reg.Counter(MetricShed, "Submissions shed because the shared queue was full.")
	c.cQuota = c.reg.Counter(MetricQuotaRefused, "Submissions refused by a tenant's quota.")
	c.cDone = c.reg.Counter(MetricJobsDone, "Coordinator jobs merged to completion.")
	c.cFailed = c.reg.Counter(MetricJobsFailed, "Coordinator jobs that failed.")
	c.cRanges = c.reg.Counter(MetricRangesDone, "Ranges completed by the fleet.")
	c.cStolen = c.reg.Counter(MetricRangesStolen, "Ranges re-leased past their straggler deadline.")
	c.cRetried = c.reg.Counter(MetricRangesRetried, "Range attempts retried after a worker failure.")
	c.cCells = c.reg.Counter(MetricCellsCompacted, "Per-cell summaries written to the result index.")
	c.cFailovers = c.reg.Counter(MetricFailovers, "Standby promotions to primary.")
	c.cDemotions = c.reg.Counter(MetricDemotions, "Acting primaries that stepped back down to standby.")
	c.cBeatsMissed = c.reg.Counter(MetricHeartbeatsMissed, "Failed heartbeat polls of the primary.")
	c.cReapFail = c.reg.Counter(MetricReapFailures, "Abandoned worker jobs the reaper gave up cancelling.")

	for _, url := range cfg.Workers {
		if err := c.join(url, 0); err != nil {
			ledger.Close()
			return nil, err
		}
	}

	for _, rec := range replay {
		jb := &cjob{st: rec, doneCh: make(chan struct{})}
		if n, ok := jobIDNumber(rec.ID); ok && n >= c.nextID {
			c.nextID = n + 1
		}
		if rec.Spec.IdempotencyKey != "" {
			c.keys[rec.Spec.IdempotencyKey] = rec.ID
		}
		c.jobs[rec.ID] = jb
		c.order = append(c.order, rec.ID)
		if rec.Status.Terminal() {
			close(jb.doneCh)
			continue
		}
		if cfg.Standby {
			// A restarted standby keeps mirrored jobs as recorded; the
			// follow loop refreshes them from the primary (and a
			// promotion re-queues whatever is still live).
			continue
		}
		jb.st.Status = server.StatusQueued
		c.queue.push(rec.Spec.Tenant, jb)
		cfg.Logf("lggfed: resuming %s (%s, %d/%d runs merged)", rec.ID, rec.Spec.Grid, rec.Done, rec.Total)
	}
	// Replay rebuilt the tenant ring in first-submission order; re-seat
	// the fair-share cursor past the tenant dispatched last before the
	// restart so it is not served first again.
	c.queue.alignAfter(ledger.LastDispatchedTenant())
	c.gQueue.Set(int64(c.queue.pending()))

	// The failover chain: a standby monitors the primary plus every
	// better-ranked standby; an acting primary guards against the URLs
	// in its watch set.
	chain := cfg.Watch
	if cfg.Standby {
		chain = append([]string{cfg.Primary}, cfg.Watch...)
	}
	for _, url := range chain {
		ucfg := cfg.Client
		ucfg.BaseURL = url
		ucfg.MaxAttempts = 1 // the follow/guard loop is the retry policy
		// Nor may a breaker blind the loop: a poll skipped while it
		// cools down would hide a recovered or better claimant for the
		// whole cooldown.
		ucfg.BreakerThreshold = math.MaxInt
		ucli, err := client.New(ucfg)
		if err != nil {
			rstore.close()
			ledger.Close()
			return nil, fmt.Errorf("federation: upstream %s: %w", url, err)
		}
		c.upstreams = append(c.upstreams, &upstream{url: url, cli: ucli})
	}
	c.gRank.Set(int64(cfg.Rank))
	c.reign, c.endReign = context.WithCancelCause(context.Background())
	if cfg.Standby {
		c.standby = true
		c.gStandby.Set(1)
		c.wg.Add(1)
		go c.followLoop()
	} else {
		c.epoch = 1
		c.gEpoch.Set(1)
		c.wg.Add(cfg.Jobs)
		for i := 0; i < cfg.Jobs; i++ {
			go c.dispatcher()
		}
		if len(c.upstreams) > 0 {
			c.wg.Add(1)
			go c.guardLoop()
		}
	}
	c.wg.Add(1)
	go c.membershipLoop()
	return c, nil
}

// jobIDNumber parses the numeric suffix of "job-%08d".
func jobIDNumber(id string) (int, bool) {
	const p = "job-"
	if !strings.HasPrefix(id, p) || len(id) == len(p) {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(p):])
	return n, err == nil
}

// jitter spreads a cadence across [d/2, 3d/2) so restarted fleet
// members desynchronise instead of thundering in lockstep.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(c.cfg.Rand()*float64(d))
}

// join admits url to the fleet, or refreshes it, with its declared
// capacity. Seed workers join unpinged so the coordinator can start
// ahead of its fleet; the join handler pings first.
func (c *Coordinator) join(url string, capacity float64) error {
	added, size, err := c.fleet.join(url, capacity)
	if err != nil {
		return err
	}
	if added {
		c.cfg.Logf("lggfed: worker %s joined (fleet size %d)", url, size)
	}
	c.gFleet.Set(int64(size))
	return nil
}

// FleetMembers is the live-worker view served at GET /v1/fleet: each
// member's liveness state, age since last contact, and scheduling
// health.
func (c *Coordinator) FleetMembers() []server.FleetMember { return c.fleet.view() }

// Status is the heartbeat payload served at GET /v1/coordinator/status.
func (c *Coordinator) Status() server.CoordStatus {
	c.mu.Lock()
	epoch := c.epoch
	standby := c.standby
	c.mu.Unlock()
	role := server.RolePrimary
	if standby {
		role = server.RoleStandby
	}
	return server.CoordStatus{Epoch: epoch, Role: role, Rank: c.cfg.Rank, Fleet: c.FleetMembers(), Jobs: c.Jobs()}
}

// Standby reports whether this coordinator is (still) a standby.
func (c *Coordinator) Standby() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.standby
}

// Admit validates and enqueues a job, mirroring the single daemon's
// semantics plus the tenant layer: quota exhaustion and a full shared
// queue both shed with Unavailable (HTTP 429 + Retry-After); drain and
// standby mode refuse with the 503 variant.
func (c *Coordinator) Admit(spec server.JobSpec, key string) (server.JobState, bool, error) {
	spec = spec.WithDefaults()
	if key != "" {
		spec.IdempotencyKey = key
	}
	if err := spec.Validate(c.cfg.FindGrid); err != nil {
		return server.JobState{}, false, err
	}
	if spec.RunCount > 0 || spec.RunStart > 0 {
		return server.JobState{}, false, fmt.Errorf("federation: run_start/run_count are reserved for the coordinator's own sharding")
	}
	c.mu.Lock()
	if c.draining {
		ra := c.retryAfterLocked()
		c.mu.Unlock()
		return server.JobState{}, false, &server.Unavailable{Draining: true, RetryAfter: ra}
	}
	if c.standby {
		// A standby owns no fleet leases; the client should submit to
		// the primary — or retry here after a failover promotes us.
		ra := int(c.cfg.FailoverAfter / time.Second)
		if ra < 1 {
			ra = 1
		}
		c.mu.Unlock()
		return server.JobState{}, false, &server.Unavailable{Standby: true, RetryAfter: ra}
	}
	if spec.IdempotencyKey != "" {
		if id, ok := c.keys[spec.IdempotencyKey]; ok {
			jb := c.jobs[id]
			c.mu.Unlock()
			return jb.state(), false, nil
		}
	}
	overQuota, full := c.queue.admissible(spec.Tenant)
	if overQuota || full {
		ra := c.retryAfterLocked()
		c.mu.Unlock()
		if overQuota {
			c.cQuota.Inc()
			return server.JobState{}, false, &server.Unavailable{RetryAfter: ra}
		}
		c.cShed.Inc()
		return server.JobState{}, false, &server.Unavailable{RetryAfter: ra}
	}
	id := fmt.Sprintf("job-%08d", c.nextID)
	c.nextID++
	jb := &cjob{st: server.JobState{ID: id, Spec: spec, Status: server.StatusQueued}, doneCh: make(chan struct{})}
	if err := c.ledger.Append(jb.st); err != nil {
		c.nextID--
		c.mu.Unlock()
		return server.JobState{}, false, err
	}
	c.jobs[id] = jb
	c.order = append(c.order, id)
	if spec.IdempotencyKey != "" {
		c.keys[spec.IdempotencyKey] = id
	}
	c.queue.push(spec.Tenant, jb)
	c.gQueue.Set(int64(c.queue.pending()))
	// Copied under c.mu: once it is released a dispatcher may already
	// have moved the job on.
	st := jb.st
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return st, true, nil
}

// retryAfterLocked derives the Retry-After hint from queue pressure and
// the measured mean job duration. Requires c.mu.
func (c *Coordinator) retryAfterLocked() int {
	c.ewmaMu.Lock()
	mean := c.jobSecs
	c.ewmaMu.Unlock()
	if mean <= 0 {
		mean = 1
	}
	secs := int(math.Ceil(mean * float64(c.queue.pending()+1) / float64(c.cfg.Jobs)))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

func (c *Coordinator) observeJobSeconds(secs float64) {
	c.ewmaMu.Lock()
	if c.jobSecs == 0 {
		c.jobSecs = secs
	} else {
		c.jobSecs = 0.7*c.jobSecs + 0.3*secs
	}
	c.ewmaMu.Unlock()
}

// Job returns a job's state by id.
func (c *Coordinator) Job(id string) (server.JobState, bool) {
	c.mu.Lock()
	jb, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return server.JobState{}, false
	}
	return jb.state(), true
}

// Jobs lists every known job in submission order.
func (c *Coordinator) Jobs() []server.JobState {
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	m := c.jobs
	c.mu.Unlock()
	out := make([]server.JobState, 0, len(ids))
	for _, id := range ids {
		out = append(out, m[id].state())
	}
	return out
}

// Cancel requests cancellation. Queued jobs cancel immediately (and
// refund their tenant's quota); running jobs cancel mid-merge, keeping
// the merged prefix; terminal jobs are left alone.
func (c *Coordinator) Cancel(id string) (server.JobState, bool) {
	c.mu.Lock()
	jb, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return server.JobState{}, false
	}
	jb.mu.Lock()
	switch {
	case jb.st.Status.Terminal():
		jb.mu.Unlock()
	case jb.st.Status == server.StatusQueued:
		tenant := jb.st.Spec.Tenant
		jb.st.Status = server.StatusCancelled
		jb.st.Error = errClientCancel.Error()
		st := jb.st
		close(jb.doneCh)
		jb.mu.Unlock()
		c.mu.Lock()
		if c.queue.remove(tenant, jb) {
			c.gQueue.Set(int64(c.queue.pending()))
		} else {
			c.queue.release(tenant)
		}
		c.mu.Unlock()
		c.persist(st)
	default: // running
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel(errClientCancel)
		}
	}
	return jb.state(), true
}

func (c *Coordinator) persist(st server.JobState) {
	if err := c.ledger.Append(st); err != nil {
		c.cfg.Logf("lggfed: ledger append for %s: %v", st.ID, err)
	}
}

// JournalPath exposes where a job's merged journal lives (the results
// stream and the fleet smoke test read it).
func (c *Coordinator) JournalPath(id string) string { return c.ledger.JournalPath(id) }

// dispatcher pops queued jobs fair-share and shards them until drain.
func (c *Coordinator) dispatcher() {
	defer c.wg.Done()
	for {
		jb, reign := c.pop()
		if jb == nil {
			return
		}
		c.executeJob(reign, jb)
	}
}

// pop returns the next job and the reign it was claimed in.
func (c *Coordinator) pop() (*cjob, context.Context) {
	for {
		c.mu.Lock()
		if c.draining || c.standby {
			// A demoted coordinator's dispatchers retire; a later
			// promotion starts fresh ones.
			c.mu.Unlock()
			return nil, nil
		}
		reign := c.reign
		if jb := c.queue.pop(); jb != nil {
			c.gQueue.Set(int64(c.queue.pending()))
			c.mu.Unlock()
			return jb, reign
		}
		c.mu.Unlock()
		select {
		case <-c.wake:
		case <-reign.Done():
			return nil, nil
		case <-c.stopc:
			return nil, nil
		}
	}
}

// finish moves a job terminal, refunds its quota and persists.
func (c *Coordinator) finish(jb *cjob, status server.JobStatus, errMsg string) {
	jb.mu.Lock()
	jb.cancel = nil // executeJob is returning
	if jb.st.Status.Terminal() {
		jb.mu.Unlock()
		return
	}
	jb.st.Status = status
	jb.st.Error = errMsg
	st := jb.st
	close(jb.doneCh)
	jb.mu.Unlock()
	c.mu.Lock()
	c.queue.release(st.Spec.Tenant)
	c.mu.Unlock()
	switch status {
	case server.StatusDone:
		c.cDone.Inc()
	case server.StatusFailed:
		c.cFailed.Inc()
	}
	c.persist(st)
	c.cfg.Logf("lggfed: %s → %s (%d/%d runs)", st.ID, status, st.Done, st.Total)
}

// runRange is one contiguous shard of a job.
type runRange struct {
	start, count int
}

// executeJob shards one job across the fleet, merges the returned
// ranges into the job's journal in global index order, and compacts the
// finished job into the result index. Its run context ends with reign.
func (c *Coordinator) executeJob(reign context.Context, jb *cjob) {
	jb.mu.Lock()
	if jb.st.Status.Terminal() { // cancelled while queued
		jb.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(reign)
	jb.cancel = cancel
	jb.st.Status = server.StatusRunning
	spec := jb.st.Spec
	id := jb.st.ID
	st := jb.st
	jb.mu.Unlock()
	defer cancel(nil)
	c.persist(st)
	c.gInflight.Add(1)
	defer c.gInflight.Add(-1)
	start := time.Now()

	g, err := c.cfg.FindGrid(spec.Grid)
	if err != nil {
		c.finish(jb, server.StatusFailed, err.Error())
		return
	}
	total := len(g.Jobs(spec.Config()))
	if total == 0 {
		c.finish(jb, server.StatusFailed, "grid enumerates zero runs")
		return
	}

	journal, prefix, err := sweep.OpenJournalResume(c.ledger.JournalPath(id), total)
	if err != nil {
		c.finish(jb, server.StatusFailed, err.Error())
		return
	}

	var (
		mergeMu sync.Mutex
		merged  = make([]sweep.Result, 0, total)
	)
	merged = append(merged, prefix...)
	merger := sweep.NewMerger(total, func(r sweep.Result) error {
		merged = append(merged, r)
		if err := journal.Append(r); err != nil {
			return err
		}
		jb.mu.Lock()
		jb.st.Done++
		countRecovery(&jb.st, r.Recovery, +1)
		jb.mu.Unlock()
		return nil
	})
	merger.Resume(len(prefix))

	jb.mu.Lock()
	jb.st.Total = total
	jb.st.Done = len(prefix)
	jb.st.Recovered, jb.st.Degraded, jb.st.Indeterminate = 0, 0, 0
	for _, r := range prefix {
		countRecovery(&jb.st, r.Recovery, +1)
	}
	jb.mu.Unlock()

	// The merged prefix is already durable; shard only what remains.
	var ranges []runRange
	for s := len(prefix); s < total; s += c.cfg.RangeRuns {
		n := c.cfg.RangeRuns
		if s+n > total {
			n = total - s
		}
		ranges = append(ranges, runRange{start: s, count: n})
	}

	// jobKey makes worker-side idempotency keys deterministic per
	// coordinator job, so a restarted (or freshly promoted) coordinator
	// with the same job id re-attaches to worker jobs it — or its failed
	// predecessor — already submitted instead of re-running them.
	jobKey := id
	if spec.IdempotencyKey != "" {
		jobKey = spec.IdempotencyKey
	}

	width := c.fleet.size()
	if width < 1 {
		width = 1
	}
	sem := make(chan struct{}, width)
	var (
		wg       sync.WaitGroup
		failMu   sync.Mutex
		firstErr error
	)
	for _, rg := range ranges {
		rg := rg
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rs, err := c.runRange(ctx, spec, jobKey, rg)
			if err != nil {
				failMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel(err) // one lost range fails the job; stop the rest
				}
				failMu.Unlock()
				return
			}
			mergeMu.Lock()
			err = merger.Add(rs)
			mergeMu.Unlock()
			if err != nil {
				failMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel(err)
				}
				failMu.Unlock()
				return
			}
			c.cRanges.Inc()
		}()
	}
	wg.Wait()

	runErr := firstErr
	if runErr == nil {
		mergeMu.Lock()
		runErr = merger.Close()
		mergeMu.Unlock()
	}
	if cerr := journal.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("journal close: %w", cerr)
	}
	c.observeJobSeconds(time.Since(start).Seconds())

	switch cause := context.Cause(ctx); {
	case runErr == nil:
		c.compact(jb, spec, merged)
		c.finish(jb, server.StatusDone, "")
	case errors.Is(cause, errClientCancel):
		c.finish(jb, server.StatusCancelled, errClientCancel.Error())
	case errors.Is(cause, errDrain), errors.Is(cause, errDemote):
		// Drain or demotion checkpoint: the journal holds the merged
		// prefix and worker-side range jobs keep running. Back to queued
		// for the next start, or for the winning primary (which mirrored
		// this job's state); either re-attaches to the worker jobs by
		// idempotency key.
		jb.mu.Lock()
		jb.st.Status = server.StatusQueued
		jb.cancel = nil
		st := jb.st
		jb.mu.Unlock()
		c.persist(st)
		c.cfg.Logf("lggfed: %s checkpointed at %d/%d runs (%v)", id, st.Done, st.Total, cause)
	default:
		c.finish(jb, server.StatusFailed, runErr.Error())
	}
}

// countRecovery adjusts a job state's recovery tallies.
func countRecovery(st *server.JobState, verdict string, delta int) {
	switch verdict {
	case "Recovered":
		st.Recovered += delta
	case "Degraded":
		st.Degraded += delta
	case "Indeterminate":
		st.Indeterminate += delta
	}
}

// rangeOutcome is one attempt's verdict.
type rangeOutcome struct {
	rs  []sweep.Result
	err error
	url string
	dur time.Duration
}

// runRange executes one shard with straggler work-stealing: the first
// attempt gets its worker's adaptive lease to finish; each lease expiry
// launches another attempt on a different worker and the first success
// wins. Failed attempts relaunch immediately on the next worker. The
// live-attempt cap is StealMax, widened by any attempts stuck on
// suspect or browned-out workers (a dying worker must not pin the range
// to itself); the total attempt budget is maxAttempts, and exhausting
// it fails the range (and hence the job).
func (c *Coordinator) runRange(ctx context.Context, spec server.JobSpec, jobKey string, rg runRange) ([]sweep.Result, error) {
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel() // losers stop streaming once a winner returns

	fleetSize := c.fleet.size()
	if fleetSize == 0 {
		return nil, fmt.Errorf("federation: no workers in the fleet")
	}
	maxAttempts := 2 * fleetSize
	if maxAttempts < 3 {
		maxAttempts = 3
	}
	// Buffered to the attempt budget: an abandoned attempt's send never
	// blocks, so no goroutine outlives the range by more than its own
	// HTTP teardown.
	outcome := make(chan rangeOutcome, maxAttempts)
	tried := make(map[string]bool)
	liveOn := make(map[string]int)
	attempts, live := 0, 0
	var lastErr error

	// launch starts one more attempt and returns the chosen worker's
	// adaptive lease (0 when no worker was found).
	launch := func() time.Duration {
		w, lease := c.fleet.pick(tried, rg.count)
		if w == nil {
			return 0
		}
		tried[w.url] = true
		attempts++
		live++
		liveOn[w.url]++
		go func() {
			began := time.Now()
			rs, err := c.attemptRange(rctx, w, spec, jobKey, rg)
			// Released here, not in the channel reader: an abandoned
			// attempt's goroutine outlives the range, and its slot must
			// count against the worker's capacity until it resolves.
			c.fleet.release(w.url)
			outcome <- rangeOutcome{rs: rs, err: err, url: w.url, dur: time.Since(began)}
		}()
		return lease
	}
	leaseDur := launch()
	if leaseDur <= 0 {
		leaseDur = c.cfg.Lease
	}
	lease := time.NewTimer(leaseDur)
	defer lease.Stop()

	for {
		select {
		case o := <-outcome:
			live--
			liveOn[o.url]--
			if o.err == nil {
				c.fleet.success(o.url, rg.count, o.dur)
				return o.rs, nil
			}
			lastErr = fmt.Errorf("range %d+%d on %s: %w", rg.start, rg.count, o.url, o.err)
			if rctx.Err() != nil {
				return nil, lastErr
			}
			c.fleet.failure(o.url)
			c.cfg.Logf("lggfed: %v", lastErr)
			if attempts >= maxAttempts {
				if live == 0 {
					return nil, fmt.Errorf("federation: range abandoned after %d attempts: %w", attempts, lastErr)
				}
				continue // a steal is still in flight; it may yet win
			}
			c.cRetried.Inc()
			if d := launch(); d > 0 {
				lease.Stop()
				lease.Reset(d)
			}
		case <-lease.C:
			next := c.cfg.Lease
			if live < c.cfg.StealMax+c.fleet.stuck(liveOn) && attempts < maxAttempts {
				c.cStolen.Inc()
				c.cfg.Logf("lggfed: range %d+%d past its lease, re-leasing", rg.start, rg.count)
				if d := launch(); d > 0 {
					next = d
				}
			}
			lease.Reset(next)
		case <-rctx.Done():
			return nil, rctx.Err()
		}
	}
}

// attemptRange runs one shard on one worker: submit the range job
// (deterministic idempotency key → retries, coordinator restarts and
// failovers re-attach, never duplicate), follow its results stream
// (served until the job is terminal) and sanity-check the lines. Only a
// short stream costs a status call; a done job's stream is complete, so
// it is then read again. A context cancelled mid-stream (a steal won,
// or the job was cancelled) hands the abandoned worker-side job to the
// retrying reaper — except on drain, where worker jobs survive by
// design so the next coordinator re-attaches to them.
func (c *Coordinator) attemptRange(ctx context.Context, w *worker, spec server.JobSpec, jobKey string, rg runRange) ([]sweep.Result, error) {
	spec.RunStart, spec.RunCount = rg.start, rg.count
	spec.IdempotencyKey = fmt.Sprintf("%s/%d+%d", jobKey, rg.start, rg.count)
	st, err := w.cli.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	workerJob := st.ID
	rs, err := w.cli.Results(ctx, workerJob)
	if err != nil {
		// Worker jobs outlive a drain or a demotion on purpose: the next
		// primary re-attaches to them by idempotency key.
		cause := context.Cause(ctx)
		if ctx.Err() != nil && !errors.Is(cause, errDrain) && !errors.Is(cause, errDemote) {
			go c.reap(w, workerJob)
		}
		return nil, fmt.Errorf("results: %w", err)
	}
	if len(rs) < rg.count {
		if st, err = w.cli.Job(ctx, workerJob); err != nil {
			return nil, fmt.Errorf("status after a short stream: %w", err)
		}
		if st.Status != server.StatusDone {
			return nil, fmt.Errorf("worker job %s ended %s: %s", workerJob, st.Status, st.Error)
		}
		if rs, err = w.cli.Results(ctx, workerJob); err != nil {
			return nil, fmt.Errorf("results of a done job: %w", err)
		}
	}
	if len(rs) != rg.count {
		return nil, fmt.Errorf("worker returned %d results for a %d-run range", len(rs), rg.count)
	}
	for i, r := range rs {
		if r.Index != rg.start+i {
			return nil, fmt.Errorf("worker result %d has index %d, want %d (determinism contract violated)", i, r.Index, rg.start+i)
		}
	}
	return rs, nil
}

// reap cancels an abandoned worker-side job (its attempt lost a steal
// race or the client cancelled the coordinator job) with retries and
// doubling backoff; a job the reaper finally gives up on is surfaced on
// lggfed_reap_failures_total instead of silently leaking worker
// capacity. A coordinator drain aborts the loop: worker jobs survive a
// drain on purpose, so the restarted coordinator re-attaches to them by
// idempotency key.
func (c *Coordinator) reap(w *worker, workerJob string) {
	backoff := c.cfg.ReapBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.ReapAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-c.stopc:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_, err := w.cli.Cancel(ctx, workerJob)
		cancel()
		if err == nil {
			return
		}
		var se *client.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return // already gone — reaped is reaped
		}
		lastErr = err
	}
	c.cReapFail.Inc()
	c.cfg.Logf("lggfed: reap of worker job %s on %s failed after %d attempts: %v",
		workerJob, w.url, c.cfg.ReapAttempts, lastErr)
}

// membershipLoop ages the fleet: each jittered round sweeps the dead,
// pings the stale (fleet.sweep) and refreshes the fleet gauges,
// including the per-worker health export.
func (c *Coordinator) membershipLoop() {
	defer c.wg.Done()
	tick := c.cfg.SuspectAfter / 8
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick > 10*time.Second {
		tick = 10 * time.Second
	}
	for {
		select {
		case <-c.stopc:
			return
		case <-time.After(c.jitter(tick)):
		}
		c.membershipRound()
	}
}

func (c *Coordinator) membershipRound() {
	dead, ping := c.fleet.sweep()
	for _, url := range dead {
		c.cfg.Logf("lggfed: worker %s unheard from for %v, aged out of the fleet", url, c.cfg.DeadAfter)
	}
	for _, w := range ping {
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
			err := w.cli.Ping(ctx)
			cancel()
			c.fleet.pinged(w.url, err == nil)
		}(w)
	}
	c.updateFleetMetrics()
}

// updateFleetMetrics refreshes the fleet gauges, including one gauge
// set per worker (suffixed with the sanitised worker address) so
// brown-outs and adaptive leases are observable per worker.
func (c *Coordinator) updateFleetMetrics() {
	view := c.fleet.view()
	c.gFleet.Set(int64(len(view)))
	var suspect, browned int64
	for _, m := range view {
		sfx := metricSuffix(m.URL)
		state, brown := int64(1), int64(0)
		if m.State != stateAlive {
			state = 0
			suspect++
		}
		if m.Health.BrownedOut {
			brown = 1
			browned++
		}
		c.reg.Gauge("lggfed_worker_state_"+sfx, "Worker liveness (1 alive, 0 suspect).").Set(state)
		c.reg.Gauge("lggfed_worker_browned_out_"+sfx, "Worker brown-out (1 browned out).").Set(brown)
		c.reg.Gauge("lggfed_worker_milli_runs_per_sec_"+sfx, "EWMA service rate in milli-runs per second.").Set(int64(m.Health.EWMARunsPerSec * 1000))
		c.reg.Gauge("lggfed_worker_failures_"+sfx, "Failed range attempts on this worker.").Set(m.Health.Failures)
		c.reg.Gauge("lggfed_worker_lease_ms_"+sfx, "Adaptive straggler lease in milliseconds.").Set(m.Health.LeaseMS)
	}
	c.gSuspect.Set(suspect)
	c.gBrowned.Set(browned)
}

// metricSuffix folds a worker URL into the Prometheus name charset:
// the scheme is dropped and every rune outside [a-zA-Z0-9_:] maps
// to '_'.
func metricSuffix(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		url = url[i+3:]
	}
	var b strings.Builder
	for _, r := range url {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
	}
	return b.String()
}

// compact distils a finished job into per-cell summaries in the result
// index. Compaction failures are logged, not fatal — the merged journal
// remains the source of truth.
func (c *Coordinator) compact(jb *cjob, spec server.JobSpec, merged []sweep.Result) {
	st := jb.state()
	n, err := c.rstore.compact(st.ID, spec, merged, c.ledger.RemoveJournal)
	if err != nil {
		c.cfg.Logf("lggfed: compact %s: %v", st.ID, err)
		return
	}
	c.cCells.Add(int64(n))
}

// Draining reports whether admission is closed.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain gracefully stops the coordinator: admission closes immediately,
// queued jobs stay durably queued, in-flight jobs get until ctx's
// deadline before being checkpointed mid-merge (their journals keep the
// merged prefix; worker-side range jobs keep running and are re-attached
// by idempotency key on the next start). A standby's follow loop stops
// the same way.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return fmt.Errorf("federation: already draining")
	}
	c.draining = true
	c.mu.Unlock()
	close(c.stopc)

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		c.mu.Lock()
		c.endReign(errDrain)
		c.mu.Unlock()
		<-done
	}
	close(c.haltc)
	if err := c.rstore.close(); err != nil {
		c.ledger.Close()
		return err
	}
	return c.ledger.Close()
}
