package federation

import (
	"context"
	"sync"
	"time"

	"repro/internal/server"
)

// Standby mode: warm coordinators that tail the primary and take over —
// in a fixed rank order — when it dies.
//
// Every coordinator has a fixed Rank (0 = the configured primary) and a
// standby monitors its whole upstream chain: the primary plus every
// standby ranked ahead of it. The follow loop polls each upstream's
// /v1/coordinator/status at a jittered Heartbeat cadence. Any upstream
// currently claiming the primary role is mirrored: its job list folds
// into the standby's own fsynced ledger (so a promotion — or a standby
// restart — starts from a durable copy) and its fleet view merges into
// the standby's fleet table. A standby promotes itself only when
// EVERY upstream has been silent for FailoverAfter — so with the
// primary dead but rank 1 alive, rank 2 keeps following (and starts
// mirroring rank 1 the moment it claims the role) instead of racing it
// for leadership. No consensus protocol: the rank order is the arbiter.
//
// Promotion preserves the byte-identity contract without copying any
// journal bytes. The standby re-merges each resumed job from its own
// (empty) journal prefix, re-submitting every range with the same
// deterministic idempotency keys the primary used — `jobKey/start+count`
// with the same job IDs, mirrored from the primary. Ranges the fleet
// already finished for the dead primary return their recorded results
// instantly via idempotent re-attach; ranges still running are joined,
// not duplicated; ranges never submitted run fresh. The k-way merge by
// global run index then reconstitutes exactly the byte stream an
// unfailed run would have produced.
//
// A healed partition can leave two coordinators acting primary. The
// guard loop resolves it: an acting primary keeps polling its upstream
// chain, and on seeing another coordinator claim the role with a higher
// epoch — or the same epoch and a lower rank — it demotes itself back
// to standby (demote), checkpointing running jobs exactly as a drain
// would and re-entering the follow loop. Worker-side range jobs keep
// running through the demotion; the surviving primary re-attaches to
// them by idempotency key, so no admitted work is lost and the merged
// bytes stay identical.

// followLoop is a standby's main loop: poll every upstream, mirror the
// live primary claimant, and promote only when the whole upstream chain
// has gone quiet. Runs until promotion or drain.
func (c *Coordinator) followLoop() {
	defer c.wg.Done()
	last := make([]time.Time, len(c.upstreams))
	now := c.cfg.Now()
	for i := range last {
		last[i] = now
	}
	type beat struct {
		st server.CoordStatus
		ok bool
	}
	for {
		select {
		case <-c.stopc:
			return
		case <-time.After(c.jitter(c.cfg.Heartbeat)):
		}
		// Upstreams are polled concurrently — a chain of hung
		// coordinators must cost one failover window, not one per rank.
		// A poll outstanding longer than the window is a miss by
		// definition, so the window doubles as the request timeout.
		beats := make([]beat, len(c.upstreams))
		var wg sync.WaitGroup
		for i, up := range c.upstreams {
			wg.Add(1)
			go func(i int, up *upstream) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FailoverAfter)
				st, err := up.cli.CoordinatorStatus(ctx)
				cancel()
				beats[i] = beat{st: st, ok: err == nil}
			}(i, up)
		}
		wg.Wait()

		mirrored := false
		allSilent := true
		for i := range beats {
			if !beats[i].ok {
				c.cBeatsMissed.Inc()
				if c.cfg.Now().Sub(last[i]) < c.cfg.FailoverAfter {
					allSilent = false
				}
				continue
			}
			last[i] = c.cfg.Now()
			allSilent = false
			c.noteEpoch(beats[i].st.Epoch)
			// Mirror the best-ranked upstream currently claiming the
			// primary role; a live upstream still in standby proves
			// liveness but carries no ledger of record.
			if !mirrored && beats[i].st.Role == server.RolePrimary {
				c.mirror(beats[i].st)
				mirrored = true
			}
		}
		if allSilent {
			c.promote()
			return
		}
	}
}

// noteEpoch tracks the highest leadership epoch observed anywhere in
// the chain, so a promotion always advances past every reign this
// coordinator has ever seen — not just the one it last mirrored.
func (c *Coordinator) noteEpoch(epoch int64) {
	c.mu.Lock()
	if epoch > c.maxSeenEpoch {
		c.maxSeenEpoch = epoch
	}
	c.mu.Unlock()
}

// mirror folds one primary heartbeat into the standby: the fleet view
// into the fleet table (liveness ages only — health scores are not
// mirrored) and every job into the standby's own ledger. In-memory
// state tracks every change; the ledger is appended only on
// Status/Error/Total transitions — not per-run Done increments — so
// mirroring a busy primary does not fsync per result line.
func (c *Coordinator) mirror(st server.CoordStatus) {
	for _, url := range c.fleet.merge(st.Fleet) {
		c.cfg.Logf("lggfed: worker %s joined from the primary's fleet view", url)
	}
	c.gFleet.Set(int64(c.fleet.size()))
	c.mu.Lock()
	c.mirrorEpoch = st.Epoch
	c.mu.Unlock()
	for _, js := range st.Jobs {
		c.mirrorJob(js)
	}
}

func (c *Coordinator) mirrorJob(js server.JobState) {
	c.mu.Lock()
	jb, known := c.jobs[js.ID]
	if !known {
		jb = &cjob{st: js, doneCh: make(chan struct{})}
		if js.Status.Terminal() {
			close(jb.doneCh)
		}
		if n, ok := jobIDNumber(js.ID); ok && n >= c.nextID {
			c.nextID = n + 1
		}
		if js.Spec.IdempotencyKey != "" {
			c.keys[js.Spec.IdempotencyKey] = js.ID
		}
		c.jobs[js.ID] = jb
		c.order = append(c.order, js.ID)
		c.mu.Unlock()
		c.persist(js)
		return
	}
	c.mu.Unlock()
	jb.mu.Lock()
	transition := jb.st.Status != js.Status || jb.st.Error != js.Error || jb.st.Total != js.Total
	wasTerminal := jb.st.Status.Terminal()
	changed := transition || jb.st.Done != js.Done ||
		jb.st.Recovered != js.Recovered || jb.st.Degraded != js.Degraded ||
		jb.st.Indeterminate != js.Indeterminate
	if changed {
		jb.st = js
	}
	if !wasTerminal && js.Status.Terminal() {
		close(jb.doneCh)
	}
	jb.mu.Unlock()
	if transition {
		c.persist(js)
	}
}

// promote flips a standby into the primary role: the epoch advances
// past every one this coordinator has seen (mirrored or merely
// observed), every non-terminal job is re-queued, the dispatchers
// start, and — when there is an upstream chain to defer to — so does
// the guard loop that will demote us if a better claimant reappears.
// Draining or already-promoted coordinators ignore the call.
func (c *Coordinator) promote() {
	c.mu.Lock()
	if c.draining || !c.standby {
		c.mu.Unlock()
		return
	}
	base := c.mirrorEpoch
	if c.maxSeenEpoch > base {
		base = c.maxSeenEpoch
	}
	c.epoch = base + 1
	epoch := c.epoch
	// The metrics go out before the role flips under c.mu: whoever sees
	// Standby() == false must also see the new epoch.
	c.gEpoch.Set(epoch)
	c.gStandby.Set(0)
	c.cFailovers.Inc()
	c.standby = false
	c.reign, c.endReign = context.WithCancelCause(context.Background())
	var requeued []server.JobState
	for _, id := range c.order {
		jb := c.jobs[id]
		jb.mu.Lock()
		if !jb.st.Status.Terminal() {
			jb.st.Status = server.StatusQueued
			c.queue.push(jb.st.Spec.Tenant, jb)
			requeued = append(requeued, jb.st)
		}
		jb.mu.Unlock()
	}
	c.gQueue.Set(int64(c.queue.pending()))
	c.mu.Unlock()

	for _, st := range requeued {
		c.persist(st)
	}
	c.wg.Add(c.cfg.Jobs)
	for i := 0; i < c.cfg.Jobs; i++ {
		go c.dispatcher()
	}
	if len(c.upstreams) > 0 {
		c.wg.Add(1)
		go c.guardLoop()
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
	c.cfg.Logf("lggfed: upstream chain unresponsive for %v; rank %d assuming leadership at epoch %d (%d jobs resumed)",
		c.cfg.FailoverAfter, c.cfg.Rank, epoch, len(requeued))
}

// guardLoop runs while this coordinator is acting primary, polling the
// upstream chain for a better claimant. Another coordinator reporting
// the primary role with a strictly higher epoch — or the same epoch and
// a lower rank (the tie two sides of a healed partition can reach) —
// wins, and this coordinator demotes itself. The loop exits on drain or
// after one demotion (demote restarts the follow loop, and a later
// promotion starts a fresh guard).
func (c *Coordinator) guardLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopc:
			return
		case <-time.After(c.jitter(c.cfg.Heartbeat)):
		}
		if c.Standby() {
			return
		}
		for _, up := range c.upstreams {
			ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
			st, err := up.cli.CoordinatorStatus(ctx)
			cancel()
			if err != nil {
				continue
			}
			c.noteEpoch(st.Epoch)
			if st.Role != server.RolePrimary {
				continue
			}
			c.mu.Lock()
			mine := c.epoch
			c.mu.Unlock()
			if st.Epoch > mine || (st.Epoch == mine && st.Rank < c.cfg.Rank) {
				c.demote(up.url, st)
				return
			}
		}
	}
}

// demote steps an acting primary back down to standby after the guard
// loop found a better claimant: admission flips to the standby refusal,
// the dispatchers retire (reign), the dispatch queue is rebuilt empty,
// and every running job is checkpointed with errDemote — journals keep
// their merged prefix and worker-side range jobs keep running, to be
// re-attached by idempotency key (by the winner now, by us if we are
// ever promoted again). The follow loop restarts, mirroring the winner.
func (c *Coordinator) demote(winner string, st server.CoordStatus) {
	c.mu.Lock()
	if c.draining || c.standby {
		c.mu.Unlock()
		return
	}
	c.gStandby.Set(1)
	c.cDemotions.Inc()
	c.standby = true
	if st.Epoch > c.maxSeenEpoch {
		c.maxSeenEpoch = st.Epoch
	}
	myEpoch := c.epoch
	c.endReign(errDemote)
	// A fresh queue, not a drained one: every queued job's state is
	// already durable and mirrored by the winner; local dispatch simply
	// stops claiming it. release() guards against underflow, so quota
	// refunds from still-finishing jobs stay safe against the rebuild.
	c.queue = newTenantQueue(c.cfg.TenantQuota, c.cfg.QueueDepth)
	c.gQueue.Set(0)
	c.mu.Unlock()
	c.cfg.Logf("lggfed: %s claims primary at epoch %d rank %d, ahead of our epoch %d rank %d; stepping down to standby",
		winner, st.Epoch, st.Rank, myEpoch, c.cfg.Rank)
	c.wg.Add(1)
	go c.followLoop()
}
