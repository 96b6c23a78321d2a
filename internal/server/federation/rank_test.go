package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// TestRankOrderedFailover is the multi-standby tentpole scenario: a
// primary and two standbys ranked 1 and 2. When the primary dies
// mid-sweep, rank 1 promotes while rank 2 — which watches BOTH the
// primary and rank 1 — keeps following and starts mirroring rank 1's
// reign. When rank 1 then dies too, rank 2 promotes past every epoch it
// observed and finishes the job byte-identical to an unfailed run.
func TestRankOrderedFailover(t *testing.T) {
	spec := server.JobSpec{Grid: "unit", Seeds: 24, Horizon: 150}
	ref := singleDaemonJournal(t, spec)

	// Slow the runs down so the job outlives two failover windows.
	var urls []string
	for i := 0; i < 2; i++ {
		_, url := newWorker(t, func() { time.Sleep(100 * time.Millisecond) })
		urls = append(urls, url)
	}
	primary, primaryTS := newCoordinator(t, Config{RangeRuns: 2}, urls...)

	rank1, rank1TS := newCoordinator(t, Config{
		Standby:       true,
		Primary:       primaryTS.URL,
		Rank:          1,
		Heartbeat:     40 * time.Millisecond,
		FailoverAfter: 300 * time.Millisecond,
		RangeRuns:     2,
	})
	reg2 := metrics.NewRegistry()
	rank2, _ := newCoordinator(t, Config{
		Standby:       true,
		Primary:       primaryTS.URL,
		Watch:         []string{rank1TS.URL},
		Rank:          2,
		Heartbeat:     40 * time.Millisecond,
		FailoverAfter: 300 * time.Millisecond,
		RangeRuns:     2,
		Registry:      reg2,
	})
	if got := rank2.Status().Rank; got != 2 {
		t.Fatalf("rank 2 coordinator reports rank %d", got)
	}

	st, created, err := primary.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}

	// Wait until the sweep is in flight AND both standbys have mirrored
	// the job non-terminal from the primary's heartbeats.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("standbys never mirrored the in-flight job")
		}
		pst, _ := primary.Job(st.ID)
		s1, ok1 := rank1.Job(st.ID)
		s2, ok2 := rank2.Job(st.ID)
		if pst.Done > 0 && !pst.Status.Terminal() &&
			ok1 && !s1.Status.Terminal() && ok2 && !s2.Status.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary's frontend. Rank 1 must promote; rank 2 must NOT
	// (rank 1 is alive in its upstream chain).
	primaryTS.Close()
	promoted := time.Now().Add(20 * time.Second)
	for rank1.Standby() {
		if time.Now().After(promoted) {
			t.Fatal("rank 1 never promoted itself")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rank 2 proves it retargeted mirroring onto rank 1 by observing
	// rank 1's epoch (≥ 2); only then is killing rank 1 meaningful.
	mirrored := time.Now().Add(20 * time.Second)
	for {
		rank2.mu.Lock()
		me := rank2.mirrorEpoch
		rank2.mu.Unlock()
		if me >= 2 {
			break
		}
		if time.Now().After(mirrored) {
			t.Fatal("rank 2 never mirrored rank 1's reign")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rank2.Standby() {
		t.Fatal("rank 2 promoted itself while rank 1 was alive")
	}
	if jst, _ := rank1.Job(st.ID); jst.Status.Terminal() {
		t.Fatal("job finished before rank 1 could be killed; slow the runs down")
	}

	// Kill rank 1 too: with the whole upstream chain silent, rank 2
	// assumes leadership past every epoch it has seen.
	rank1TS.Close()
	promoted = time.Now().Add(20 * time.Second)
	for rank2.Standby() {
		if time.Now().After(promoted) {
			t.Fatal("rank 2 never promoted itself after rank 1 died")
		}
		time.Sleep(5 * time.Millisecond)
	}

	final := waitTerminal(t, rank2, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("resumed job ended %s: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(rank2.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("post-double-failover merged journal differs from the unfailed run")
	}
	if v := reg2.Gauge(MetricEpoch, "").Value(); v < 3 {
		t.Fatalf("rank 2 epoch = %d, want ≥ 3 (it observed rank 1's reign)", v)
	}
	if cs := rank2.Status(); cs.Role != server.RolePrimary || cs.Rank != 2 {
		t.Fatalf("rank 2 status = role %q rank %d, want primary/2", cs.Role, cs.Rank)
	}
}

// TestPromotedPrimaryDemotesToHigherAuthority is the split-brain
// regression test: an acting primary that sees a watched coordinator
// claim the primary role at a higher epoch must step down — refuse
// admission as a standby, checkpoint (not lose) its running jobs,
// re-mirror from the winner — and, if the winner later dies, promote
// again past the winner's epoch and finish the job byte-identically.
func TestPromotedPrimaryDemotesToHigherAuthority(t *testing.T) {
	spec := server.JobSpec{Grid: "unit", Seeds: 24, Horizon: 150}
	ref := singleDaemonJournal(t, spec)

	var authoritative atomic.Bool
	winner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/coordinator/status" || !authoritative.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(server.CoordStatus{
			Epoch: 5,
			Role:  server.RolePrimary,
			Rank:  0,
			Jobs: []server.JobState{{
				ID:     "job-00000777",
				Spec:   server.JobSpec{Grid: "unit", Seeds: 1},
				Status: server.StatusDone,
			}},
		})
	}))
	defer winner.Close()

	var urls []string
	for i := 0; i < 2; i++ {
		_, url := newWorker(t, func() { time.Sleep(100 * time.Millisecond) })
		urls = append(urls, url)
	}
	reg := metrics.NewRegistry()
	c, _ := newCoordinator(t, Config{
		Rank:          1,
		Watch:         []string{winner.URL},
		Heartbeat:     30 * time.Millisecond,
		FailoverAfter: 300 * time.Millisecond,
		RangeRuns:     2,
		Registry:      reg,
	}, urls...)

	st, created, err := c.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never got in flight")
		}
		jst, _ := c.Job(st.ID)
		if jst.Done > 0 && !jst.Status.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The watched coordinator starts claiming primacy at epoch 5 > 1:
	// the guard loop must demote us.
	authoritative.Store(true)
	demoted := time.Now().Add(20 * time.Second)
	for !c.Standby() {
		if time.Now().After(demoted) {
			t.Fatal("acting primary never demoted itself")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Counter(MetricDemotions, "").Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricDemotions, v)
	}

	// No split-brain dispatch: admission now refuses as a standby.
	_, _, err = c.Admit(server.JobSpec{Grid: "unit", Seeds: 1, Horizon: 150}, "")
	var u *server.Unavailable
	if !errors.As(err, &u) || !u.Standby {
		t.Fatalf("demoted coordinator admitted a job (err=%v), want standby refusal", err)
	}

	// The running job was checkpointed back to queued, not lost or
	// failed — its merged prefix stays durable for the next promotion.
	checkpointed := time.Now().Add(20 * time.Second)
	for {
		jst, ok := c.Job(st.ID)
		if !ok {
			t.Fatal("job vanished across the demotion")
		}
		if jst.Status == server.StatusQueued {
			break
		}
		if jst.Status.Terminal() {
			t.Fatalf("job ended %s across the demotion, want queued checkpoint", jst.Status)
		}
		if time.Now().After(checkpointed) {
			t.Fatalf("job stuck in %s after demotion, want queued", jst.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Re-mirror: the winner's job ledger folds into ours while we follow.
	remirrored := time.Now().Add(20 * time.Second)
	for {
		if _, ok := c.Job("job-00000777"); ok {
			break
		}
		if time.Now().After(remirrored) {
			t.Fatal("demoted coordinator never mirrored the winner's ledger")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The winner dies; we must promote again PAST its epoch and finish
	// the checkpointed job with byte-identical output.
	winner.Close()
	repromoted := time.Now().Add(20 * time.Second)
	for c.Standby() {
		if time.Now().After(repromoted) {
			t.Fatal("demoted coordinator never re-promoted after the winner died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Gauge(MetricEpoch, "").Value(); v < 6 {
		t.Fatalf("re-promoted epoch = %d, want ≥ 6 (the winner held epoch 5)", v)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("checkpointed job ended %s: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("post-demotion merged journal differs from the unfailed run")
	}
}

// TestCapacityWeightedDispatch: with declared capacities 4:1, five
// consecutive placements (none released) land 4:1 — each worker absorbs
// outstanding ranges in proportion to its effective rate.
func TestCapacityWeightedDispatch(t *testing.T) {
	w1, w2 := "http://192.0.2.1:1", "http://192.0.2.2:1"
	c, _ := newCoordinator(t, Config{}, w1, w2)
	c.fleet.join(w1, 4)
	c.fleet.join(w2, 1)
	counts := map[string]int{}
	for i := 0; i < 5; i++ {
		w, _ := c.fleet.pick(nil, 8)
		if w == nil {
			t.Fatal("pick returned nil with two live workers")
		}
		counts[w.url]++
	}
	if counts[w1] != 4 || counts[w2] != 1 {
		t.Fatalf("placement = %v, want 4:1 by declared capacity", counts)
	}
	c.fleet.release(w1)
	c.fleet.mu.Lock()
	out := c.fleet.members[w1].outstanding
	c.fleet.mu.Unlock()
	if out != 3 {
		t.Fatalf("outstanding after release = %d, want 3", out)
	}
}

// TestJoinDeclaresCapacity: the join payload's capacity hint lands in
// the fleet table and its export, a later join without one clears it,
// and negative hints are rejected.
func TestJoinDeclaresCapacity(t *testing.T) {
	_, wurl := newWorker(t, nil)
	c, ts := newCoordinator(t, Config{})

	body := fmt.Sprintf(`{"url":%q,"capacity_runs_per_sec":12.5}`, wurl)
	resp, err := http.Post(ts.URL+"/v1/fleet/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join with capacity answered %d, want 200", resp.StatusCode)
	}
	if r := c.fleet.effectiveRate(wurl); r != 12.5 {
		t.Fatalf("effectiveRate = %v, want declared 12.5", r)
	}
	found := false
	for _, m := range c.FleetMembers() {
		if m.URL == wurl && m.Health.DeclaredRunsPerSec == 12.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("declared capacity missing from the fleet export")
	}

	// A worker restarted without -capacity re-joins with none: its old
	// dispatch weight must not outlive the declaration.
	resp, err = http.Post(ts.URL+"/v1/fleet/join", "application/json", strings.NewReader(fmt.Sprintf(`{"url":%q}`, wurl)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join without capacity answered %d, want 200", resp.StatusCode)
	}
	if r := c.fleet.effectiveRate(wurl); r != 0 {
		t.Fatalf("effectiveRate after a capacity-less join = %v, want 0", r)
	}
	for _, m := range c.FleetMembers() {
		if m.URL == wurl && m.Health.DeclaredRunsPerSec != 0 {
			t.Fatalf("fleet export still declares %v runs/sec", m.Health.DeclaredRunsPerSec)
		}
	}

	bad := fmt.Sprintf(`{"url":%q,"capacity_runs_per_sec":-1}`, wurl)
	resp, err = http.Post(ts.URL+"/v1/fleet/join", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative capacity answered %d, want 400", resp.StatusCode)
	}
}

// TestDeclaredCapacityFeedsLeases: a declared capacity replaces the
// cold-start lease ceiling, and observation above the declaration wins.
func TestDeclaredCapacityFeedsLeases(t *testing.T) {
	h := testFleet(newVClock(), HealthConfig{})
	h.observe("w")
	if got := h.lease("w", 8); got != time.Minute {
		t.Fatalf("cold-start lease = %v, want the 1m ceiling", got)
	}
	h.join("w", 4)
	if got := h.lease("w", 8); got != 6*time.Second {
		t.Fatalf("declared-capacity lease = %v, want 3·8/4 = 6s", got)
	}
	if r := h.effectiveRate("w"); r != 4 {
		t.Fatalf("effectiveRate = %v, want declared 4", r)
	}
	h.success("w", 80, time.Second) // observed 80 runs/sec > declared
	if r := h.effectiveRate("w"); r != 80 {
		t.Fatalf("effectiveRate = %v, want observed 80", r)
	}
}
