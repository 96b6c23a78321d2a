package federation

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// vclock is the injectable clock for fleet-table tests: time only moves
// when the test says so, so suspicion and brown-out windows are exact
// instead of sleep-raced.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock { return &vclock{t: time.Unix(1000, 0)} }

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testFleet is a table on clk with the coordinator's default windows: a
// 1m lease ceiling, suspicion at 75s and death at 150s.
func testFleet(clk *vclock, h HealthConfig) *fleet {
	return newFleet(Config{
		Lease:        time.Minute,
		SuspectAfter: 75 * time.Second,
		DeadAfter:    150 * time.Second,
		RangeRuns:    8,
		Health:       h,
		Now:          clk.now,
	})
}

// The helpers below read single facts off the table under its lock.

func (f *fleet) observe(url string) bool {
	added, _, err := f.join(url, 0)
	if err != nil {
		panic(err)
	}
	return added
}

func (f *fleet) suspected(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.members[url]
	return w != nil && f.now().Sub(w.lastSeen) >= f.suspectAfter
}

func (f *fleet) unhealthyNow(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.members[url]
	return w != nil && w.brownedOut(f.now())
}

func (f *fleet) available(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.members[url]
	return w != nil && w.claim(f.now())
}

func (f *fleet) lease(url string, runs int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaseLocked(f.members[url], runs)
}

func (f *fleet) effectiveRate(url string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[url].effectiveRate()
}

func (f *fleet) snapshot(url string) server.WorkerHealth {
	for _, m := range f.view() {
		if m.URL == url {
			return m.Health
		}
	}
	return server.WorkerHealth{}
}

func (f *fleet) brownedOutCount() int {
	n := 0
	for _, m := range f.view() {
		if m.Health.BrownedOut {
			n++
		}
	}
	return n
}

func (f *fleet) sweepDead() []string {
	dead, _ := f.sweep()
	return dead
}

func TestMembershipSuspicionAndAgeOut(t *testing.T) {
	clk := newVClock()
	m := testFleet(clk, HealthConfig{})
	if !m.observe("http://w1") {
		t.Fatal("first observe did not report a new member")
	}
	if m.observe("http://w1") {
		t.Fatal("re-observe reported the member as new")
	}

	clk.advance(60 * time.Second)
	if v := m.view(); v[0].State != stateAlive {
		t.Fatalf("at 60s the member is %q, want alive until 75s", v[0].State)
	}
	if m.suspected("http://w1") {
		t.Fatal("suspected before the threshold")
	}

	clk.advance(20 * time.Second) // 80s without contact
	if v := m.view(); v[0].State != stateSuspect {
		t.Fatalf("at 80s the member is %q, want suspect", v[0].State)
	}
	if !m.suspected("http://w1") {
		t.Fatal("not suspected past the threshold")
	}
	dead, ping := m.sweep()
	if len(dead) != 0 {
		t.Fatalf("swept %v before the death threshold", dead)
	}
	// A stale member gets one liveness ping at a time.
	if len(ping) != 1 || ping[0].url != "http://w1" {
		t.Fatalf("sweep claimed pings %v, want one for http://w1", ping)
	}
	if _, again := m.sweep(); len(again) != 0 {
		t.Fatal("a second ping was claimed while one is in flight")
	}

	// Contact — here an answered ping — clears suspicion.
	m.pinged("http://w1", true)
	if v := m.view(); v[0].State != stateAlive {
		t.Fatalf("after fresh contact the member is %q, want alive", v[0].State)
	}

	clk.advance(150 * time.Second)
	if dead := m.sweepDead(); len(dead) != 1 || dead[0] != "http://w1" {
		t.Fatalf("sweepDead = %v, want [http://w1]", dead)
	}
	if m.size() != 0 {
		t.Fatalf("member survived its own death: size %d", m.size())
	}
}

// TestMembershipGossipConvergesAndAgesOut drives two fleet tables with
// no seed overlap through exchanges of their views — the merge a
// standby applies to each primary heartbeat — on a virtual clock: they
// converge on the union, a merged age keeps a live worker fresh on the
// table that never talks to it directly, and a departed worker ages out
// of BOTH views within the suspicion→death window, without being
// resurrected by later merges.
func TestMembershipGossipConvergesAndAgesOut(t *testing.T) {
	clk := newVClock()
	a := testFleet(clk, HealthConfig{})
	b := testFleet(clk, HealthConfig{})
	a.observe("http://w1")
	b.observe("http://w2")

	exchange := func() {
		av, bv := a.view(), b.view()
		a.merge(bv)
		b.merge(av)
	}
	exchange()
	if a.size() != 2 || b.size() != 2 {
		t.Fatalf("after one exchange sizes are %d/%d, want 2/2", a.size(), b.size())
	}
	for _, m := range []*fleet{a, b} {
		urls := map[string]bool{}
		for _, row := range m.view() {
			urls[row.URL] = true
		}
		if !urls["http://w1"] || !urls["http://w2"] {
			t.Fatalf("view did not converge on the union: %v", urls)
		}
	}

	// Only w1 stays in contact, and only with a; w2 departs.
	clk.advance(80 * time.Second)
	a.observe("http://w1")
	exchange()
	if b.suspected("http://w1") {
		t.Fatal("the merge failed to relay w1's freshness to b")
	}
	if !a.suspected("http://w2") || !b.suspected("http://w2") {
		t.Fatal("departed w2 should be suspect on both views")
	}

	clk.advance(80 * time.Second) // w2 at 160s ≥ 150s death threshold
	a.observe("http://w1")
	if dead := a.sweepDead(); len(dead) != 1 || dead[0] != "http://w2" {
		t.Fatalf("a swept %v, want [http://w2]", dead)
	}
	if dead := b.sweepDead(); len(dead) != 1 || dead[0] != "http://w2" {
		t.Fatalf("b swept %v, want [http://w2]", dead)
	}
	// b still remembers w2 is gone even as a's next view arrives late —
	// and a view claiming a member at/past the death threshold never
	// resurrects it.
	b.merge([]server.FleetMember{{URL: "http://w2", State: stateSuspect, AgeMS: (160 * time.Second).Milliseconds()}})
	if b.size() != 1 {
		t.Fatalf("dead member resurrected by a merge: size %d", b.size())
	}
	exchange()
	if a.size() != 1 || b.size() != 1 {
		t.Fatalf("post-death exchange sizes are %d/%d, want 1/1", a.size(), b.size())
	}
}

func TestMembershipMergeNeverRegressesFreshness(t *testing.T) {
	clk := newVClock()
	m := testFleet(clk, HealthConfig{})
	m.observe("http://w1")
	// A primary with an older view (bigger age) must not make w1 look stale.
	m.merge([]server.FleetMember{{URL: "http://w1", State: stateSuspect, AgeMS: (100 * time.Second).Milliseconds()}})
	if age := m.view()[0].AgeMS; age != 0 {
		t.Fatalf("a stale view regressed freshness: age %dms", age)
	}
}

func TestHealthAdaptiveLeaseUsesFleetMeanFloor(t *testing.T) {
	clk := newVClock()
	// Alpha 1 makes the EWMA equal the last observation, so the
	// arithmetic below is exact.
	h := testFleet(clk, HealthConfig{Alpha: 1})
	h.observe("http://w1")

	// Cold start: no observations anywhere → the configured lease.
	if got := h.lease("http://w1", 8); got != 60*time.Second {
		t.Fatalf("cold-start lease %v, want the 60s ceiling", got)
	}

	// One worker at 4 runs/sec: lease = LeaseFactor(3) · 8 / 4 = 6s.
	h.success("http://w1", 8, 2*time.Second)
	if got := h.lease("http://w1", 8); got != 6*time.Second {
		t.Fatalf("lease %v, want 6s at 4 runs/sec", got)
	}

	// A worker 40× slower is floored at the fleet mean: its own rate
	// (0.1 runs/sec) would grant 240s — capped at the 60s ceiling — but
	// the mean (2.05 runs/sec) shrinks it to ~11.7s, so the fleet steals
	// from it sooner, not later.
	h.observe("http://w2")
	h.success("http://w2", 8, 80*time.Second)
	mean := (4.0 + 0.1) / 2
	want := time.Duration(3 * 8 / mean * float64(time.Second))
	got := h.lease("http://w2", 8)
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("slow worker lease %v, want ~%v (fleet-mean floor)", got, want)
	}
	if got >= 60*time.Second {
		t.Fatalf("slow worker lease %v did not shrink below the ceiling", got)
	}

	// The lease never drops below MinLease.
	h.observe("http://w3")
	h.success("http://w3", 800, time.Millisecond)
	if got := h.lease("http://w3", 1); got != time.Second {
		t.Fatalf("lease %v, want the 1s MinLease floor", got)
	}
}

func TestHealthBrownoutAndHalfOpenProbe(t *testing.T) {
	clk := newVClock()
	h := testFleet(clk, HealthConfig{
		Alpha:             0.5,
		BrownoutMinEvents: 2,
		BrownoutCooldown:  10 * time.Second,
	})
	const w = "http://w"
	h.observe(w)

	if !h.available(w) {
		t.Fatal("a fresh member should be available")
	}
	h.failure(w) // errShare 0.5 but only 1 event: below the floor
	if !h.available(w) {
		t.Fatal("a single failure must not bench a worker")
	}
	h.failure(w) // errShare 0.75, 2 events → browned out
	if h.available(w) {
		t.Fatal("browned-out worker still dispatchable")
	}
	if !h.unhealthyNow(w) {
		t.Fatal("unhealthyNow disagrees with brown-out")
	}
	if !h.snapshot(w).BrownedOut {
		t.Fatal("snapshot does not report the brown-out")
	}

	// Cooldown elapses: exactly one half-open probe goes through.
	clk.advance(10 * time.Second)
	if !h.available(w) {
		t.Fatal("cooled-down worker refused its half-open probe")
	}
	if h.available(w) {
		t.Fatal("second concurrent probe allowed")
	}

	// The probe fails → immediately re-browned, no event-count grace.
	h.failure(w)
	if h.available(w) {
		t.Fatal("worker available right after failing its probe")
	}

	// Next probe succeeds → fully restored.
	clk.advance(10 * time.Second)
	if !h.available(w) {
		t.Fatal("second probe refused")
	}
	h.success(w, 4, time.Second)
	if !h.available(w) || h.unhealthyNow(w) {
		t.Fatal("successful probe did not clear the brown-out")
	}
	if h.snapshot(w).BrownedOut {
		t.Fatal("snapshot still reports a brown-out after recovery")
	}
}

// TestSweptMemberIgnoresLateOutcomes: a range attempt can resolve after
// its worker was swept as dead. Its late success, failure and release
// must leave no record behind — no resurrected member, no brown-out, no
// rate dragging the lease fleet mean.
func TestSweptMemberIgnoresLateOutcomes(t *testing.T) {
	clk := newVClock()
	f := testFleet(clk, HealthConfig{Alpha: 1, BrownoutMinEvents: 1})
	const w1, w2 = "http://w1", "http://w2"
	f.observe(w1)
	f.observe(w2)
	f.success(w1, 8, 2*time.Second) // 4 runs/sec
	f.success(w2, 8, time.Second)   // 8 runs/sec
	clk.advance(100 * time.Second)
	f.observe(w1)
	clk.advance(60 * time.Second) // w2 unheard from for 160s
	if dead := f.sweepDead(); len(dead) != 1 || dead[0] != w2 {
		t.Fatalf("sweepDead = %v, want [%s]", dead, w2)
	}
	members, browned, lease := f.view(), f.brownedOutCount(), f.lease(w1, 8)
	if lease != 6*time.Second {
		t.Fatalf("w1 lease %v, want 6s from its own 4 runs/sec", lease)
	}

	f.success(w2, 800, time.Millisecond)
	f.failure(w2)
	f.failure(w2)
	f.release(w2)
	f.pinged(w2, true)

	if got := f.view(); !reflect.DeepEqual(got, members) {
		t.Fatalf("late outcomes changed the fleet export:\n got %+v\nwant %+v", got, members)
	}
	if got := f.brownedOutCount(); got != browned {
		t.Fatalf("browned-out count %d after late failures, want %d", got, browned)
	}
	if got := f.lease(w1, 8); got != lease {
		t.Fatalf("w1 lease %v after a late success, want %v: the fleet mean moved", got, lease)
	}
	if f.size() != 1 {
		t.Fatalf("fleet size %d, want 1: the swept member came back", f.size())
	}
}

// TestFleetTableConcurrentUse drives the table's operations from several
// goroutines at once, as ranges, joins, mirrors and the membership loop
// do (run it under -race): attempts picked and released in pairs leave
// no load behind.
func TestFleetTableConcurrentUse(t *testing.T) {
	clk := newVClock()
	f := testFleet(clk, HealthConfig{})
	urls := []string{"http://w1", "http://w2", "http://w3"}
	for _, u := range urls {
		f.observe(u)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w, _ := f.pick(map[string]bool{urls[g%len(urls)]: true}, 8)
				if i%3 == 0 {
					f.failure(w.url)
				} else {
					f.success(w.url, 8, time.Second)
				}
				f.stuck(map[string]int{w.url: 1})
				f.release(w.url)
				if _, _, err := f.join(urls[(g+i)%len(urls)], float64(i%4)); err != nil {
					t.Error(err)
					return
				}
				f.merge(f.view())
				f.sweep()
				clk.advance(time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if f.size() != len(urls) {
		t.Fatalf("fleet size %d, want %d", f.size(), len(urls))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.members {
		if w.outstanding != 0 {
			t.Fatalf("%s has %d outstanding attempts after every one was released", w.url, w.outstanding)
		}
	}
}

// TestErroringWorkerBrownsOutWithoutFailingSweep rigs one worker to 500
// every job submission. The sweep must complete byte-identical to a
// single-daemon run on the healthy worker alone, while the erroring
// worker is browned out of dispatch and visibly so in the fleet export.
//
// A healthy worker that streams a range back faster than the next range
// is dispatched would take every range, so the erroring worker would be
// tried only once. The first results stream on the healthy worker is
// therefore held until the erroring worker has refused two range
// submissions: with that range outstanding, least-loaded dispatch must
// pick the erroring worker for a second range.
func TestErroringWorkerBrownsOutWithoutFailingSweep(t *testing.T) {
	spec := testSpec(12)
	ref := singleDaemonJournal(t, spec)

	var (
		mu      sync.Mutex
		refused = map[string]bool{} // idempotency keys: one per range attempt
		twice   = make(chan struct{})
		held    atomic.Bool
	)
	_, good := newWrappedWorker(t, nil, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/results") && held.CompareAndSwap(false, true) {
				select {
				case <-twice:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			mu.Lock()
			if key := r.Header.Get("Idempotency-Key"); !refused[key] {
				refused[key] = true
				if len(refused) == 2 {
					close(twice)
				}
			}
			mu.Unlock()
			http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(bad.Close)

	c, _ := newCoordinator(t, Config{
		RangeRuns: 2,
		// Two failures suffice (errShare 1−0.7² = 0.51 ≥ 0.5) and a long
		// cooldown keeps the brown-out observable after the sweep.
		Health: HealthConfig{BrownoutMinEvents: 2, BrownoutCooldown: time.Minute},
	}, good, bad.URL)

	st, created, err := c.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, c, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("sweep ended %s with a half-broken fleet: %s", final.Status, final.Error)
	}
	got, err := os.ReadFile(c.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("merged journal differs from the single-daemon journal")
	}

	var badH, goodH server.WorkerHealth
	var sawBad, sawGood bool
	for _, m := range c.FleetMembers() {
		switch m.URL {
		case bad.URL:
			badH, sawBad = m.Health, true
		case good:
			goodH, sawGood = m.Health, true
		}
	}
	if !sawBad || !sawGood {
		t.Fatalf("fleet export lost a member: bad=%v good=%v", sawBad, sawGood)
	}
	if badH.Failures < 2 {
		t.Fatalf("erroring worker recorded %d failures, want ≥ 2", badH.Failures)
	}
	if !badH.BrownedOut {
		t.Fatal("erroring worker not browned out after the sweep")
	}
	if goodH.Successes == 0 || goodH.EWMARunsPerSec <= 0 {
		t.Fatalf("healthy worker earned no rate score: %+v", goodH)
	}
	// The healthy worker's lease adapted below the 60s ceiling — no
	// fixed -lease tuning involved.
	if goodH.LeaseMS <= 0 || goodH.LeaseMS >= (60*time.Second).Milliseconds() {
		t.Fatalf("healthy worker lease %dms, want adaptive below the 60s ceiling", goodH.LeaseMS)
	}
}
