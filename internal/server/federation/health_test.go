package federation

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

func TestHealthAdaptiveLeaseUsesFleetMeanFloor(t *testing.T) {
	clk := newVClock()
	// Alpha 1 makes the EWMA equal the last observation, so the
	// arithmetic below is exact.
	h := newHealthBoard(HealthConfig{Alpha: 1}, 60*time.Second, clk.now)

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
	h.success("http://w3", 800, time.Millisecond)
	if got := h.lease("http://w3", 1); got != time.Second {
		t.Fatalf("lease %v, want the 1s MinLease floor", got)
	}
}

func TestHealthBrownoutAndHalfOpenProbe(t *testing.T) {
	clk := newVClock()
	h := newHealthBoard(HealthConfig{
		Alpha:             0.5,
		BrownoutMinEvents: 2,
		BrownoutCooldown:  10 * time.Second,
	}, time.Minute, clk.now)
	const w = "http://w"

	if !h.available(w) {
		t.Fatal("unknown worker should be available")
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
	if !h.snapshot(w, 8).BrownedOut {
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
	if h.snapshot(w, 8).BrownedOut {
		t.Fatal("snapshot still reports a brown-out after recovery")
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
