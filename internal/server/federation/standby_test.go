package federation

import (
	"bytes"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// TestStandbyFailoverKeepsBytesIdentical is the tentpole scenario: a
// standby tails the primary, the primary dies mid-sweep (its HTTP
// frontend goes away), the standby promotes itself and resumes the
// in-flight job — and the merged journal it produces is byte-identical
// to an unfailed single-daemon run. The standby is seeded with NO
// workers: its whole fleet view arrives by mirroring the primary.
func TestStandbyFailoverKeepsBytesIdentical(t *testing.T) {
	spec := server.JobSpec{Grid: "unit", Seeds: 20, Horizon: 150}
	ref := singleDaemonJournal(t, spec)

	// Slow the runs down so the primary dies mid-sweep, not after it.
	var urls []string
	for i := 0; i < 2; i++ {
		_, url := newWorker(t, func() { time.Sleep(50 * time.Millisecond) })
		urls = append(urls, url)
	}
	primary, primaryTS := newCoordinator(t, Config{RangeRuns: 2}, urls...)

	reg := metrics.NewRegistry()
	standby, _ := newCoordinator(t, Config{
		Standby:       true,
		Primary:       primaryTS.URL,
		Heartbeat:     40 * time.Millisecond,
		FailoverAfter: 300 * time.Millisecond,
		RangeRuns:     2,
		Registry:      reg,
	})
	if !standby.Standby() {
		t.Fatal("standby did not start in standby role")
	}

	st, created, err := primary.Admit(spec, "")
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}

	// Wait until the sweep is demonstrably in flight on the primary AND
	// the standby has mirrored the job in a non-terminal state (plus the
	// fleet, which it can only have learned from heartbeats).
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("standby never mirrored the in-flight job")
		}
		pst, _ := primary.Job(st.ID)
		sst, mirrored := standby.Job(st.ID)
		if pst.Done > 0 && !pst.Status.Terminal() &&
			mirrored && !sst.Status.Terminal() && len(standby.FleetMembers()) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary's frontend: heartbeats start failing now.
	primaryTS.Close()

	promoted := time.Now().Add(20 * time.Second)
	for standby.Standby() {
		if time.Now().After(promoted) {
			t.Fatal("standby never promoted itself")
		}
		time.Sleep(5 * time.Millisecond)
	}

	final := waitTerminal(t, standby, st.ID, 60*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("resumed job ended %s: %s", final.Status, final.Error)
	}
	if final.Done != 20 || final.Total != 20 {
		t.Fatalf("resumed job done %d/%d, want 20/20", final.Done, final.Total)
	}
	got, err := os.ReadFile(standby.JournalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("post-failover merged journal differs from the unfailed run")
	}

	if v := reg.Counter(MetricFailovers, "").Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricFailovers, v)
	}
	if v := reg.Gauge(MetricEpoch, "").Value(); v < 2 {
		t.Fatalf("%s = %d, want ≥ 2 (primary was epoch 1)", MetricEpoch, v)
	}
	if v := reg.Gauge(MetricStandby, "").Value(); v != 0 {
		t.Fatalf("%s = %d after promotion, want 0", MetricStandby, v)
	}
	if st := standby.Status(); st.Role != server.RolePrimary {
		t.Fatalf("promoted coordinator reports role %q, want %q", st.Role, server.RolePrimary)
	}
}

// TestStandbyRefusesSubmissions: before promotion a standby answers
// submissions with 503 + Retry-After so clients fail over by retrying,
// and reports unready on /readyz.
func TestStandbyRefusesSubmissions(t *testing.T) {
	// The primary is unreachable, but a huge FailoverAfter keeps the
	// standby in its standby role for the whole test.
	standby, ts := newCoordinator(t, Config{
		Standby:       true,
		Primary:       "http://127.0.0.1:1",
		FailoverAfter: time.Hour,
	})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"grid":"unit","seeds":4,"horizon":150}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby answered %d to a submission, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("standby 503 carries no Retry-After")
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby /readyz answered %d, want 503", ready.StatusCode)
	}

	if standby.Standby() != true {
		t.Fatal("standby lost its role without a failover")
	}
}
