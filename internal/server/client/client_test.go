package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// virtualClock drives the client's Now/Sleep/Rand hooks so backoff tests
// assert exact durations without real sleeping.
type virtualClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newClock() *virtualClock {
	return &virtualClock{now: time.Unix(1_000_000, 0)}
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *virtualClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

func newTestClient(t *testing.T, url string, clk *virtualClock, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL: url,
		Now:     clk.Now,
		Sleep:   clk.Sleep,
		Rand:    func() float64 { return 1 }, // deterministic: full ceiling
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetriesTransientFailuresWithBackoff(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"id":"job-00000000","status":"queued"}`))
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, nil)

	st, err := c.Job(context.Background(), "job-00000000")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-00000000" || calls != 3 {
		t.Fatalf("state %+v after %d calls", st, calls)
	}
	// With Rand=1 the full-jitter draw hits the ceiling: 100ms then 200ms.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := clk.Sleeps()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoff sleeps %v, want %v", got, want)
	}
}

func TestHonoursRetryAfterOnShed(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"job-00000001","status":"queued"}`))
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, nil)

	st, err := c.Submit(context.Background(), server.JobSpec{Grid: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-00000001" {
		t.Fatalf("state %+v", st)
	}
	got := clk.Sleeps()
	if len(got) != 1 || got[0] != 7*time.Second {
		t.Fatalf("sleeps %v, want exactly the server's 7s Retry-After", got)
	}
}

func TestSubmitRetriesCarryOneIdempotencyKey(t *testing.T) {
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if len(keys) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"id":"job-00000002","status":"queued"}`))
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, newClock(), nil)

	if _, err := c.Submit(context.Background(), server.JobSpec{Grid: "unit"}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across retries: %q", keys)
	}
}

func TestDefinitive4xxDoesNotRetry(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, newClock(), nil)

	_, err := c.Job(context.Background(), "job-x")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err %v, want StatusError 404", err)
	}
	if calls != 1 {
		t.Fatalf("404 retried %d times", calls)
	}
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	healthy := false
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if !healthy {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"id":"job-00000003","status":"done"}`))
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, func(cfg *Config) {
		cfg.MaxAttempts = 3
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = 10 * time.Second
	})

	// Three failed attempts trip the breaker mid-request.
	if _, err := c.Job(context.Background(), "job-00000003"); err == nil {
		t.Fatal("want error from failing daemon")
	}
	if calls != 3 {
		t.Fatalf("first request used %d attempts, want 3", calls)
	}
	// While open: fail fast, no network traffic.
	if _, err := c.Job(context.Background(), "job-00000003"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err %v, want ErrCircuitOpen", err)
	}
	if calls != 3 {
		t.Fatalf("open breaker still hit the network (%d calls)", calls)
	}
	// After the cooldown the half-open trial goes through and, with the
	// daemon healthy again, closes the circuit.
	healthy = true
	clk.Advance(11 * time.Second)
	st, err := c.Job(context.Background(), "job-00000003")
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != server.StatusDone || calls != 4 {
		t.Fatalf("post-recovery: %+v after %d calls", st, calls)
	}
	// And stays closed for the next call.
	if _, err := c.Job(context.Background(), "job-00000003"); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledRequestsDoNotTripBreaker(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Write([]byte(`{"id":"job-00000003","status":"done"}`))
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, newClock(), func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.BreakerThreshold = 1
	})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Job(cancelled, "job-00000003"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if _, err := c.Job(context.Background(), "job-00000003"); err != nil {
		t.Fatalf("request after a cancelled one: %v", err)
	}
	if calls != 1 {
		t.Fatalf("daemon saw %d calls, want 1", calls)
	}
}

func TestBackpressureDoesNotTripBreaker(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, func(cfg *Config) {
		cfg.MaxAttempts = 4
		cfg.BreakerThreshold = 2
	})

	_, err := c.Job(context.Background(), "job-x")
	if err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err %v: shedding must exhaust retries, not open the circuit", err)
	}
	if calls != 4 {
		t.Fatalf("shed request stopped after %d attempts, want all 4", calls)
	}
}

func TestBreakerCheckedBeforeBackoffSleep(t *testing.T) {
	// Regression: the breaker used to be checked AFTER the pre-retry
	// sleep, so a caller could sleep a full backoff (or a whole
	// Retry-After hint) and then fail with ErrCircuitOpen without ever
	// making the attempt. With the threshold at 1, the first failed
	// attempt opens the circuit; the retry loop must now fail fast with
	// zero sleeps, not sleep first and refuse after.
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, func(cfg *Config) {
		cfg.MaxAttempts = 3
		cfg.BreakerThreshold = 1
	})

	_, err := c.Job(context.Background(), "job-x")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err %v, want ErrCircuitOpen once the first failure trips the breaker", err)
	}
	if calls != 1 {
		t.Fatalf("open breaker still attempted (%d calls, want 1)", calls)
	}
	if got := clk.Sleeps(); len(got) != 0 {
		t.Fatalf("slept %v before refusing with an open circuit; the breaker must be checked before the backoff sleep", got)
	}
	// The refusal still names what the last attempt hit.
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("ErrCircuitOpen hides the last attempt's error: %v", err)
	}
}

func TestRetryAfterHTTPDateIsHonoured(t *testing.T) {
	// Regression: strconv.Atoi-only parsing silently degraded an RFC
	// 9110 HTTP-date Retry-After to "no hint" (jittered backoff). The
	// date form must be honoured exactly, relative to the client clock.
	clk := newClock()
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", clk.Now().Add(9*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"job-00000009","status":"queued"}`))
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, clk, nil)

	if _, err := c.Submit(context.Background(), server.JobSpec{Grid: "unit"}); err != nil {
		t.Fatal(err)
	}
	got := clk.Sleeps()
	if len(got) != 1 || got[0] != 9*time.Second {
		t.Fatalf("sleeps %v, want exactly the 9s until the Retry-After HTTP-date", got)
	}
}

func TestRetryAfterNegativeClampsToZero(t *testing.T) {
	// A negative delta-seconds (or a past HTTP-date) means "retry now";
	// it must clamp to a zero sleep, not fall back to jittered backoff.
	for name, header := range map[string]func(clk *virtualClock) string{
		"negative-delta": func(*virtualClock) string { return "-5" },
		"past-http-date": func(clk *virtualClock) string {
			return clk.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
		},
	} {
		t.Run(name, func(t *testing.T) {
			clk := newClock()
			var calls int
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls++
				if calls == 1 {
					w.Header().Set("Retry-After", header(clk))
					http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
					return
				}
				w.Write([]byte(`{"id":"job-00000010","status":"queued"}`))
			}))
			defer ts.Close()
			c := newTestClient(t, ts.URL, clk, nil)

			if _, err := c.Submit(context.Background(), server.JobSpec{Grid: "unit"}); err != nil {
				t.Fatal(err)
			}
			got := clk.Sleeps()
			if len(got) != 1 || got[0] != 0 {
				t.Fatalf("sleeps %v, want a single zero sleep (clamped hint), not jittered backoff", got)
			}
		})
	}
}

// roundTripFunc adapts a function to http.RoundTripper for fully
// deterministic transport-level tests.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestContextCancelKeepsAttemptError(t *testing.T) {
	// Regression: when ctx was cancelled after a failed attempt, do()
	// returned bare ctx.Err(), dropping what the attempt actually hit.
	// Both must surface: errors.Is sees the cancellation, the message
	// names the 500.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
		cancel() // the caller gives up while the attempt is in flight
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Body:       io.NopCloser(strings.NewReader(`{"error":"disk on fire"}`)),
			Header:     http.Header{},
		}, nil
	})
	clk := newClock()
	c := newTestClient(t, "http://lggd.invalid", clk, func(cfg *Config) {
		cfg.HTTP = &http.Client{Transport: rt}
	})

	_, err := c.Job(ctx, "job-x")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want a context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("cancellation shadowed the attempt error: %v", err)
	}
}

func TestEndToEndAgainstRealServer(t *testing.T) {
	// The client against the real daemon handler: submit, follow results, status.
	srv, err := server.New(server.Config{
		StateDir: t.TempDir(), Jobs: 1, SweepWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Drain(ctx)
	}()

	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, server.JobSpec{Grid: "faults", Quick: true, Seeds: 2, Horizon: 150, Faults: "down@40-80:e=1"})
	if err != nil {
		t.Fatal(err)
	}
	// Results follows the live journal until the job is terminal, so
	// the status read after it is final.
	rs, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != server.StatusDone || fin.Done != fin.Total || fin.Total == 0 {
		t.Fatalf("final state %+v", fin)
	}
	if len(rs) != fin.Total {
		t.Fatalf("results %d, want %d", len(rs), fin.Total)
	}
	verdicts := 0
	for _, r := range rs {
		if r.Recovery != "" {
			verdicts++
		}
	}
	if verdicts != len(rs) {
		t.Fatalf("only %d/%d results carry a recovery verdict", verdicts, len(rs))
	}
}

func TestRetryBudgetCapsBrownedOutPolling(t *testing.T) {
	// A browned-out coordinator answers every request with a 30s
	// Retry-After. Per-call backoff alone would burn
	// MaxAttempts×30s = 150s per logical request; the deadline-aware
	// budget must stop after the attempts that fit in 45s.
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"browned out"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, func(cfg *Config) {
		cfg.RetryBudget = 45 * time.Second
	})

	start := clk.Now()
	_, err := c.Job(context.Background(), "job-00000000")
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	// Attempt 1 at t=0, sleep 30s, attempt 2 at t=30s; the next 30s
	// sleep would end at t=60s > 45s, so exactly 2 attempts are made
	// and only the first sleep happens.
	if calls != 2 {
		t.Fatalf("server saw %d attempts, want 2 within the 45s budget", calls)
	}
	if got := clk.Sleeps(); len(got) != 1 || got[0] != 30*time.Second {
		t.Fatalf("sleeps %v, want exactly one 30s Retry-After sleep", got)
	}
	if elapsed := clk.Now().Sub(start); elapsed > 45*time.Second {
		t.Fatalf("logical request consumed %v, beyond its 45s budget", elapsed)
	}
}

func TestRetryBudgetZeroMeansUnbounded(t *testing.T) {
	// Without a budget the old contract holds: MaxAttempts bounds the
	// retries even when each one sleeps a long Retry-After.
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"browned out"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	clk := newClock()
	c := newTestClient(t, ts.URL, clk, func(cfg *Config) { cfg.MaxAttempts = 3 })

	_, err := c.Job(context.Background(), "job-00000000")
	if err == nil || errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want attempts-exhausted error", err)
	}
	if calls != 3 {
		t.Fatalf("server saw %d attempts, want MaxAttempts=3", calls)
	}
}
