// Package client is the Go client for the lggd daemon: a thin HTTP/JSON
// wrapper hardened the way the server expects its callers to behave.
// Every request retries transient failures with exponential backoff and
// full jitter, honours the server's Retry-After backpressure hint (the
// 429 shed and the 503 drain refusal), auto-generates idempotency keys
// so retried submissions never duplicate a job, and trips a
// consecutive-failure circuit breaker so a dead daemon fails fast
// instead of stacking timed-out connections.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
)

// ErrCircuitOpen is returned without touching the network while the
// breaker cools down after too many consecutive failures.
var ErrCircuitOpen = errors.New("client: circuit open, daemon failing")

// ErrRetryBudget is returned when a logical request gives up because
// its next retry would overrun the configured RetryBudget.
var ErrRetryBudget = errors.New("client: retry budget exhausted")

// StatusError is a non-retryable HTTP error response (4xx other than
// 429).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("lggd: %d: %s", e.Code, e.Msg)
}

// Config tunes a Client; only BaseURL is required.
type Config struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per request, first included (default 5).
	MaxAttempts int
	// BaseBackoff / MaxBackoff shape the exponential backoff: attempt n
	// sleeps rand[0, min(MaxBackoff, BaseBackoff·2ⁿ)) — full jitter —
	// unless the server sent Retry-After, which is honoured exactly
	// (capped at MaxRetryAfter). Defaults 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetryAfter caps how long a Retry-After hint is obeyed
	// (default 30s).
	MaxRetryAfter time.Duration
	// BreakerThreshold consecutive failures (network errors or 5xx
	// without Retry-After) open the circuit for BreakerCooldown, after
	// which one trial request half-opens it. Defaults 5 / 10s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryBudget, when positive, deadline-caps each logical request:
	// all attempts and backoff sleeps of one call must fit inside the
	// budget, and a retry whose sleep would overrun it is not made
	// (ErrRetryBudget instead). MaxAttempts bounds the count; the
	// budget bounds the wall clock, so a browned-out server answering
	// every attempt with a long Retry-After costs at most RetryBudget,
	// not MaxAttempts·MaxRetryAfter. Zero disables the cap.
	RetryBudget time.Duration

	// Test hooks: virtual time and deterministic jitter. Production
	// leaves them nil.
	Now   func() time.Time
	Sleep func(context.Context, time.Duration) error
	Rand  func() float64
}

// Client talks to one lggd daemon. Safe for concurrent use.
type Client struct {
	cfg Config

	mu        sync.Mutex
	failures  int       // consecutive failures
	openUntil time.Time // breaker closed when zero / in the past
}

// New builds a client with defaults filled in.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if !strings.Contains(cfg.BaseURL, "://") {
		cfg.BaseURL = "http://" + cfg.BaseURL
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if cfg.Rand == nil {
		cfg.Rand = mrand.Float64
	}
	return &Client{cfg: cfg}, nil
}

// breakerAllow reports whether a request may proceed. A cooled-down open
// breaker lets exactly one trial through (half-open) by moving openUntil
// forward; its outcome closes or re-opens the circuit.
func (c *Client) breakerAllow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openUntil.IsZero() || c.cfg.Now().After(c.openUntil) {
		if !c.openUntil.IsZero() {
			// Half-open: block other callers until this trial resolves.
			c.openUntil = c.cfg.Now().Add(c.cfg.BreakerCooldown)
		}
		return true
	}
	return false
}

func (c *Client) breakerRecord(failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !failed {
		c.failures = 0
		c.openUntil = time.Time{}
		return
	}
	c.failures++
	if c.failures >= c.cfg.BreakerThreshold {
		c.openUntil = c.cfg.Now().Add(c.cfg.BreakerCooldown)
	}
}

// backoff returns the pre-retry sleep for attempt (0-based) given the
// server's Retry-After hint in seconds (-1 = none).
func (c *Client) backoff(attempt, retryAfter int) time.Duration {
	if retryAfter >= 0 {
		d := time.Duration(retryAfter) * time.Second
		if d > c.cfg.MaxRetryAfter {
			d = c.cfg.MaxRetryAfter
		}
		return d
	}
	ceil := float64(c.cfg.BaseBackoff) * math.Pow(2, float64(attempt))
	if m := float64(c.cfg.MaxBackoff); ceil > m {
		ceil = m
	}
	return time.Duration(c.cfg.Rand() * ceil)
}

// do runs one request with retries. The body factory rebuilds the body
// per attempt. On success the response body bytes are returned.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr http.Header) ([]byte, error) {
	var lastErr error
	var budgetEnd time.Time // zero = no budget
	if c.cfg.RetryBudget > 0 {
		budgetEnd = c.cfg.Now().Add(c.cfg.RetryBudget)
	}
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		// The breaker gates the attempt BEFORE any backoff sleep: a
		// circuit opened by the previous attempt (or a concurrent
		// request) must fail fast, not after the caller has honoured a
		// full Retry-After hint only to be refused without a request.
		if !c.breakerAllow() {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %w)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}
		if attempt > 0 {
			retryAfter := -1
			var bp *backpressureError
			if errors.As(lastErr, &bp) {
				retryAfter = bp.retryAfter
			}
			d := c.backoff(attempt-1, retryAfter)
			// Deadline-aware budget: a retry that cannot complete its
			// sleep before the budget ends is not worth starting — give
			// up now instead of sleeping into an overrun.
			if !budgetEnd.IsZero() && c.cfg.Now().Add(d).After(budgetEnd) {
				return nil, fmt.Errorf("client: %s %s: %w after %d attempts in %v (last attempt: %w)",
					method, path, ErrRetryBudget, attempt, c.cfg.RetryBudget, lastErr)
			}
			if err := c.cfg.Sleep(ctx, d); err != nil {
				return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, err, lastErr)
			}
		}
		raw, err := c.attempt(ctx, method, path, body, hdr)
		if err == nil {
			c.breakerRecord(false)
			return raw, nil
		}
		var se *StatusError
		var bp *backpressureError
		switch {
		case errors.As(err, &se):
			// Definitive 4xx: the server is healthy and said no.
			c.breakerRecord(false)
			return nil, err
		case errors.As(err, &bp):
			// Backpressure (429/503 + Retry-After): the server is alive
			// and shedding by design — retry later, don't count it
			// against the breaker.
			c.breakerRecord(false)
		case errors.Is(ctx.Err(), context.Canceled):
			// The caller gave up on the request; that says nothing
			// about the daemon's health.
		default:
			c.breakerRecord(true)
		}
		if ctx.Err() != nil {
			// Keep the attempt error visible next to the cancellation:
			// "context deadline exceeded" alone tells an operator nothing
			// about what the last request actually hit.
			return nil, fmt.Errorf("client: %s %s: %w (last attempt: %w)", method, path, ctx.Err(), err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: %s %s failed after %d attempts: %w",
		method, path, c.cfg.MaxAttempts, lastErr)
}

// backpressureError is a retryable shed/drain refusal.
type backpressureError struct {
	code       int
	retryAfter int
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("lggd: %d (retry after %ds)", e.code, e.retryAfter)
}

// parseRetryAfter decodes a Retry-After header into whole seconds.
// RFC 9110 allows both delta-seconds and an HTTP-date; a negative delta
// (or a date already in the past) means "retry now", not "no hint" —
// degrading either form to jittered backoff would wait longer than the
// server asked. Returns -1 only for a missing or unparseable header.
func (c *Client) parseRetryAfter(h string) int {
	h = strings.TrimSpace(h)
	if h == "" {
		return -1
	}
	if n, err := strconv.Atoi(h); err == nil {
		if n < 0 {
			return 0
		}
		return n
	}
	if t, err := http.ParseTime(h); err == nil {
		d := t.Sub(c.cfg.Now())
		if d <= 0 {
			return 0
		}
		return int(math.Ceil(d.Seconds()))
	}
	return -1
}

func (c *Client) attempt(ctx context.Context, method, path string, body []byte, hdr http.Header) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode < 300:
		return raw, nil
	case resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""):
		return nil, &backpressureError{
			code:       resp.StatusCode,
			retryAfter: c.parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("lggd: %d: %s", resp.StatusCode, errBody(raw))
	default:
		return nil, &StatusError{Code: resp.StatusCode, Msg: errBody(raw)}
	}
}

func errBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Submit admits a job. A missing idempotency key is generated, so the
// at-least-once retry loop can never double-submit.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobState, error) {
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = newKey()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobState{}, err
	}
	hdr := http.Header{"Idempotency-Key": {spec.IdempotencyKey}}
	raw, err := c.do(ctx, "POST", "/v1/jobs", body, hdr)
	if err != nil {
		return server.JobState{}, err
	}
	var st server.JobState
	if err := json.Unmarshal(raw, &st); err != nil {
		return server.JobState{}, fmt.Errorf("client: decode job state: %w", err)
	}
	return st, nil
}

func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Never expected; a weak key only weakens dedup, not correctness.
		return fmt.Sprintf("k-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Ping checks the daemon's liveness endpoint, with the usual retry
// policy. Coordinators use it to validate a worker before admitting it
// to a fleet.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, "GET", "/healthz", nil, nil)
	return err
}

// Job fetches a job's state.
func (c *Client) Job(ctx context.Context, id string) (server.JobState, error) {
	raw, err := c.do(ctx, "GET", "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return server.JobState{}, err
	}
	var st server.JobState
	if err := json.Unmarshal(raw, &st); err != nil {
		return server.JobState{}, fmt.Errorf("client: decode job state: %w", err)
	}
	return st, nil
}

// Cancel requests cancellation and returns the resulting state.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobState, error) {
	raw, err := c.do(ctx, "DELETE", "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return server.JobState{}, err
	}
	var st server.JobState
	if err := json.Unmarshal(raw, &st); err != nil {
		return server.JobState{}, fmt.Errorf("client: decode job state: %w", err)
	}
	return st, nil
}

// CoordinatorStatus fetches a coordinator's heartbeat payload: epoch,
// role, fleet view and full job list. Standby coordinators poll it to
// mirror the primary and to detect its death.
func (c *Client) CoordinatorStatus(ctx context.Context) (server.CoordStatus, error) {
	raw, err := c.do(ctx, "GET", "/v1/coordinator/status", nil, nil)
	if err != nil {
		return server.CoordStatus{}, err
	}
	var st server.CoordStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return server.CoordStatus{}, fmt.Errorf("client: decode coordinator status: %w", err)
	}
	return st, nil
}

// Results fetches a job's results as decoded sweep results. A live job's
// stream ends when the job is terminal, so this is also how to wait for
// one; a stream short of the job's run count means it did not finish.
func (c *Client) Results(ctx context.Context, id string) ([]sweep.Result, error) {
	raw, err := c.do(ctx, "GET", "/v1/jobs/"+id+"/results", nil, nil)
	if err != nil {
		return nil, err
	}
	var rs []sweep.Result
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var r sweep.Result
		if err := dec.Decode(&r); err != nil {
			if errors.Is(err, io.EOF) {
				return rs, nil
			}
			return nil, fmt.Errorf("client: decode results: %w", err)
		}
		rs = append(rs, r)
	}
}
