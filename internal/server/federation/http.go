package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/server"
	"repro/internal/server/client"
)

// Handler returns the coordinator's HTTP API. The job surface is
// deliberately identical to a single daemon's (same paths, same
// request/response bodies, same 429/503 + Retry-After backpressure), so
// any lggd client — including cmd/lggsweep -remote — can point at a
// coordinator unchanged. On top:
//
//	POST /v1/fleet/join          a worker registers itself ({"url": ...},
//	                             optionally with a capacity_runs_per_sec
//	                             hint); the coordinator liveness-checks it
//	                             (with a bounded timeout) before admission
//	GET  /v1/fleet               the current fleet in join order, each
//	                             member with liveness state, age and
//	                             scheduling health ([]server.FleetMember)
//	GET  /v1/coordinator/status  the heartbeat payload: epoch, role, fleet
//	                             and full job list (server.CoordStatus);
//	                             standbys poll it to mirror the primary
//	GET  /v1/results             compacted per-cell summaries of finished
//	                             jobs, filterable by
//	                             ?job=&tenant=&grid=&network=&router=
//
// A standby coordinator serves the same surface read-only: submissions
// are refused with 503 + Retry-After until a failover promotes it, and
// /readyz reports unready.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Cancel(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", c.handleResults)
	mux.HandleFunc("POST /v1/fleet/join", c.handleJoin)
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.FleetMembers())
	})
	mux.HandleFunc("GET /v1/coordinator/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /v1/results", c.handleSummaries)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case c.Draining():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		case c.Standby():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "standby")
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := c.reg.WriteProm(w); err != nil {
			c.cfg.Logf("lggfed: metrics write: %v", err)
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "decode spec: %v", err)
			return
		}
	}
	st, created, err := c.Admit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		var u *server.Unavailable
		if errors.As(err, &u) {
			w.Header().Set("Retry-After", strconv.Itoa(u.RetryAfter))
			code := http.StatusTooManyRequests
			if u.Draining || u.Standby {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "%s", u.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleResults streams the job's merged journal with the exact framing
// a single daemon uses (server.StreamJournal), following live merges
// until the job is terminal. A follower therefore reads results in
// global index order as the contiguous merged prefix grows, no matter
// which workers produced them or in what order.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	jb, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	server.StreamJournal(w, r, c.ledger.JournalPath(id), jb.terminal, jb.doneCh, c.haltc)
}

// joinRequest is the body of POST /v1/fleet/join. Workers re-POST it
// periodically as a heartbeat, so a capacity hint refreshes on every
// beat.
type joinRequest struct {
	URL string `json:"url"`
	// Capacity is the worker's self-declared service rate in runs per
	// second (optional; 0 = undeclared, and clears an earlier hint).
	// Dispatch weights the worker by max(declared, observed EWMA), so
	// the hint shapes placement before the first range completes but
	// never overrides observation downward.
	Capacity float64 `json:"capacity_runs_per_sec,omitempty"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode join: %v", err)
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, "join: url is required")
		return
	}
	if c.Draining() {
		writeError(w, http.StatusServiceUnavailable, "coordinator draining")
		return
	}
	if req.Capacity < 0 {
		writeError(w, http.StatusBadRequest, "join: capacity_runs_per_sec must be non-negative")
		return
	}
	// The worker must answer a liveness ping first, through a
	// single-attempt client bounded by pingTimeout so a hung worker
	// cannot block the handler.
	pcfg := c.cfg.Client
	pcfg.BaseURL, pcfg.MaxAttempts = req.URL, 1
	if pcfg.HTTP == nil {
		pcfg.HTTP = &http.Client{Timeout: pingTimeout}
	}
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	pcli, err := client.New(pcfg)
	if err == nil {
		err = pcli.Ping(ctx)
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "federation: worker %s failed liveness: %v", req.URL, err)
		return
	}
	if err := c.join(req.URL, req.Capacity); err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Workers int `json:"workers"`
	}{c.fleet.size()})
}

// handleSummaries serves the compacted result index.
func (c *Coordinator) handleSummaries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	out, err := c.rstore.query(ResultFilter{
		Job:     q.Get("job"),
		Tenant:  q.Get("tenant"),
		Grid:    q.Get("grid"),
		Network: q.Get("network"),
		Router:  q.Get("router"),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}
