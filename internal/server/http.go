package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs              submit a job (JobSpec body); 202 on
//	                             admission, 200 when an Idempotency-Key
//	                             matches an existing job, 429 + Retry-After
//	                             when the queue sheds, 503 + Retry-After
//	                             while draining
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         one job's state
//	DELETE /v1/jobs/{id}         cancel (queued: immediate; running:
//	                             mid-sweep; terminal: no-op)
//	GET    /v1/jobs/{id}/results stream the job's results as JSONL,
//	                             following live output until the job is
//	                             terminal
//	GET    /healthz              process liveness (always 200)
//	GET    /readyz               admission readiness (503 while draining)
//	GET    /metrics              Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.cHTTP.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.cHTTP.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.cHTTP.Inc()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.reg.WriteProm(w); err != nil {
			s.cfg.Logf("lggd: metrics write: %v", err)
		}
	})
	return mux
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.cHTTP.Inc()
	var spec JobSpec
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
	st, created, err := s.Admit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		var u *Unavailable
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

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.cHTTP.Inc()
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.cHTTP.Inc()
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.cHTTP.Inc()
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResults streams a job's sweep journal as JSONL (the header line
// is stripped; each line is one sweep.Result). For a live job the stream
// follows the journal — results appear as runs finish — and ends when
// the job reaches a terminal state. It ends mid-job only if the client
// disconnects or a drain checkpoints the job.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.cHTTP.Inc()
	id := r.PathValue("id")
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	StreamJournal(w, r, s.ledger.JournalPath(id), jb.terminal, jb.doneCh, s.haltc)
}

// lineFramer reassembles whole journal lines from arbitrary read
// chunks. The journal writer appends whole lines, but a follower's
// reads race the writer, so a chunk can end mid-line — a torn tail.
// The framer holds the newline-less fragment in pending and emits the
// line exactly once, when its terminating newline arrives; the journal
// header (first line) is swallowed.
type lineFramer struct {
	pending       []byte
	headerSkipped bool
}

// feed appends chunk and invokes emit once per completed line (newline
// included). It reports whether any line was emitted, so callers know
// when to flush.
func (l *lineFramer) feed(chunk []byte, emit func(line []byte) error) (wrote bool, err error) {
	l.pending = append(l.pending, chunk...)
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			return wrote, nil
		}
		line := l.pending[:i+1]
		l.pending = l.pending[i+1:]
		if !l.headerSkipped {
			l.headerSkipped = true
			continue
		}
		if err := emit(line); err != nil {
			return wrote, err
		}
		wrote = true
	}
}

// StreamJournal serves the sweep journal at path as a follow-mode
// application/x-ndjson response: the header line is stripped, each
// remaining line is relayed verbatim as it lands on disk, and the
// stream ends once terminal() reports true and the file is drained.
// done wakes the follower when the job completes (so the final lines
// are relayed without waiting out a poll interval); stop, closed once a
// drain has stopped executing jobs, ends the stream of a job that is
// still not terminal, as does the client disconnecting.
// A missing journal is waited for while the job is live and served as
// an empty complete stream if the job went terminal without producing
// one. Both the single daemon and the federation coordinator serve
// results through this path, so a follower sees identical framing
// either way.
func StreamJournal(w http.ResponseWriter, r *http.Request, path string, terminal func() bool, done, stop <-chan struct{}) {
	f, err := waitForJournal(r, path, terminal, done, stop)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if f == nil {
		// Terminal with no journal (e.g. cancelled while queued, or failed
		// before the first run): an empty, complete stream.
		return
	}
	defer f.Close()

	flusher, _ := w.(http.Flusher)
	var framer lineFramer
	chunk := make([]byte, 32*1024)
	for {
		wasTerminal := terminal()
		n, rerr := f.Read(chunk)
		if n > 0 {
			wrote, err := framer.feed(chunk[:n], func(line []byte) error {
				_, werr := w.Write(line)
				return werr
			})
			if err != nil {
				return
			}
			if wrote && flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return
		}
		if rerr != nil || n == 0 {
			// Caught up with the journal. A snapshot taken before the read
			// says whether more could still arrive.
			if wasTerminal {
				return
			}
			select {
			case <-done:
				// Loop once more to drain anything the final flush wrote.
			case <-stop:
				if !terminal() {
					return
				}
			case <-r.Context().Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}

// waitForJournal opens the journal, waiting for a queued job to start
// writing it. Returns (nil, nil) if the job went terminal without ever
// producing a journal.
func waitForJournal(r *http.Request, path string, terminal func() bool, done, stop <-chan struct{}) (*os.File, error) {
	for {
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		if terminal() {
			return nil, nil
		}
		select {
		case <-done:
		case <-stop:
			if !terminal() {
				return nil, errors.New("server drained before the job produced results")
			}
		case <-r.Context().Done():
			return nil, r.Context().Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
