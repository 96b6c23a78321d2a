package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The store is the daemon's durable job ledger: one append-only JSONL
// file (jobs.jsonl) holding a full JobState snapshot per transition, plus
// one PR-4 sweep journal per job under results/. The ledger follows the
// sweep journal's crash discipline — whole-line appends, fsync per
// append, torn tails truncated on open — so whatever a killed daemon
// left on disk is a consistent prefix of its history. Replaying the
// ledger (last snapshot per job wins) reconstructs every job; the ones
// that are not terminal go back on the admission queue, and their sweep
// journals let the runner skip every run already recorded.

// storeVersion tags the ledger format in its header line.
const storeVersion = "lggd-jobs-v1"

type storeHeader struct {
	Store string `json:"store"`
}

// Ledger owns a state directory. The daemon and the federation
// coordinator both persist their jobs through it, so either state
// directory is readable by the same tooling.
type Ledger struct {
	dir string
	// lastDispatched is the tenant of the most recent queued→running
	// transition found while replaying the ledger.
	lastDispatched string

	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// OpenLedger opens (or initialises) dir as a job ledger and replays it;
// jobs come back in first-submission order.
func OpenLedger(dir string) (*Ledger, []JobState, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: state dir: %w", err)
	}
	path := filepath.Join(dir, "jobs.jsonl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: job ledger: %w", err)
	}
	br := bufio.NewReader(f)
	head, err := br.ReadBytes('\n')
	offset := int64(len(head))
	if err != nil {
		// Empty (or torn-at-birth) ledger: claim it with a fresh header.
		if len(head) > 0 && !errors.Is(err, io.EOF) {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger: %w", err)
		}
		s := &Ledger{dir: dir, f: f, enc: json.NewEncoder(f)}
		if err := s.enc.Encode(storeHeader{Store: storeVersion}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: job ledger header: %w", err)
		}
		return s, nil, f.Sync()
	}
	var hdr storeHeader
	if json.Unmarshal(head, &hdr) != nil || hdr.Store != storeVersion {
		f.Close()
		return nil, nil, fmt.Errorf("server: %s is not a %s ledger", path, storeVersion)
	}

	latest := make(map[string]*JobState)
	var order []string
	lastDispatched := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break // EOF or torn tail: everything before it stands
		}
		var js JobState
		if json.Unmarshal(line, &js) != nil || js.ID == "" {
			break // malformed line: truncate it and everything after
		}
		if _, seen := latest[js.ID]; !seen {
			order = append(order, js.ID)
		}
		if js.Status == StatusRunning {
			lastDispatched = js.Spec.Tenant
		}
		latest[js.ID] = &js
		offset += int64(len(line))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: job ledger truncate: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: job ledger seek: %w", err)
	}
	jobs := make([]JobState, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, *latest[id])
	}
	return &Ledger{dir: dir, lastDispatched: lastDispatched, f: f, enc: json.NewEncoder(f)}, jobs, nil
}

// Append durably records a job snapshot: one whole-line write, then
// fsync. Transitions are rare (a handful per job), so the fsync cost is
// irrelevant next to a sweep.
func (s *Ledger) Append(js JobState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(&js); err != nil {
		return fmt.Errorf("server: job ledger: %w", err)
	}
	return s.f.Sync()
}

// JournalPath is where a job's (merged) sweep journal lives.
func (s *Ledger) JournalPath(id string) string {
	return filepath.Join(s.dir, "results", id+".jsonl")
}

// RemoveJournal deletes a job's sweep journal (used when a cancelled
// queued job never produced one — ignore absence).
func (s *Ledger) RemoveJournal(id string) {
	// Best-effort cleanup; the journal is harmless if left behind.
	_ = os.Remove(s.JournalPath(id))
}

// LastDispatchedTenant reports the tenant of the most recent
// queued→running transition in the replayed ledger (empty if none).
// The federation coordinator re-seats its round-robin fair-share cursor
// just past this tenant on restart, so the tenant that was served last
// does not get served first again.
func (s *Ledger) LastDispatchedTenant() string { return s.lastDispatched }

// Close flushes and closes the ledger.
func (s *Ledger) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
