package federation

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/server"
	"repro/internal/sweep"
)

// The result store is the coordinator's compaction layer. A finished
// job's merged journal is a full per-run JSONL — large, and mostly
// redundant once the job is done. Compaction distils it into per-cell
// summaries (sweep.AggregateCells, one line per network × router ×
// variant cell) appended to an indexed JSONL the GET /v1/results
// endpoint queries without ever replaying a journal. Optionally the
// store then bounds journal disk usage: with KeepJournals > 0 only the
// most recent merged journals survive compaction; evicted jobs remain
// fully queryable through their summaries.
//
// The index file follows the repo's ledger discipline — header line,
// whole-line fsynced appends, torn tail ignored on replay — so a
// killed coordinator loses at most the summaries of the job it was
// compacting, and that job's journal (still on disk, by eviction
// ordering) re-compacts on the next completion-path touch or is simply
// re-queryable as a stream.

// indexVersion tags the summary index format.
const indexVersion = "lggfed-results-v1"

type indexHeader struct {
	Index string `json:"index"`
}

// CellSummary is one compacted grid cell of one finished job — the unit
// GET /v1/results returns.
type CellSummary struct {
	// Job is the coordinator job the cell came from; Tenant is the
	// submitting tenant recorded at admission.
	Job    string `json:"job"`
	Tenant string `json:"tenant,omitempty"`
	// Seed is the job's root seed: together with the cell coordinates it
	// identifies the exact runs aggregated here.
	Seed uint64 `json:"seed"`
	sweep.CellStats
}

// resultStore owns the summary index and the compacted-journal
// retention bookkeeping. It keeps no summaries in memory: queries scan
// the index file, so a long-lived coordinator's heap does not grow with
// the number of jobs it has finished.
type resultStore struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // committed length: whole, fsynced lines
	keep int   // Config.KeepJournals
	// compacted lists job ids in compaction order for retention; it is
	// only kept when keep > 0.
	compacted []string
}

// openResultStore opens (or initialises) the summary index in dir,
// validates it and truncates a torn tail. keep > 0 bounds the merged
// journals kept after compaction (see compact).
func openResultStore(dir string, keep int) (*resultStore, error) {
	path := filepath.Join(dir, "results-index.jsonl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("federation: result index: %w", err)
	}
	rs := &resultStore{f: f, keep: keep}
	if err := rs.replay(path); err != nil {
		f.Close()
		return nil, fmt.Errorf("federation: result index: %w", err)
	}
	return rs, nil
}

// replay validates the header (writing it to an empty file), sets the
// committed length to the last whole summary line and truncates the
// rest.
func (rs *resultStore) replay(path string) error {
	br := bufio.NewReader(rs.f)
	head, err := br.ReadBytes('\n')
	if err != nil {
		if len(head) > 0 && !errors.Is(err, io.EOF) {
			return err
		}
		if err := rs.f.Truncate(0); err != nil {
			return err
		}
		return rs.append(indexHeader{Index: indexVersion})
	}
	var hdr indexHeader
	if json.Unmarshal(head, &hdr) != nil || hdr.Index != indexVersion {
		return fmt.Errorf("%s is not a %s index", path, indexVersion)
	}
	rs.size = int64(len(head))
	lastJob := ""
	// A read error ends the replay like a torn tail: the prefix stands.
	_ = scanIndex(br, func(cs CellSummary, n int) {
		if rs.keep > 0 && cs.Job != lastJob {
			rs.compacted = append(rs.compacted, cs.Job)
			lastJob = cs.Job
		}
		rs.size += int64(n)
	})
	return rs.f.Truncate(rs.size)
}

// append writes vs as JSON lines at the committed length and commits
// them once fsynced. A failed append is truncated back, so no torn line
// hides later appends from queries. The caller holds rs.mu.
func (rs *resultStore) append(vs ...any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	_, err := rs.f.WriteAt(buf.Bytes(), rs.size)
	if err == nil {
		err = rs.f.Sync()
	}
	if err != nil {
		if terr := rs.f.Truncate(rs.size); terr != nil {
			return fmt.Errorf("%w (truncating the partial append: %v)", err, terr)
		}
		return err
	}
	rs.size += int64(buf.Len())
	return nil
}

// compact aggregates a finished job's merged results into per-cell
// summaries, appends them durably to the index, and — when keep > 0 —
// evicts the oldest compacted journals beyond keep via removeJournal.
// Returns the number of cells written.
func (rs *resultStore) compact(jobID string, spec server.JobSpec, merged []sweep.Result, removeJournal func(id string)) (int, error) {
	cells, err := sweep.AggregateCells(merged, spec.Seeds)
	if err != nil {
		return 0, fmt.Errorf("aggregate: %w", err)
	}
	lines := make([]any, len(cells))
	for i := range cells {
		lines[i] = CellSummary{Job: jobID, Tenant: spec.Tenant, Seed: spec.Seed, CellStats: cells[i]}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.append(lines...); err != nil {
		return 0, fmt.Errorf("index append: %w", err)
	}
	if rs.keep > 0 {
		rs.compacted = append(rs.compacted, jobID)
		for len(rs.compacted) > rs.keep {
			evict := rs.compacted[0]
			rs.compacted = rs.compacted[1:]
			removeJournal(evict)
		}
	}
	return len(cells), nil
}

// ResultFilter narrows a summary query; zero-value fields match
// everything.
type ResultFilter struct {
	Job     string
	Tenant  string
	Grid    string
	Network string
	Router  string
}

func (f ResultFilter) matches(cs CellSummary) bool {
	return (f.Job == "" || f.Job == cs.Job) &&
		(f.Tenant == "" || f.Tenant == cs.Tenant) &&
		(f.Grid == "" || f.Grid == cs.Grid) &&
		(f.Network == "" || f.Network == cs.Network) &&
		(f.Router == "" || f.Router == cs.Router)
}

// scanIndex calls fn with each summary line after the header and its
// length in bytes. It stops at EOF, at a torn tail or at a malformed
// line: everything before it stands, and replay truncates the rest. A
// read error other than EOF is returned.
func scanIndex(br *bufio.Reader, fn func(cs CellSummary, n int)) error {
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		var cs CellSummary
		if json.Unmarshal(line, &cs) != nil || cs.Job == "" {
			return nil
		}
		fn(cs, len(line))
	}
}

// query scans the committed prefix of the index file, which no later
// append touches, and returns the matching summaries in compaction
// order. It holds rs.mu only to read the committed length.
func (rs *resultStore) query(f ResultFilter) ([]CellSummary, error) {
	rs.mu.Lock()
	size := rs.size
	rs.mu.Unlock()
	br := bufio.NewReader(io.NewSectionReader(rs.f, 0, size))
	out := []CellSummary{}
	_, err := br.ReadBytes('\n') // the header
	if err == nil {
		err = scanIndex(br, func(cs CellSummary, _ int) {
			if f.matches(cs) {
				out = append(out, cs)
			}
		})
	}
	if err != nil {
		return nil, fmt.Errorf("federation: result index: %w", err)
	}
	return out, nil
}

// close flushes and closes the index.
func (rs *resultStore) close() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.f.Sync(); err != nil {
		rs.f.Close()
		return err
	}
	return rs.f.Close()
}
