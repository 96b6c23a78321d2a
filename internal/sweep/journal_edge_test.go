package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// brokenDisk is a write-error double: it accepts the first budget bytes
// and then fails every write with ENOSPC-flavoured errors, the way a
// filling disk does.
type brokenDisk struct {
	budget  int
	written bytes.Buffer
}

var errNoSpace = errors.New("write: no space left on device")

func (d *brokenDisk) Write(p []byte) (int, error) {
	if d.written.Len()+len(p) > d.budget {
		return 0, errNoSpace
	}
	return d.written.Write(p)
}

// TestJournalDiskFullSurfacedNotFatal is the disk-full path the daemon
// depends on: when the journal's disk fills mid-sweep, the sweep itself
// must still complete and return every computed result — the write error
// is reported once, after the results, never by killing runs.
func TestJournalDiskFullSurfacedNotFatal(t *testing.T) {
	jobs := testJobs(2, 150)
	want, err := (&Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	disk := &brokenDisk{budget: 600} // room for the header + a few lines
	j, err := NewJournal(disk, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (&Runner{Workers: 4, Journal: j}).Run(jobs)
	if err == nil {
		t.Fatal("disk-full journal error not surfaced")
	}
	if !errors.Is(err, errNoSpace) || !strings.Contains(err.Error(), "journal write") {
		t.Fatalf("error does not wrap the write failure: %v", err)
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("disk-full sweep dropped results: got %d, want %d", len(rs), len(want))
	}
	// Whatever made it to "disk" before the error is a valid prefix: a
	// header plus complete result lines only.
	lines := bytes.Split(bytes.TrimSuffix(disk.written.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("journal wrote %d lines before filling, want header + >=1 result", len(lines))
	}
	var got Result
	if err := json.Unmarshal(lines[1], &got); err != nil || got.Index != 0 {
		t.Fatalf("first journalled line is not result 0: %v %+v", err, got)
	}
}

// TestJournalHeaderWriteError: a disk already full at creation fails
// fast, before any run executes.
func TestJournalHeaderWriteError(t *testing.T) {
	if _, err := NewJournal(&brokenDisk{budget: 3}, 4); err == nil {
		t.Fatal("header write error not surfaced")
	}
}

// TestJournalDeletedMidRun pins the deleted-checkpoint semantics: on
// POSIX the unlinked file keeps accepting writes through the open fd, so
// the sweep finishes cleanly — but the checkpoint is gone, and a resume
// against the missing path must start a fresh journal from run zero and
// still reproduce the uninterrupted bytes.
func TestJournalDeletedMidRun(t *testing.T) {
	jobs := testJobs(2, 150)
	want, err := (&Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "doomed.jsonl")
	j, err := CreateJournal(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	deleted := false
	rs, err := (&Runner{Workers: 4, Journal: j,
		OnResult: func(_ Job, res Result, _ *sim.Result) {
			if !deleted && res.Index == 2 {
				if err := os.Remove(path); err != nil {
					t.Errorf("remove: %v", err)
				}
				deleted = true
			}
		}}).Run(jobs)
	if err != nil {
		t.Fatalf("deleting the journal must not fail the sweep: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("closing an unlinked journal: %v", err)
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatal("sweep results disturbed by journal deletion")
	}

	// The checkpoint is gone; resuming recreates it from scratch.
	j2, prefix, err := OpenJournalResume(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 0 {
		t.Fatalf("resume of a deleted journal returned %d results", len(prefix))
	}
	got, err := (&Runner{Workers: 4, Journal: j2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-deletion rerun differs from uninterrupted sweep")
	}
}

// TestResumePartialJSONTails extends the torn-tail contract to every
// shape a crash can leave the final record in: torn mid-object without a
// newline, a complete line that is not valid JSON, and a complete line
// holding a syntactically valid but truncated record of a *later* crash
// artefact. Each must resume from the preceding good line and reproduce
// the uninterrupted bytes.
func TestResumePartialJSONTails(t *testing.T) {
	jobs := testJobs(2, 150)
	want, err := (&Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "full.jsonl")
	j, err := CreateJournal(base, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Workers: 4, Journal: j}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))

	cases := []struct {
		name string
		tail []byte
		keep int // journal lines kept before the tail (after the header)
		want int // resume prefix length
	}{
		{"torn-mid-object", []byte(`{"index":4,"seed":1,"hor`), 4, 4},
		{"complete-but-malformed", []byte("{\"index\":4,!!}\n"), 4, 4},
		{"partial-object-valid-json", []byte("{\"index\":4}\n"), 4, 5},
		{"torn-after-newline", []byte("{\n"), 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.jsonl")
			body := append(bytes.Join(lines[:1+tc.keep], nil), tc.tail...)
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			j2, prefix, err := OpenJournalResume(path, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if len(prefix) != tc.want {
				t.Fatalf("resume prefix = %d results, want %d", len(prefix), tc.want)
			}
			// A syntactically valid partial record decodes to a result
			// whose Desc does not match the job list — the runner's
			// prefix validation must refuse it rather than run with it.
			r := &Runner{Workers: 4, Journal: j2, Resume: prefix}
			got, err := r.Run(jobs)
			if tc.name == "partial-object-valid-json" {
				if err == nil {
					t.Fatal("runner accepted a resume prefix holding a partial record")
				}
				j2.Close()
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("resumed sweep differs from uninterrupted sweep")
			}
			after, err := ReadJournalResults(path, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, want) {
				t.Fatal("journal after resume does not hold the full sweep")
			}
		})
	}
}

// TestReadJournalResults covers the read-only journal view the daemon
// serves results from: full file, torn tail, and header validation.
func TestReadJournalResults(t *testing.T) {
	jobs := testJobs(1, 100)
	want, err := (&Runner{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "read.jsonl")
	j, err := CreateJournal(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Workers: 2, Journal: j}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalResults(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("read-only view differs from the sweep")
	}
	if _, err := ReadJournalResults(path, len(jobs)+1); err == nil {
		t.Fatal("job-count mismatch accepted")
	}
	if got, err := ReadJournalResults(path, 0); err != nil || len(got) != len(want) {
		t.Fatalf("jobs<=0 must skip the count check: %v (%d results)", err, len(got))
	}
	// Torn tail: the partial line is invisible to readers.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"index":99,"to`)
	f.Close()
	got, err = ReadJournalResults(path, len(jobs))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail leaked into the read-only view: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "not.jsonl")
	if err := os.WriteFile(bad, []byte("plain text\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalResults(bad, 0); err == nil {
		t.Fatal("non-journal file accepted")
	}
}
