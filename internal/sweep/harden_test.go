package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestPanicIsolation: one poisoned job must become a Failed result while
// every other run completes untouched — a panic never kills the sweep.
func TestPanicIsolation(t *testing.T) {
	clean := testJobs(2, 150)
	want, err := (&Runner{Workers: 4}).Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	poisoned := testJobs(2, 150)
	const bad = 7
	poisoned[bad].Build = func(seed uint64) *core.Engine { panic("boom at 7") }
	rs, err := (&Runner{Workers: 4}).Run(poisoned)
	if err != nil {
		t.Fatalf("a failed run must not error the sweep: %v", err)
	}
	if len(rs) != len(poisoned) {
		t.Fatalf("got %d results, want %d", len(rs), len(poisoned))
	}
	f := rs[bad]
	if !f.Failed || !strings.Contains(f.Error, "boom at 7") || f.Stack == "" {
		t.Fatalf("poisoned run not recorded as Failed with error+stack: %+v", f)
	}
	if f.Index != bad || f.Verdict != 0 {
		t.Fatalf("failed result carries wrong identity/verdict: %+v", f)
	}
	for i := range rs {
		if i == bad {
			continue
		}
		if !reflect.DeepEqual(rs[i], want[i]) {
			t.Fatalf("healthy run %d disturbed by the failure:\n got %+v\nwant %+v", i, rs[i], want[i])
		}
	}
}

// TestRetryRecoversTransientPanic: a run that panics once and then
// succeeds must be retried into a normal result when Retries allows.
func TestRetryRecoversTransientPanic(t *testing.T) {
	clean := testJobs(1, 100)
	want, err := (&Runner{Workers: 1}).Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	flaky := testJobs(1, 100)
	const idx = 3
	inner := flaky[idx].Build
	var calls atomic.Int64
	flaky[idx].Build = func(seed uint64) *core.Engine {
		if calls.Add(1) == 1 {
			panic("transient")
		}
		return inner(seed)
	}
	rs, err := (&Runner{Workers: 2, Retries: 2, RetryBackoff: time.Millisecond}).Run(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if rs[idx].Failed {
		t.Fatalf("retry did not rescue the flaky run: %+v", rs[idx])
	}
	if !reflect.DeepEqual(rs[idx], want[idx]) {
		t.Fatalf("retried run differs from clean run:\n got %+v\nwant %+v", rs[idx], want[idx])
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("build called %d times, want 2 (fail, then success)", got)
	}

	// Without retries the same panic is terminal.
	calls.Store(0)
	rs, err = (&Runner{Workers: 2}).Run(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[idx].Failed || calls.Load() != 1 {
		t.Fatalf("Retries=0 still retried (calls=%d, failed=%v)", calls.Load(), rs[idx].Failed)
	}
}

// readJournal decodes the raw lines of a journal file.
func readJournal(t *testing.T, path string) (journalHeader, []Result) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("journal %s has no header", path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	var rs []Result
	for sc.Scan() {
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, res)
	}
	return hdr, rs
}

// TestJournalResumeReproducesSweep is the crash-recovery contract: kill a
// sweep part-way (simulated by truncating its journal, with a torn tail),
// resume from the journal, and the final output must be byte-identical to
// an uninterrupted run.
func TestJournalResumeReproducesSweep(t *testing.T) {
	jobs := testJobs(2, 150)
	want, err := (&Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Full journalled run first, to harvest authentic journal bytes.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Workers: 4, Journal: j}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, onDisk := readJournal(t, path)
	if hdr.Jobs != len(jobs) || !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("journal does not mirror the sweep: hdr=%+v lines=%d", hdr, len(onDisk))
	}

	// Simulate a crash: keep the header + 5 results, then a torn line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	torn := append(bytes.Join(lines[:1+5], nil), []byte(`{"index":6,"se`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, resume, err := OpenJournalResume(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) != 5 || !reflect.DeepEqual(resume, want[:5]) {
		t.Fatalf("resume prefix wrong: %d results", len(resume))
	}
	var replayed []int
	r := &Runner{Workers: 4, Journal: j2, Resume: resume,
		OnResult: func(jb Job, res Result, full *sim.Result) {
			if res.Index < 5 && full != nil {
				t.Errorf("replayed run %d carries a full result", res.Index)
			}
			replayed = append(replayed, res.Index)
		}}
	got, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from uninterrupted sweep")
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("OnResult fired %d times, want %d (replays included)", len(replayed), len(jobs))
	}
	if _, after := readJournal(t, path); !reflect.DeepEqual(after, want) {
		t.Fatal("journal after resume does not hold the full sweep")
	}

	// Byte-level check, the strongest form of the contract.
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, got); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("resumed JSONL bytes differ from uninterrupted JSONL")
	}
}

// TestJournalRejectsForeignFiles: a journal for the wrong sweep (or a file
// that is not a journal) must error rather than be clobbered.
func TestJournalRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	notJournal := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notJournal, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournalResume(notJournal, 4); err == nil {
		t.Fatal("accepted a non-journal file")
	}
	mismatch := filepath.Join(dir, "other.jsonl")
	j, err := CreateJournal(mismatch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournalResume(mismatch, 4); err == nil {
		t.Fatal("accepted a journal with a different job count")
	}
}

// TestResumePrefixValidated: a resume prefix that does not match the job
// list (wrong seed) must be refused before any run starts.
func TestResumePrefixValidated(t *testing.T) {
	jobs := testJobs(1, 100)
	bogus := []Result{{Desc: Desc{Index: 0, Seed: 999, Horizon: 100}}}
	if _, err := (&Runner{Resume: bogus}).Run(jobs); err == nil {
		t.Fatal("mismatched resume prefix accepted")
	}
	tooLong := make([]Result, len(jobs)+1)
	if _, err := (&Runner{Resume: tooLong}).Run(jobs); err == nil {
		t.Fatal("oversized resume prefix accepted")
	}
}

// TestJournalHoldsFinishedPrefixOnTimeout is the satellite-2 regression:
// when a sweep is cut off by its deadline, whatever reached the journal on
// disk must be exactly the finished, in-order prefix the runner returned.
func TestJournalHoldsFinishedPrefixOnTimeout(t *testing.T) {
	jobs := testJobs(4, 200_000)
	path := filepath.Join(t.TempDir(), "timeout.jsonl")
	j, err := CreateJournal(path, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (&Runner{Workers: 2, Timeout: 5 * time.Millisecond, Journal: j}).Run(jobs)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, onDisk := readJournal(t, path)
	if len(onDisk) != len(rs) {
		t.Fatalf("journal holds %d results, runner returned %d", len(onDisk), len(rs))
	}
	if len(rs) > 0 && !reflect.DeepEqual(onDisk, rs) {
		t.Fatal("journal prefix differs from returned prefix")
	}
	for i, res := range onDisk {
		if res.Index != i {
			t.Fatalf("journal prefix not contiguous at %d (index %d)", i, res.Index)
		}
	}
}

// faultJobs is testJobs' sibling with fault injection on every run: a
// burst-loss window and a link-down window, plus a recovery observer
// whose report must surface in the sweep results.
func faultJobs(replicas int, horizon int64) []Job {
	sched := faults.Schedule{Events: []faults.Event{
		{Kind: faults.Burst, From: 20, To: 80, PGood: 0.02, PBad: 0.5, GtoB: 0.1, BtoG: 0.3},
		{Kind: faults.LinkDown, From: 40, To: 70, Edges: []graph.EdgeID{0}},
	}}
	specs := []*core.Spec{
		core.NewSpec(graph.Cycle(4)).SetSource(0, 1).SetSink(2, 2),
		core.NewSpec(graph.ThetaGraph(3, 2)).SetSource(0, 2).SetSink(1, 3),
	}
	return mustJobs(&Space{
		Name:     "fault-test",
		BaseSeed: 7,
		Replicas: replicas,
		Horizon:  horizon,
		Axes: []Axis{
			{Name: "network", Labels: []string{"cycle(4)", "theta(3,2)"}},
			{Name: "router", Labels: []string{"lgg"}},
			{Name: "variant", Labels: []string{"faulty"}},
		},
		SeedFn: func(Point, int) uint64 { return 7 },
		Build: func(p Probe) *core.Engine {
			e := core.NewEngine(specs[int(p.Point[0].Value)], core.NewLGG())
			r := rng.ForRun(7, uint64(p.Index)).Split(2)
			if _, err := faults.Inject(e, sched, r.Split(0xFA)); err != nil {
				panic(err)
			}
			e.AddObserver(faults.NewRecoveryObserver(sched))
			return e
		},
	})
}

// TestFaultSweepDeterminism extends the worker-count contract to fault
// injection: Gilbert–Elliott chains, link-down windows and the recovery
// report must all be byte-identical at 1 and 8 workers.
func TestFaultSweepDeterminism(t *testing.T) {
	jobs := faultJobs(4, 300)
	encode := func(workers int) string {
		rs, err := (&Runner{Workers: workers}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := encode(1)
	if parallel := encode(8); parallel != serial {
		t.Fatal("fault-schedule sweep JSONL differs between 1 and 8 workers")
	}
	if !strings.Contains(serial, `"recovery":`) {
		t.Fatal("no run surfaced a recovery verdict")
	}
	for _, f := range []string{`"time_to_drain":`, `"fault_peak_backlog":`} {
		if !strings.Contains(serial, f) {
			t.Fatalf("results missing %s field", f)
		}
	}
}
