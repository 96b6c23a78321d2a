package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/rng"
	"repro/internal/sim"
)

// testJobs exercises every randomized axis (arrivals thinning, losses,
// random-tie routing) so a determinism regression cannot hide behind a
// deterministic workload. Every run keeps the base seed and draws from
// rng.ForRun(base, index): sub-stream 1 feeds the router, 2 the variant.
func testJobs(replicas int, horizon int64) []Job {
	specs := []*core.Spec{
		core.NewSpec(graph.Line(5)).SetSource(0, 1).SetSink(4, 1),
		core.NewSpec(graph.ThetaGraph(3, 2)).SetSource(0, 2).SetSink(1, 3),
	}
	return mustJobs(&Space{
		Name:     "test",
		BaseSeed: 1,
		Replicas: replicas,
		Horizon:  horizon,
		Axes: []Axis{
			{Name: "network", Labels: []string{"line(5)", "theta(3,2)"}},
			{Name: "router", Labels: []string{"lgg", "lgg-random-ties"}},
			{Name: "variant", Labels: []string{"exact", "thinned+lossy"}},
		},
		SeedFn: func(Point, int) uint64 { return 1 },
		Build: func(p Probe) *core.Engine {
			rs := rng.ForRun(1, uint64(p.Index))
			var router core.Router = core.NewLGG()
			if p.Point[1].Value == 1 {
				router = core.NewLGGRandomTies(rs.Split(1))
			}
			e := core.NewEngine(specs[int(p.Point[0].Value)], router)
			if p.Point[2].Value == 1 {
				r := rs.Split(2)
				e.Arrivals = &arrivals.Thinned{P: 0.8, R: r.Split(1)}
				e.Loss = &loss.Bernoulli{P: 0.2, R: r.Split(2)}
			}
			return e
		},
	})
}

// mustJobs enumerates a fixture space, which is enumerable by
// construction.
func mustJobs(s *Space) []Job {
	jobs, err := s.Jobs()
	if err != nil {
		panic(err)
	}
	return jobs
}

func TestGridEnumeration(t *testing.T) {
	jobs := testJobs(3, 100)
	if len(jobs) != 2*2*2*3 {
		t.Fatalf("grid enumerated %d jobs, want 24", len(jobs))
	}
	for i, j := range jobs {
		if j.Desc.Index != i {
			t.Fatalf("job %d carries index %d", i, j.Desc.Index)
		}
		if j.Desc.Horizon != 100 || j.Desc.Grid != "test" {
			t.Fatalf("job %d descriptor incomplete: %+v", i, j.Desc)
		}
	}
	// Replicas of a cell must stay contiguous so Cells() applies.
	if jobs[0].Desc.Variant != jobs[2].Desc.Variant || jobs[0].Desc.Replica != 0 || jobs[2].Desc.Replica != 2 {
		t.Fatalf("replicas not contiguous: %+v %+v", jobs[0].Desc, jobs[2].Desc)
	}
}

// TestDeterminismAcrossWorkerCounts is the sweep contract: the same grid
// run with 1 worker and with 8 workers produces byte-identical JSON lines.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs(2, 300)
	encode := func(workers int) string {
		r := &Runner{Workers: workers}
		rs, err := r.Run(jobs)
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
		t.Fatal("8-worker JSONL differs from 1-worker JSONL")
	}
	if lines := strings.Count(serial, "\n"); lines != len(jobs) {
		t.Fatalf("JSONL has %d lines, want %d", lines, len(jobs))
	}
	// And the lines decode back to the verdict strings, not raw ints.
	var first map[string]any
	if err := json.Unmarshal([]byte(serial[:strings.Index(serial, "\n")]), &first); err != nil {
		t.Fatal(err)
	}
	if _, ok := first["verdict"].(string); !ok {
		t.Fatalf("verdict not encoded as text: %v", first["verdict"])
	}
}

func TestRunnerOrderAndOnResult(t *testing.T) {
	jobs := testJobs(2, 120)
	var seen []int
	r := &Runner{Workers: 4, Window: 5, OnResult: func(j Job, res Result, full *sim.Result) {
		if full == nil || full.Totals.Steps != 120 {
			t.Errorf("job %d: full result missing or truncated", j.Desc.Index)
		}
		if res.Index != j.Desc.Index {
			t.Errorf("summary index %d for job %d", res.Index, j.Desc.Index)
		}
		seen = append(seen, j.Desc.Index)
	}}
	rs, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(jobs) || len(seen) != len(jobs) {
		t.Fatalf("got %d results, %d callbacks, want %d", len(rs), len(seen), len(jobs))
	}
	for i := range seen {
		if seen[i] != i || rs[i].Index != i {
			t.Fatalf("results not in job order at %d: callback=%d result=%d", i, seen[i], rs[i].Index)
		}
	}
}

func TestRunnerTimeout(t *testing.T) {
	// Long-horizon jobs with a tiny deadline: the runner must stop
	// dispatching, return a clean prefix and wrap ErrTimeout.
	jobs := testJobs(4, 200_000)
	r := &Runner{Workers: 2, Timeout: time.Millisecond}
	rs, err := r.Run(jobs)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if len(rs) >= len(jobs) {
		t.Fatalf("timeout sweep completed all %d jobs", len(rs))
	}
	for i, res := range rs {
		if res.Index != i {
			t.Fatalf("partial results not a contiguous prefix at %d", i)
		}
	}
}

func TestRunnerEmpty(t *testing.T) {
	rs, err := (&Runner{}).Run(nil)
	if err != nil || rs != nil {
		t.Fatalf("empty run: %v %v", rs, err)
	}
}

func TestSummarizeMatchesSim(t *testing.T) {
	build := func(seed uint64) *core.Engine {
		e := core.NewEngine(core.NewSpec(graph.Line(4)).SetSource(0, 1).SetSink(3, 1), core.NewLGG())
		e.Loss = &loss.Bernoulli{P: 0.1, R: rng.New(seed)}
		return e
	}
	full := sim.Run(build(5), sim.Options{Horizon: 250, RecordDeltas: true})
	res := Summarize(Desc{Seed: 5}, full)
	if res.Verdict != full.Diagnosis.Verdict || res.Slope != full.Diagnosis.Slope {
		t.Fatalf("diagnosis mismatch: %+v vs %+v", res, full.Diagnosis)
	}
	if res.PeakPotential != full.Totals.PeakPotential || res.Lost != full.Totals.Lost {
		t.Fatalf("totals mismatch: %+v vs %+v", res, full.Totals)
	}
	if res.MaxDelta == 0 {
		t.Fatal("MaxDelta not populated despite RecordDeltas")
	}
	q := full.Series.Queued
	var mean float64
	for _, x := range q[len(q)/2:] {
		mean += x
	}
	mean /= float64(len(q) - len(q)/2)
	if res.MeanBacklog != mean {
		t.Fatalf("MeanBacklog = %v, want %v", res.MeanBacklog, mean)
	}
}

func TestCellsAndReductions(t *testing.T) {
	rs := []Result{
		{Verdict: sim.Stable, MeanBacklog: 2, PeakPotential: 10},
		{Verdict: sim.Diverging, MeanBacklog: 4, PeakPotential: 30},
		{Verdict: sim.Stable, MeanBacklog: 6, PeakPotential: 20},
		{Verdict: sim.Inconclusive, MeanBacklog: 8, PeakPotential: 5},
	}
	cells, err := Cells(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || len(cells[0]) != 2 {
		t.Fatalf("cells shape wrong: %v", cells)
	}
	if s := StableShare(cells[0]); s != 0.5 {
		t.Fatalf("StableShare = %v", s)
	}
	if m := MeanBacklog(cells[1]); m != 7 {
		t.Fatalf("MeanBacklog = %v", m)
	}
	if p := PeakPotential(rs); p != 30 {
		t.Fatalf("PeakPotential = %v", p)
	}
	if v := WorstVerdict(cells[0]); v != sim.Diverging {
		t.Fatalf("WorstVerdict = %v", v)
	}
	if v := WorstVerdict(cells[1]); v != sim.Inconclusive {
		t.Fatalf("WorstVerdict = %v", v)
	}
	if _, err := Cells(rs, 3); err == nil {
		t.Fatal("ragged Cells accepted")
	}
	if _, err := Cells(rs, 0); err == nil {
		t.Fatal("non-positive cell size accepted")
	}
}

func TestReporterThrottles(t *testing.T) {
	var buf bytes.Buffer
	report := NewReporter(&buf, time.Hour)
	for done := 1; done <= 10; done++ {
		report(Progress{Done: done, Total: 10, Elapsed: time.Second})
	}
	out := buf.String()
	// Exactly two lines: the first result (interval elapsed since zero
	// time) and the forced final one.
	if n := strings.Count(out, "\n"); n != 2 {
		t.Fatalf("reporter wrote %d lines:\n%s", n, out)
	}
	if !strings.Contains(out, "10/10") {
		t.Fatalf("final line missing:\n%s", out)
	}
}

func TestProgressCountsUp(t *testing.T) {
	jobs := testJobs(1, 50)
	var last Progress
	r := &Runner{Workers: 3, Progress: func(p Progress) {
		if p.Done != last.Done+1 || p.Total != len(jobs) {
			t.Errorf("progress out of order: %+v after %+v", p, last)
		}
		last = p
	}}
	if _, err := r.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if last.Done != len(jobs) {
		t.Fatalf("final progress %d/%d", last.Done, last.Total)
	}
}
