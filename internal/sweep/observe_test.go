package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestTimeoutCancelsMidRun gives the runner one enormous job and a tiny
// deadline: with context threading the in-flight run must be cancelled
// mid-run, so the sweep returns promptly instead of after the full
// multi-second horizon (the pre-context behavior).
func TestTimeoutCancelsMidRun(t *testing.T) {
	build := func(uint64) *core.Engine {
		return core.NewEngine(core.NewSpec(graph.Line(5)).SetSource(0, 1).SetSink(4, 1), core.NewLGG())
	}
	jobs := []Job{{Desc: Desc{Index: 0, Horizon: 50_000_000}, Build: build}}
	r := &Runner{Workers: 1, Timeout: 30 * time.Millisecond}
	start := time.Now()
	rs, err := r.Run(jobs)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if len(rs) != 0 {
		t.Fatalf("cancelled sweep returned %d results, want 0", len(rs))
	}
	if elapsed > 5*time.Second {
		t.Fatalf("sweep took %v — the in-flight run was not cancelled mid-run", elapsed)
	}
}

func TestRunWithContextCallerCancel(t *testing.T) {
	jobs := testJobs(2, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	var got int
	r := &Runner{Workers: 2, OnResult: func(Job, Result, *sim.Result) {
		got++
		cancel() // stop the sweep after the first emitted result
	}}
	rs, err := r.RunWithContext(ctx, jobs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled wrap", err)
	}
	if len(rs) >= len(jobs) {
		t.Fatalf("cancelled sweep completed all %d jobs", len(rs))
	}
	for i, res := range rs {
		if res.Index != i {
			t.Fatalf("partial results not a contiguous prefix at %d", i)
		}
	}
}

func TestAggregateCellsValues(t *testing.T) {
	rs := []Result{
		{Desc: Desc{Grid: "g", Network: "n", Router: "r", Variant: "v"},
			Verdict: sim.Stable, MeanBacklog: 2, PeakPotential: 10, PeakQueued: 4,
			Injected: 100, Sent: 90, Lost: 5, Extracted: 80},
		{Desc: Desc{Grid: "g", Network: "n", Router: "r", Variant: "v", Replica: 1},
			Verdict: sim.Diverging, MeanBacklog: 6, PeakPotential: 30, PeakQueued: 9,
			Injected: 100, Sent: 95, Lost: 2, Extracted: 70},
	}
	cells, err := AggregateCells(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Replicas != 2 || c.StableShare != 0.5 || c.WorstVerdict != sim.Diverging {
		t.Fatalf("cell identity stats wrong: %+v", c)
	}
	if c.MeanBacklog != 4 || c.PeakPotential != 30 || c.PeakQueued != 9 {
		t.Fatalf("cell aggregates wrong: %+v", c)
	}
	if c.Injected != 200 || c.Sent != 185 || c.Lost != 7 || c.Extracted != 150 {
		t.Fatalf("cell totals wrong: %+v", c)
	}
}

// TestObservabilityDeterminism is the worker-count contract for every
// new output surface: cell JSONL, cell CSV, the Prometheus exposition
// of RecordMetrics, and the live event stream must all be byte-stable
// between a 1-worker and an 8-worker execution of the same grid.
func TestObservabilityDeterminism(t *testing.T) {
	const replicas = 2
	jobs := testJobs(replicas, 300)
	type outputs struct{ cellsJSONL, cellsCSV, prom, events string }
	capture := func(workers int) outputs {
		var events bytes.Buffer
		es := NewEventStreamer(&events, replicas)
		r := &Runner{Workers: workers, OnResult: es.OnResult}
		rs, err := r.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := es.Flush(); err != nil {
			t.Fatal(err)
		}
		cells, err := AggregateCells(rs, replicas)
		if err != nil {
			t.Fatal(err)
		}
		var cj, cc, pm bytes.Buffer
		if err := WriteCellsJSONL(&cj, cells); err != nil {
			t.Fatal(err)
		}
		if err := WriteCellsCSV(&cc, cells); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		RecordMetrics(reg, rs)
		if err := reg.WriteProm(&pm); err != nil {
			t.Fatal(err)
		}
		return outputs{cj.String(), cc.String(), pm.String(), events.String()}
	}
	serial, parallel := capture(1), capture(8)
	if serial != parallel {
		t.Fatal("observability outputs differ between 1 and 8 workers")
	}
	if n := strings.Count(serial.events, `"event":"run"`); n != len(jobs) {
		t.Fatalf("event stream has %d run events, want %d", n, len(jobs))
	}
	if n := strings.Count(serial.events, `"event":"cell"`); n != len(jobs)/replicas {
		t.Fatalf("event stream has %d cell events, want %d", n, len(jobs)/replicas)
	}
	if !strings.HasPrefix(serial.cellsCSV, "grid,network,router,variant,replicas,") {
		t.Fatalf("cells CSV header unexpected: %q", serial.cellsCSV[:60])
	}
}

func TestRecordMetricsCounts(t *testing.T) {
	rs := []Result{
		{Verdict: sim.Stable, Injected: 10, Sent: 9, Lost: 1, Extracted: 8, PeakPotential: 7, PeakQueued: 3},
		{Verdict: sim.Diverging, Injected: 20, Sent: 18, Lost: 0, Extracted: 2, PeakPotential: 90, PeakQueued: 30},
		{Verdict: sim.Inconclusive},
	}
	reg := metrics.NewRegistry()
	RecordMetrics(reg, rs)
	checks := map[string]int64{
		MetricRuns:           3,
		MetricRunsStable:     1,
		MetricRunsDiverging:  1,
		MetricRunsUndecided:  1,
		MetricSweepInjected:  30,
		MetricSweepLost:      1,
		MetricSweepExtracted: 10,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge(MetricSweepPeakPot, "").Value(); got != 90 {
		t.Errorf("peak potential gauge = %d, want 90", got)
	}
}
