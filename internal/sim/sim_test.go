package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func lineSpec(n int, in, out int64) *core.Spec {
	return core.NewSpec(graph.Line(n)).SetSource(0, in).SetSink(graph.NodeID(n-1), out)
}

func TestRunStableLine(t *testing.T) {
	e := core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	r := Run(e, Options{Horizon: 400})
	if r.Diagnosis.Verdict != Stable {
		t.Fatalf("verdict = %v (%+v)", r.Diagnosis.Verdict, r.Diagnosis)
	}
	if len(r.Series.Potential) != 400 || len(r.Series.Queued) != 400 {
		t.Fatalf("series lengths %d/%d", len(r.Series.Potential), len(r.Series.Queued))
	}
	if r.Totals.Steps != 400 {
		t.Fatalf("steps = %d", r.Totals.Steps)
	}
}

// TestRunAllocsIndependentOfHorizon holds RunContext to a fixed
// allocation count per run: the step stats are not re-allocated per
// step and the series are presized instead of grown by doubling.
func TestRunAllocsIndependentOfHorizon(t *testing.T) {
	obs := core.ObserverFunc(func(int64, *core.Snapshot, *core.StepStats) {})
	allocs := func(horizon int64) float64 {
		e := core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
		return testing.AllocsPerRun(5, func() {
			Run(e, Options{Horizon: horizon, Observers: []core.StepObserver{obs}})
		})
	}
	short, long := allocs(1000), allocs(4000)
	if short != long {
		t.Fatalf("Run allocates %v times at horizon 1000 but %v at 4000", short, long)
	}
}

func TestRunDivergingLine(t *testing.T) {
	e := core.NewEngine(lineSpec(4, 3, 3), core.NewLGG())
	r := Run(e, Options{Horizon: 400})
	if r.Diagnosis.Verdict != Diverging {
		t.Fatalf("verdict = %v (%+v)", r.Diagnosis.Verdict, r.Diagnosis)
	}
	if r.Diagnosis.Slope <= 0 {
		t.Fatalf("slope = %v, want positive", r.Diagnosis.Slope)
	}
}

func TestRunStride(t *testing.T) {
	e := core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	r := Run(e, Options{Horizon: 100, Stride: 10})
	if len(r.Series.Potential) != 10 {
		t.Fatalf("strided series length %d, want 10", len(r.Series.Potential))
	}
}

func TestRunRecordDeltas(t *testing.T) {
	e := core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	r := Run(e, Options{Horizon: 50, RecordDeltas: true})
	if len(r.Series.Deltas) != 50 {
		t.Fatalf("deltas length %d", len(r.Series.Deltas))
	}
	// Deltas must telescope to the final potential (initial state empty).
	var sum float64
	for _, d := range r.Series.Deltas {
		sum += d
	}
	if sum != float64(r.Totals.FinalPotential) {
		t.Fatalf("telescoped %v, want %d", sum, r.Totals.FinalPotential)
	}
}

func TestRunRecordProfile(t *testing.T) {
	// Saturated line: the time-averaged profile must be a decreasing
	// staircase from source to sink.
	e := core.NewEngine(lineSpec(5, 1, 1), core.NewLGG())
	r := Run(e, Options{Horizon: 2000, RecordProfile: true})
	if len(r.MeanQueues) != 5 {
		t.Fatalf("profile length %d", len(r.MeanQueues))
	}
	for v := 0; v+1 < len(r.MeanQueues); v++ {
		if r.MeanQueues[v] < r.MeanQueues[v+1] {
			t.Fatalf("profile not decreasing at %d: %v", v, r.MeanQueues)
		}
	}
	if r.MeanQueues[0] <= 0 {
		t.Fatal("source mean queue should be positive")
	}
	// without the flag, nothing recorded
	e2 := core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	if r2 := Run(e2, Options{Horizon: 50}); r2.MeanQueues != nil {
		t.Fatal("profile recorded without the flag")
	}
}

func TestRunPanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted horizon 0")
		}
	}()
	Run(core.NewEngine(lineSpec(3, 1, 1), core.NewLGG()), Options{})
}

func TestDetectEdgeCases(t *testing.T) {
	if d := Detect(make([]float64, 5)); d.Verdict != Inconclusive {
		t.Fatalf("short series: %v", d.Verdict)
	}
	zeros := make([]float64, 100)
	if d := Detect(zeros); d.Verdict != Stable {
		t.Fatalf("all-zero series: %v", d.Verdict)
	}
	// Linear growth: clearly diverging.
	lin := make([]float64, 100)
	for i := range lin {
		lin[i] = float64(i)
	}
	if d := Detect(lin); d.Verdict != Diverging {
		t.Fatalf("linear series: %v (%+v)", d.Verdict, d)
	}
	// Flat positive: stable.
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 42
	}
	if d := Detect(flat); d.Verdict != Stable {
		t.Fatalf("flat series: %v", d.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	if Stable.String() != "stable" || Diverging.String() != "diverging" ||
		Inconclusive.String() != "inconclusive" {
		t.Fatal("verdict strings")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict empty")
	}
}

func TestRunSeedsParallelAndOrdered(t *testing.T) {
	seeds := Seeds(100, 8)
	if seeds[0] != 100 || seeds[7] != 107 {
		t.Fatalf("seeds = %v", seeds)
	}
	rs := RunSeeds(func(seed uint64) *core.Engine {
		return core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	}, seeds, Options{Horizon: 100})
	if len(rs) != 8 {
		t.Fatalf("results = %d", len(rs))
	}
	if !AllVerdict(rs, Stable) {
		t.Fatal("stable line misjudged in some seed")
	}
	if StableShare(rs) != 1 {
		t.Fatalf("stable share = %v", StableShare(rs))
	}
}

func TestForEachCoversAll(t *testing.T) {
	const n = 100
	var hits [n]int32
	var total int32
	ForEach(n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
		atomic.AddInt32(&total, 1)
	})
	if total != n {
		t.Fatalf("total = %d", total)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	// n smaller than worker count
	var small int32
	ForEach(1, func(i int) { atomic.AddInt32(&small, 1) })
	if small != 1 {
		t.Fatal("ForEach(1) wrong")
	}
	ForEach(0, func(i int) { t.Fatal("ForEach(0) called fn") })
}

func TestExtractors(t *testing.T) {
	rs := RunSeeds(func(uint64) *core.Engine {
		return core.NewEngine(lineSpec(3, 1, 1), core.NewLGG())
	}, Seeds(0, 3), Options{Horizon: 64})
	pk := PeakPotentials(rs)
	mb := MeanBacklogs(rs)
	if len(pk) != 3 || len(mb) != 3 {
		t.Fatal("extractor lengths")
	}
	for i := range pk {
		if pk[i] < 0 || mb[i] < 0 {
			t.Fatal("negative extraction")
		}
	}
	if StableShare(nil) != 0 {
		t.Fatal("empty StableShare")
	}
	if AllVerdict(nil, Stable) {
		t.Fatal("AllVerdict on empty should be false")
	}
}

func TestForEachWorkersCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var hits [37]int32
		ForEachWorkers(len(hits), workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
	// n = 0 must be a no-op, not a hang.
	ForEachWorkers(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestVerdictTextRoundTrip(t *testing.T) {
	for _, v := range []Verdict{Inconclusive, Stable, Diverging} {
		b, err := v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Verdict
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %v -> %s -> %v", v, b, got)
		}
	}
	var v Verdict
	if err := v.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("bogus verdict accepted")
	}
}
