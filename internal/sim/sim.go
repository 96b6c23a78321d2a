// Package sim runs network engines over long horizons, records the
// time series the paper's definitions are phrased in (the network state
// P_t = Σ q_t(v)², the backlog N_t = Σ q_t(v)), and decides empirically
// whether a run is stable ("the number of packets stored in the network
// remains bounded", Definition 2) or diverging.
//
// Multi-seed and sweep helpers execute runs on a bounded worker pool, one
// engine per goroutine — engines and routers are single-threaded by
// design, so parallelism happens strictly across runs.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Series holds per-step time series of a run. With Stride > 1 in Options
// only every Stride-th step is recorded (the step index is implicit).
type Series struct {
	Stride    int64
	Potential []float64 // P_t after each recorded step
	Queued    []float64 // N_t after each recorded step
	MaxQ      []float64
	Deltas    []float64 // P_{t+1} − P_t for every executed step (always stride 1)
}

// Options tunes a Run.
type Options struct {
	// Horizon is the number of steps to execute. Required.
	Horizon int64
	// Stride subsamples the recorded series (default 1 = every step).
	Stride int64
	// RecordDeltas additionally keeps every one-step potential change
	// (needed by the Property 1/2 experiments).
	RecordDeltas bool
	// RecordProfile additionally accumulates the time-averaged queue
	// length per node (the staircase profiles of E21).
	RecordProfile bool
	// Observers are invoked after every executed step, following any
	// observers registered directly on the engine. They receive the
	// engine's per-step buffers (valid only during the call) and, when a
	// run fleet shares one observer (RunSeeds, sweeps), must be safe for
	// concurrent use — see core.StepObserver.
	Observers []core.StepObserver
	// ShardWorkers sets the engine's Workers: the goroutines its prep,
	// stats and plan phases fan out over. ≤ 1, the zero value included
	// (the right choice inside sweeps, which already parallelize across
	// runs), runs every phase inline. Output is byte-identical at any
	// value.
	ShardWorkers int
}

// Verdict classifies a run's boundedness.
type Verdict int

const (
	// Inconclusive: the detector cannot call it either way.
	Inconclusive Verdict = iota
	// Stable: the backlog shows no sustained growth.
	Stable
	// Diverging: the backlog grows steadily through the end of the run.
	Diverging
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Stable:
		return "stable"
	case Diverging:
		return "diverging"
	case Inconclusive:
		return "inconclusive"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarshalText encodes the verdict as its String form, so JSON sweep
// outputs carry "stable"/"diverging"/"inconclusive" instead of raw ints.
func (v Verdict) MarshalText() ([]byte, error) {
	return []byte(v.String()), nil
}

// UnmarshalText is the inverse of MarshalText.
func (v *Verdict) UnmarshalText(b []byte) error {
	for _, c := range []Verdict{Inconclusive, Stable, Diverging} {
		if string(b) == c.String() {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("sim: unknown verdict %q", b)
}

// Diagnosis carries the detector's evidence.
type Diagnosis struct {
	Verdict Verdict
	// Slope is the fitted backlog growth per step over the trailing half.
	Slope float64
	// RelGrowth is the backlog growth across the trailing half relative
	// to its mean level.
	RelGrowth float64
	// R2 of the trailing-half linear fit.
	R2 float64
}

// Result is a completed run.
type Result struct {
	Totals    core.Totals
	Series    Series
	Diagnosis Diagnosis
	// MeanQueues is the per-node time-averaged queue length (only with
	// Options.RecordProfile).
	MeanQueues []float64
}

// Run executes the engine for opts.Horizon steps and classifies the run.
// It is RunContext with a background (never-cancelled) context.
func Run(e *core.Engine, opts Options) *Result {
	return RunContext(context.Background(), e, opts)
}

// cancelCheckMask batches the cancellation poll: the context is checked
// every 64 steps, so even fine-grained deadlines cost one non-blocking
// channel select per 64 engine steps.
const cancelCheckMask = 63

// maxPresize caps the series presize at 16k points (128 KB per series).
const maxPresize = 1 << 14

// RunContext executes the engine for opts.Horizon steps, stopping early
// when ctx is cancelled or its deadline passes. A cancelled run returns
// the partial Result accumulated so far with an Inconclusive verdict —
// callers distinguish "cancelled" from "genuinely inconclusive" by
// Totals.Steps < opts.Horizon (or by ctx.Err()). A full-length run is
// classified by Detect as usual.
func RunContext(ctx context.Context, e *core.Engine, opts Options) *Result {
	if opts.Horizon <= 0 {
		panic("sim: Run needs a positive horizon")
	}
	e.Workers = opts.ShardWorkers
	stride := opts.Stride
	if stride <= 0 {
		stride = 1
	}
	// Presize the recorded series: one point per stride, capped because
	// Horizon is caller-chosen and may be far longer than any run will
	// actually last (a cancelled or deadline-bound job).
	n := int(min((opts.Horizon+stride-1)/stride, maxPresize))
	res := &Result{Series: Series{
		Stride:    stride,
		Potential: make([]float64, 0, n),
		Queued:    make([]float64, 0, n),
		MaxQ:      make([]float64, 0, n),
	}}
	var profile []float64
	if opts.RecordProfile {
		profile = make([]float64, len(e.Q))
	}
	done := ctx.Done()
	cancelled := false
	steps := int64(0)
	prevP := core.Potential(e.Q)
	// st lives outside the loop: observers receive &st, which moves it
	// to the heap, and one allocation per run beats one per step. The
	// StepObserver contract already limits st to the call.
	var st core.StepStats
	for i := int64(0); i < opts.Horizon; i++ {
		if done != nil && i&cancelCheckMask == 0 {
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		st = e.Step()
		steps++
		res.Totals.Add(st)
		for _, o := range opts.Observers {
			o.OnStep(st.T, e.Snapshot(), &st)
		}
		if opts.RecordDeltas {
			res.Series.Deltas = append(res.Series.Deltas, float64(st.Potential-prevP))
		}
		if profile != nil {
			for v, q := range e.Q {
				profile[v] += float64(q)
			}
		}
		prevP = st.Potential
		if i%stride == 0 {
			res.Series.Potential = append(res.Series.Potential, float64(st.Potential))
			res.Series.Queued = append(res.Series.Queued, float64(st.Queued))
			res.Series.MaxQ = append(res.Series.MaxQ, float64(st.MaxQueue))
		}
	}
	if profile != nil {
		if steps > 0 {
			for v := range profile {
				profile[v] /= float64(steps)
			}
		}
		res.MeanQueues = profile
	}
	if cancelled {
		res.Diagnosis = Diagnosis{Verdict: Inconclusive}
		return res
	}
	res.Diagnosis = Detect(res.Series.Queued)
	return res
}

// Detect classifies a backlog series. The rule of thumb: fit a line to
// the trailing half; sustained relative growth with a good fit means
// divergence, near-zero relative growth means stability.
func Detect(queued []float64) Diagnosis {
	n := len(queued)
	if n < 16 {
		return Diagnosis{Verdict: Inconclusive}
	}
	tail := queued[n/2:]
	fit := stats.FitSeries(tail)
	level := stats.Mean(tail)
	if level <= 0 {
		// Nothing stored during the whole trailing half: trivially stable.
		return Diagnosis{Verdict: Stable}
	}
	// Absolute smallness: a backlog that never exceeded a handful of
	// packets over a long horizon is bounded no matter how its noise
	// fits a line — a truly diverging run accumulates Ω(horizon).
	if smallCap := 10 + float64(n)/50; stats.Max(tail) <= smallCap {
		return Diagnosis{Verdict: Stable, Slope: fit.Slope,
			RelGrowth: fit.Slope * float64(len(tail)) / level, R2: fit.R2}
	}
	growth := fit.Slope * float64(len(tail)) / level
	d := Diagnosis{Slope: fit.Slope, RelGrowth: growth, R2: fit.R2}
	switch {
	case growth > 0.5 && fit.R2 > 0.5:
		d.Verdict = Diverging
	case growth < 0.1:
		// Flat or shrinking backlog — bounded. A strongly negative slope
		// is a draining transient, not instability.
		d.Verdict = Stable
	default:
		d.Verdict = Inconclusive
	}
	return d
}

// EngineFactory builds a fresh engine for a given seed. Factories must
// return independent engines (no shared routers or RNG streams) because
// runs execute concurrently.
type EngineFactory func(seed uint64) *core.Engine

// RunSeeds executes one run per seed on a worker pool and returns results
// in seed order.
func RunSeeds(build EngineFactory, seeds []uint64, opts Options) []*Result {
	results := make([]*Result, len(seeds))
	ForEach(len(seeds), func(i int) {
		results[i] = Run(build(seeds[i]), opts)
	})
	return results
}

// ForEach runs fn(i) for i in [0, n) on min(n, GOMAXPROCS) goroutines.
func ForEach(n int, fn func(i int)) {
	ForEachWorkers(n, 0, fn)
}

// ForEachWorkers runs fn(i) for i in [0, n) on min(n, workers) goroutines,
// dispatching indices in increasing order. Degenerate inputs are defined,
// not errors: n <= 0 performs no calls and returns immediately, and
// workers <= 0 means GOMAXPROCS.
func ForEachWorkers(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Seeds returns the deterministic seed list {base, base+1, …} of length n
// used throughout the experiment harness. n <= 0 yields an empty list
// (never a panic), mirroring ForEachWorkers' tolerance of empty input.
func Seeds(base uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// StableShare returns the fraction of results judged Stable.
func StableShare(rs []*Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	c := 0
	for _, r := range rs {
		if r.Diagnosis.Verdict == Stable {
			c++
		}
	}
	return float64(c) / float64(len(rs))
}

// AllVerdict reports whether every result has the given verdict.
func AllVerdict(rs []*Result, v Verdict) bool {
	for _, r := range rs {
		if r.Diagnosis.Verdict != v {
			return false
		}
	}
	return len(rs) > 0
}

// PeakPotentials extracts PeakPotential per result.
func PeakPotentials(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Totals.PeakPotential)
	}
	return out
}

// MeanBacklogs extracts the trailing-half mean backlog per result.
func MeanBacklogs(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		q := r.Series.Queued
		out[i] = stats.Mean(q[len(q)/2:])
	}
	return out
}
