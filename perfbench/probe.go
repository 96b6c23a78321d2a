package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// runProbe times one simulation run from outside the engine, through
// public hooks only: a decorator on the engine's ArrivalProcess marks
// the start of an Engine.Step (injection is its first phase), an engine
// observer marks its end, a Router decorator times LGG.Plan, and a
// sim.Options observer marks the last turn of the RunContext loop.
// Steps whose index has no bit of sampleMask set are timed; the rest are
// only counted, which keeps the clock reads from dominating a
// microsecond step. It allocates nothing per step, so it does not
// disturb the allocation counts it sits beside.
type runProbe struct {
	horizon int64

	buildStart, buildEnd time.Duration
	lastLoop             time.Duration
	loops                int64

	sampled   bool
	stepStart time.Duration
	sampledNS int64
	planNS    atomic.Int64 // shard clones may plan concurrently
	stepDur   []int32      // ns per sampled step

	steps, active, sends int64

	router   timedRouter
	arrivals timedArrivals

	// Probes of concurrent runs are written every step; the padding
	// keeps two of them off one cache line.
	_ [128]byte
}

// sampleMask times every 4th step.
const sampleMask = 3

func newRunProbe(horizon int64) *runProbe {
	p := &runProbe{horizon: horizon, stepDur: make([]int32, 0, horizon/(sampleMask+1)+1)}
	p.router.p = p
	p.arrivals.p = p
	return p
}

func (p *runProbe) reset() {
	p.buildStart, p.buildEnd, p.lastLoop, p.loops = 0, 0, 0, 0
	p.sampled, p.stepStart, p.sampledNS = false, 0, 0
	p.planNS.Store(0)
	p.stepDur = p.stepDur[:0]
	p.steps, p.active, p.sends = 0, 0, 0
}

// attach decorates a freshly built engine.
func (p *runProbe) attach(e *core.Engine) {
	p.router.inner = e.Router
	e.Router = &p.router
	p.arrivals.inner = e.Arrivals
	e.Arrivals = &p.arrivals
	e.AddObserver((*stepEnd)(p))
}

// loopObserver is the sim.Options observer of this probe.
func (p *runProbe) loopObserver() core.StepObserver { return (*loopTick)(p) }

// stepNS estimates the run's total Engine.Step time from its samples.
func (p *runProbe) stepNS() int64 {
	n := int64(len(p.stepDur))
	if n == 0 {
		return 0
	}
	return p.sampledNS * p.steps / n
}

// stepEnd is the engine observer: it runs last inside Engine.Step.
type stepEnd runProbe

func (s *stepEnd) OnStep(_ int64, sn *core.Snapshot, st *core.StepStats) {
	p := (*runProbe)(s)
	p.steps++
	p.active += int64(len(sn.Active))
	p.sends += st.Sent
	if !p.sampled {
		return
	}
	p.sampled = false
	d := int64(now() - p.stepStart)
	p.sampledNS += d
	if len(p.stepDur) < cap(p.stepDur) {
		p.stepDur = append(p.stepDur, int32(min(d, math.MaxInt32)))
	}
}

// loopTick is the sim.Options observer: it runs after Engine.Step
// returns, once per RunContext loop turn.
type loopTick runProbe

func (l *loopTick) OnStep(int64, *core.Snapshot, *core.StepStats) {
	p := (*runProbe)(l)
	p.loops++
	if p.loops == p.horizon {
		p.lastLoop = now()
	}
}

// timedRouter times Plan and forwards every optional router interface,
// so wrapping never changes which engine path runs.
type timedRouter struct {
	inner core.Router
	p     *runProbe
}

func (r *timedRouter) Name() string { return r.inner.Name() }

func (r *timedRouter) Plan(sn *core.Snapshot, buf []core.Send) []core.Send {
	if !r.p.sampled {
		return r.inner.Plan(sn, buf)
	}
	t := now()
	out := r.inner.Plan(sn, buf)
	r.p.planNS.Add(int64(now() - t))
	return out
}

// ShardClone forwards core.ShardableRouter; nil (no sharding) when the
// inner router is not shardable, exactly as if it were unwrapped.
func (r *timedRouter) ShardClone(s, k int) core.Router {
	sr, ok := r.inner.(core.ShardableRouter)
	if !ok {
		return nil
	}
	c := sr.ShardClone(s, k)
	if c == nil {
		return nil
	}
	return &timedRouter{inner: c, p: r.p}
}

// timedArrivals marks the start of each step and forwards
// core.SourceOnlyArrivals.
type timedArrivals struct {
	inner core.ArrivalProcess
	p     *runProbe
}

func (a *timedArrivals) Name() string { return a.inner.Name() }

func (a *timedArrivals) Injections(t int64, spec *core.Spec, inj []int64) {
	if t&sampleMask == 0 {
		a.p.sampled = true
		a.p.stepStart = now()
	}
	a.inner.Injections(t, spec, inj)
}

func (a *timedArrivals) SourcesOnly() bool {
	so, ok := a.inner.(core.SourceOnlyArrivals)
	return ok && so.SourcesOnly()
}

var (
	_ core.ShardableRouter    = (*timedRouter)(nil)
	_ core.SourceOnlyArrivals = (*timedArrivals)(nil)
)

// coreStats accumulates probes across runs into the core/sim per-layer
// metrics.
type coreStats struct {
	step                 logHist
	runMS, buildUS       []float64
	sampledNS, planNS    int64 // over sampled steps
	stepNS, runNS        int64
	steps, active, sends int64
}

// fold adds one finished run.
func (c *coreStats) fold(p *runProbe) {
	for _, d := range p.stepDur {
		c.step.add(int64(d))
	}
	c.sampledNS += p.sampledNS
	c.planNS += p.planNS.Load()
	c.stepNS += p.stepNS()
	c.steps += p.steps
	c.active += p.active
	c.sends += p.sends
	run := p.lastLoop - p.buildEnd
	c.runNS += int64(run)
	c.runMS = append(c.runMS, float64(run)/1e6)
	c.buildUS = append(c.buildUS, float64(p.buildEnd-p.buildStart)/1e3)
}

// runSpan is the sim.run span of a probe, with the engine's step time
// folded in as the core layer's inner time.
func (p *runProbe) runSpan(parent int64, trace string) span {
	return span{Parent: parent, Trace: trace, Name: "sim.run", Layer: "sim",
		Start: int64(p.buildEnd), End: int64(p.lastLoop),
		Inner: map[string]int64{"core": p.stepNS()}}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics fills the core and sim per-layer metrics.
func (c *coreStats) metrics(m map[string]float64) {
	m["core.step_us.p50"] = c.step.quantile(0.5) / 1e3
	m["core.step_us.p99"] = c.step.quantile(0.99) / 1e3
	m["core.plan_share"] = safeDiv(float64(c.planNS), float64(c.sampledNS))
	m["core.active_per_step"] = safeDiv(float64(c.active), float64(c.steps))
	m["core.sends_per_step"] = safeDiv(float64(c.sends), float64(c.steps))
	m["sim.run_ms.p50"] = median(c.runMS)
	m["sim.run_ms.p99"] = quantile(c.runMS, 0.99)
	m["sim.overhead_share"] = safeDiv(float64(c.runNS-c.stepNS), float64(c.runNS))
	m["experiments.build_us.p50"] = median(c.buildUS)
}
