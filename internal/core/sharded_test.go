package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/packetsim"
	"repro/internal/rng"
)

// The block engine promises byte-identical output at any block size and
// worker count. These tests run every layout over adversarial dynamics —
// stochastic arrivals, Bernoulli losses, lying declarations that force
// collisions, retention extraction — against the one-block layout, and
// every layout against packetsim, an independent engine.

// testArrivals is a stateful, RNG-driven arrival process that sometimes
// bursts above In. It deliberately does NOT implement SourceOnlyArrivals
// so the injection scan has to take the whole-block path. Its draws
// depend only on the spec, so two instances with one seed agree.
type testArrivals struct{ r *rng.Source }

func (testArrivals) Name() string { return "test-burst" }
func (a testArrivals) Injections(t int64, spec *core.Spec, inj []int64) {
	for v := range inj {
		if spec.In[v] == 0 {
			continue
		}
		x := spec.In[v]
		if a.r.Bool(0.2) {
			x += int64(a.r.IntN(3))
		}
		if a.r.Bool(0.1) {
			x = 0
		}
		inj[v] = x
	}
}

// testLoss draws one Bernoulli per attempted transmission, so its stream
// position depends on the exact global send order — the sharpest
// order-sensitivity a layout has to preserve.
type testLoss struct{ r *rng.Source }

func (testLoss) Name() string                                  { return "test-bernoulli" }
func (l testLoss) Lost(int64, graph.EdgeID, graph.NodeID) bool { return l.r.Bool(0.15) }

// hashLoss is a pure function of (t, edge, sender): two engines see the
// same losses whatever order they draw them in.
type hashLoss struct{ seed uint64 }

func (hashLoss) Name() string { return "test-hash" }
func (l hashLoss) Lost(t int64, e graph.EdgeID, from graph.NodeID) bool {
	x := l.seed ^ uint64(t)*0x9E3779B97F4A7C15 ^ uint64(e)<<32 ^ uint64(from)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x%100 < 15
}

// stressSpec builds a grid with parallel edges and a traffic pattern
// that keeps queues, collisions and losses all active: lying retention
// nodes in the middle make both endpoints of an edge claim it.
func stressSpec(w, h int) *core.Spec {
	g := graph.New(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g.AddEdges(id(1, 1), id(2, 1), 2) // parallel block-crossing edges
	spec := core.NewSpec(g)
	spec.SetSource(id(0, 0), 2)
	spec.SetSource(id(w-1, 0), 1)
	spec.SetSink(id(w-1, h-1), 2)
	spec.SetSink(id(0, h-1), 1)
	for x := 1; x < w-1; x++ {
		spec.SetRetention(id(x, h/2), 2) // lying band across every cut
	}
	return spec
}

func stressEngine(seed uint64) *core.Engine {
	e := core.NewEngine(stressSpec(8, 6), core.NewLGG())
	e.Arrivals = testArrivals{r: rng.New(seed).Split(1)}
	e.Loss = testLoss{r: rng.New(seed).Split(2)}
	e.Declare = core.DeclareZero{} // maximally attractive lie → collisions
	return e
}

// layout is one block size (1<<shift nodes) and worker count.
type layout struct {
	shift   uint
	workers int
}

func (l layout) String() string { return fmt.Sprintf("shift=%d w=%d", l.shift, l.workers) }

// layouts spans one node per block up to the production block size, which
// holds the 48-node stress grid in one block.
func layouts() []layout {
	var ls []layout
	for _, s := range []uint{0, 1, 3, 10} {
		for _, w := range []int{1, 2} {
			ls = append(ls, layout{s, w})
		}
	}
	return ls
}

func (l layout) apply(e *core.Engine) *core.Engine {
	core.SetBlockShift(e, l.shift)
	e.Workers = l.workers
	return e
}

// checkActive asserts that the snapshot's active list is exactly the
// ascending set of nodes with a positive snapshot queue.
func checkActive(t *testing.T, label string, step int, e *core.Engine) {
	t.Helper()
	sn := e.Snapshot()
	i := 0
	for v, q := range sn.Q {
		if q <= 0 {
			continue
		}
		if i >= len(sn.Active) || sn.Active[i] != graph.NodeID(v) {
			t.Fatalf("%s: step %d: active %v is not the positive-queue set (node %d, q=%d)", label, step, sn.Active, v, q)
		}
		i++
	}
	if i != len(sn.Active) {
		t.Fatalf("%s: step %d: active %v lists drained nodes", label, step, sn.Active)
	}
}

// runCompare steps ref and e in lockstep, comparing every StepStats and
// the final queue vector.
func runCompare(t *testing.T, label string, ref, e *core.Engine, steps int) core.Totals {
	t.Helper()
	var tot core.Totals
	for i := 0; i < steps; i++ {
		a, b := ref.Step(), e.Step()
		if a != b {
			t.Fatalf("%s: step %d stats diverge:\none block: %+v\nlayout:    %+v", label, i, a, b)
		}
		checkActive(t, label, i, e)
		tot.Add(a)
	}
	for v := range ref.Q {
		if ref.Q[v] != e.Q[v] {
			t.Fatalf("%s: Q[%d] = %d one block vs %d", label, v, ref.Q[v], e.Q[v])
		}
	}
	return tot
}

// TestShardedReplayIdentity is the core contract: 60 seeds × block sizes
// {1, 2, 8, 1024} × worker counts {1, 2}, step-for-step identical stats
// and queues under losses, collisions and bursty arrivals, with an exact
// active list at every step.
func TestShardedReplayIdentity(t *testing.T) {
	const steps = 120
	var sawCollisions, sawLoss bool
	for seed := uint64(1); seed <= 60; seed++ {
		for _, l := range layouts() {
			tot := runCompare(t, fmt.Sprintf("seed=%d %v", seed, l), stressEngine(seed), l.apply(stressEngine(seed)), steps)
			sawCollisions = sawCollisions || tot.Collisions > 0
			sawLoss = sawLoss || tot.Lost > 0
		}
	}
	if !sawCollisions || !sawLoss {
		t.Fatalf("stress dynamics too tame: collisions=%v losses=%v — identity not meaningfully exercised",
			sawCollisions, sawLoss)
	}
}

// TestShardedMatchesPacketsim holds every layout to packetsim, which
// shares no step code with the block engine: fed the same policies and a
// pure loss, both must agree on every queue length at every step.
func TestShardedMatchesPacketsim(t *testing.T) {
	const steps = 120
	for seed := uint64(1); seed <= 60; seed++ {
		for _, l := range layouts() {
			e := l.apply(core.NewEngine(stressSpec(8, 6), core.NewLGG()))
			p := packetsim.New(e.Spec, core.NewLGG())
			e.Arrivals = testArrivals{r: rng.New(seed).Split(1)}
			p.Arrivals = testArrivals{r: rng.New(seed).Split(1)}
			e.Loss, p.Loss = hashLoss{seed}, hashLoss{seed}
			e.Declare, p.Declare = core.DeclareZero{}, core.DeclareZero{}
			lens := make([]int64, e.Spec.N())
			for i := 0; i < steps; i++ {
				e.Step()
				p.Step()
				checkActive(t, l.String(), i, e)
				p.QueueLens(lens)
				for v := range lens {
					if lens[v] != e.Q[v] {
						t.Fatalf("seed=%d %v: step %d node %d: packetsim %d vs engine %d", seed, l, i, v, lens[v], e.Q[v])
					}
				}
			}
		}
	}
}

// TestShardedObservers: observers see identical stats (and may rewrite
// them) at every layout.
func TestShardedObservers(t *testing.T) {
	ref := stressEngine(7)
	e := layout{1, 2}.apply(stressEngine(7))
	count := func(tally *int64) core.ObserverFunc {
		return func(_ int64, _ *core.Snapshot, st *core.StepStats) { *tally += st.Sent }
	}
	var a, b int64
	ref.AddObserver(count(&a))
	e.AddObserver(count(&b))
	runCompare(t, "observers", ref, e, 80)
	if a != b || a == 0 {
		t.Fatalf("observer tallies: one block %d, layout %d", a, b)
	}
}

// TestShardedTrace: the per-step trace buffers agree.
func TestShardedTrace(t *testing.T) {
	ref := stressEngine(11)
	e := layout{0, 2}.apply(stressEngine(11))
	ta, tb := ref.EnableTrace(), e.EnableTrace()
	for i := 0; i < 60; i++ {
		ref.Step()
		e.Step()
		if len(ta.Sends) != len(tb.Sends) {
			t.Fatalf("step %d: %d vs %d traced sends", i, len(ta.Sends), len(tb.Sends))
		}
		for j := range ta.Sends {
			if ta.Sends[j] != tb.Sends[j] || ta.Lost[j] != tb.Lost[j] {
				t.Fatalf("step %d send %d: %+v/%v vs %+v/%v", i, j,
					ta.Sends[j], ta.Lost[j], tb.Sends[j], tb.Lost[j])
			}
		}
		for v := range ta.Injected {
			if ta.Injected[v] != tb.Injected[v] || ta.Extracted[v] != tb.Extracted[v] {
				t.Fatalf("step %d node %d: traced inj/ext %d/%d vs %d/%d", i, v,
					ta.Injected[v], ta.Extracted[v], tb.Injected[v], tb.Extracted[v])
			}
		}
	}
}

// TestShardedSetQueues: SetQueues mid-run — with a fresh vector, and with
// Q itself after an in-place edit — re-lays the blocks; the replay
// afterwards stays identical.
func TestShardedSetQueues(t *testing.T) {
	ref := stressEngine(3)
	e := layout{3, 2}.apply(stressEngine(3))
	runCompare(t, "pre-reset", ref, e, 50)
	q := make([]int64, len(ref.Q))
	for v := range q {
		q[v] = int64(v % 5)
	}
	ref.SetQueues(q)
	e.SetQueues(q)
	ref.T, e.T = 0, 0
	runCompare(t, "post-reset", ref, e, 50)
	for _, x := range []*core.Engine{ref, e} {
		x.Q[9], x.Q[40] = 0, 7
		x.SetQueues(x.Q)
	}
	runCompare(t, "post-edit", ref, e, 50)
}

// TestShardedWorkersMidRun: changing Workers between steps never
// perturbs the trajectory.
func TestShardedWorkersMidRun(t *testing.T) {
	ref := stressEngine(5)
	e := layout{1, 1}.apply(stressEngine(5))
	for i, w := range []int{1, 2, 0, 8, 1} {
		e.Workers = w
		runCompare(t, fmt.Sprintf("phase %d (w=%d)", i, w), ref, e, 40)
	}
}

// TestShardedStepAllocFree: a multi-block layout under losses, bursts and
// collisions steps without allocating once its scratch is warm.
func TestShardedStepAllocFree(t *testing.T) {
	l := layout{3, 1} // six blocks of eight nodes
	e := l.apply(stressEngine(2))
	for i := 0; i < 200; i++ { // grow scratch to working size
		e.Step()
	}
	if avg := testing.AllocsPerRun(100, func() { e.Step() }); avg != 0 {
		t.Fatalf("%v: Step allocates %.1f times per step in steady state", l, avg)
	}
}

// TestShardedSourceOnlyFastPath: with a SourceOnlyArrivals process the
// injection scan visits block source lists only; output must not change.
func TestShardedSourceOnlyFastPath(t *testing.T) {
	if _, ok := core.ArrivalProcess(core.ExactArrivals{}).(core.SourceOnlyArrivals); !ok {
		t.Fatal("ExactArrivals must advertise SourcesOnly")
	}
	build := func(l layout) *core.Engine {
		e := l.apply(core.NewEngine(stressSpec(8, 6), core.NewLGG()))
		e.Loss = testLoss{r: rng.New(9).Split(2)}
		return e
	}
	for _, l := range layouts() {
		runCompare(t, "source-only "+l.String(), build(layout{10, 1}), build(l), 100)
	}
}

// plainRouter hides the wrapped router's ShardClone.
type plainRouter struct{ core.Router }

// TestShardedRefusals: a router that cannot be cloned — not a
// ShardableRouter, or LGG with random ties, whose key stream is drawn in
// global plan order — plans with one call at any worker count.
func TestShardedRefusals(t *testing.T) {
	if core.NewLGGRandomTies(rng.New(1)).ShardClone(0, 2) != nil {
		t.Fatal("TieRandom clone accepted; its key stream is order-dependent")
	}
	for name, mk := range map[string]func() core.Router{
		"random-ties": func() core.Router { return core.NewLGGRandomTies(rng.New(4)) },
		"plain":       func() core.Router { return plainRouter{core.NewLGG()} },
	} {
		build := func(l layout) *core.Engine {
			e := l.apply(core.NewEngine(stressSpec(8, 6), mk()))
			e.Loss = testLoss{r: rng.New(4).Split(2)}
			return e
		}
		runCompare(t, name, build(layout{10, 1}), build(layout{0, 2}), 100)
	}
}

// TestShardedPanicIsolation: a panic inside a parallel phase (here from
// negative injections) surfaces on the Step caller's goroutine at any
// worker count, and names the lowest offending node, as inline would.
func TestShardedPanicIsolation(t *testing.T) {
	for _, l := range layouts() {
		e := l.apply(core.NewEngine(stressSpec(8, 6), core.NewLGG()))
		e.Arrivals = negArrivals{}
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "at node 3") {
					t.Fatalf("%v: negative injection panicked with %v, want the node-3 panic", l, r)
				}
			}()
			e.Step()
		}()
	}
}

type negArrivals struct{}

func (negArrivals) Name() string { return "neg" }
func (negArrivals) Injections(_ int64, _ *core.Spec, inj []int64) {
	inj[3], inj[len(inj)-2] = -1, -1
}
