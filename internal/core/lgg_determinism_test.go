package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// goldenGraph builds a fixed topology whose edge insertion order
// deliberately disagrees with peer order, so the three tie-break modes
// produce three different plans. Edge ids:
//
//	e0 {0,4}  e1 {0,2}  e2,e3 {0,3} parallel  e4 {0,1}
//	e5 {1,2}  e6 {2,3}  e7 {3,4}  e8 {4,5}  e9 {1,5}
func goldenGraph() *graph.Multigraph {
	g := graph.New(6)
	g.AddEdge(0, 4)
	g.AddEdge(0, 2)
	g.AddEdges(0, 3, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(1, 5)
	return g
}

// TestLGGTieBreakGolden pins Plan's exact output for all three TieBreak
// modes against golden send sequences captured from the pre-CSR
// sort.Slice implementation. Any change to candidate ordering, tie
// semantics, or random-stream consumption shows up as a diff here — this
// is the byte-identical-output contract for the planning rewrite.
func TestLGGTieBreakGolden(t *testing.T) {
	g := goldenGraph()
	spec := NewSpec(g)
	spec.In[0] = 1
	spec.Out[5] = 1

	q := []int64{3, 1, 1, 1, 1, 0}
	sn := &Snapshot{Spec: spec, Q: q, Declared: q}
	golden := map[TieBreak][]Send{
		TieEdgeOrder: {{Edge: 0, From: 0}, {Edge: 1, From: 0}, {Edge: 2, From: 0}, {Edge: 9, From: 1}, {Edge: 8, From: 4}},
		TiePeerOrder: {{Edge: 4, From: 0}, {Edge: 1, From: 0}, {Edge: 2, From: 0}, {Edge: 9, From: 1}, {Edge: 8, From: 4}},
		TieRandom:    {{Edge: 4, From: 0}, {Edge: 0, From: 0}, {Edge: 1, From: 0}, {Edge: 9, From: 1}, {Edge: 8, From: 4}},
	}
	for tb, want := range golden {
		l := &LGG{Tie: tb}
		if tb == TieRandom {
			l = NewLGGRandomTies(rng.New(42))
		}
		got := l.Plan(sn, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: plan = %v, want %v", tb, got, want)
		}
	}

	// Scenario 2: a dead edge, lying declarations and MinGradient 2.
	d := []int64{3, 0, 0, 2, 9, 0}
	alive := []bool{true, true, false, true, true, true, true, true, true, true}
	sn2 := &Snapshot{Spec: spec, Q: q, Declared: d, Alive: alive}
	golden2 := map[TieBreak][]Send{
		TieEdgeOrder: {{Edge: 1, From: 0}, {Edge: 4, From: 0}},
		TiePeerOrder: {{Edge: 4, From: 0}, {Edge: 1, From: 0}},
		TieRandom:    {{Edge: 4, From: 0}, {Edge: 1, From: 0}},
	}
	for tb, want := range golden2 {
		l := &LGG{Tie: tb, MinGradient: 2}
		if tb == TieRandom {
			l = NewLGGRandomTies(rng.New(7))
			l.MinGradient = 2
		}
		got := l.Plan(sn2, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scenario 2, %v: plan = %v, want %v", tb, got, want)
		}
	}
}

// referencePlan is a transcription of the pre-CSR Plan implementation:
// full node scan over Incident(u) with per-node sort.Slice closures and
// the original comparators (no edge-id fallback for TieRandom — random
// keys are unique with overwhelming probability, making the order total
// anyway). It exists solely to replay seeds through the old ordering
// semantics and assert the rewrite never reorders a decision.
func referencePlan(l *LGG, rnd *rng.Source, sn *Snapshot, buf []Send) []Send {
	g := sn.Spec.G
	for v := 0; v < g.NumNodes(); v++ {
		u := graph.NodeID(v)
		budget := sn.Q[u]
		if budget <= 0 {
			continue
		}
		theta := l.MinGradient
		if theta < 1 {
			theta = 1
		}
		var cand []candidate
		for _, in := range g.Incident(u) {
			if !sn.EdgeAlive(in.Edge) {
				continue
			}
			dq := sn.Declared[in.Peer]
			if sn.Q[u]-dq >= theta {
				c := candidate{edge: in.Edge, peer: in.Peer, q: dq}
				if l.Tie == TieRandom {
					c.key = rnd.Uint64()
				}
				cand = append(cand, c)
			}
		}
		if len(cand) == 0 {
			continue
		}
		switch l.Tie {
		case TieEdgeOrder:
			sort.Slice(cand, func(i, j int) bool {
				if cand[i].q != cand[j].q {
					return cand[i].q < cand[j].q
				}
				return cand[i].edge < cand[j].edge
			})
		case TiePeerOrder:
			sort.Slice(cand, func(i, j int) bool {
				if cand[i].q != cand[j].q {
					return cand[i].q < cand[j].q
				}
				if cand[i].peer != cand[j].peer {
					return cand[i].peer < cand[j].peer
				}
				return cand[i].edge < cand[j].edge
			})
		case TieRandom:
			sort.Slice(cand, func(i, j int) bool {
				if cand[i].q != cand[j].q {
					return cand[i].q < cand[j].q
				}
				return cand[i].key < cand[j].key
			})
		}
		for _, c := range cand {
			if budget == 0 {
				break
			}
			buf = append(buf, Send{Edge: c.edge, From: u})
			budget--
		}
	}
	return buf
}

// TestLGGMatchesReferenceOrdering replays many random snapshots — random
// multigraphs, queues, declarations, dead-edge masks, thresholds — through
// both the reference (old) planner and the rewritten one, for every tie
// mode, and requires identical send sequences. For TieRandom both sides
// consume the same derived stream, so the comparison also pins the
// random-key draw order.
func TestLGGMatchesReferenceOrdering(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		n := 2 + r.IntN(14)
		g := graph.RandomMultigraph(n, n+r.IntN(3*n), r)
		spec := NewSpec(g)
		spec.In[0] = 1
		spec.Out[n-1] = 1
		q := make([]int64, n)
		d := make([]int64, n)
		for i := range q {
			q[i] = r.Int64N(40)
			d[i] = q[i]
			if r.Bool(0.3) { // lying declarations
				d[i] = r.Int64N(40)
			}
		}
		var alive []bool
		if r.Bool(0.5) {
			alive = make([]bool, g.NumEdges())
			for i := range alive {
				alive[i] = !r.Bool(0.2)
			}
		}
		sn := &Snapshot{Spec: spec, Q: q, Declared: d, Alive: alive}
		theta := r.Int64N(3) // 0 normalizes to 1
		for _, tb := range []TieBreak{TieEdgeOrder, TiePeerOrder, TieRandom} {
			ref := &LGG{Tie: tb, MinGradient: theta}
			got := &LGG{Tie: tb, MinGradient: theta, rnd: rng.New(seed).Split(99)}
			want := referencePlan(ref, rng.New(seed).Split(99), sn, nil)
			have := got.Plan(sn, nil)
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("seed %d, %v: plan diverged from reference\n got %v\nwant %v",
					seed, tb, have, want)
			}
		}
	}
}

// TestLGGMatchesReferenceWithActiveList is the same replay with the
// engine-style active list attached to the snapshot: restricting the scan
// to the (sorted, superset-of-positive) active nodes must not change a
// single send.
func TestLGGMatchesReferenceWithActiveList(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		n := 2 + r.IntN(14)
		g := graph.RandomMultigraph(n, n+r.IntN(2*n), r)
		spec := NewSpec(g)
		spec.In[0] = 1
		spec.Out[n-1] = 1
		q := make([]int64, n)
		var active []graph.NodeID
		for i := range q {
			q[i] = r.Int64N(4) // plenty of zeros
			if q[i] > 0 || r.Bool(0.2) {
				// supersets are legal: drained nodes may linger
				active = append(active, graph.NodeID(i))
			}
		}
		full := &Snapshot{Spec: spec, Q: q, Declared: q}
		restricted := &Snapshot{Spec: spec, Q: q, Declared: q, Active: active}
		want := NewLGG().Plan(full, nil)
		got := NewLGG().Plan(restricted, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: active-list plan %v, full-scan plan %v", seed, got, want)
		}
	}
}

// TestLGGRandomTiesNilRNG is the regression test for the nil-stream
// panic: a literal LGG{Tie: TieRandom} (bypassing NewLGGRandomTies) must
// plan without panicking, deterministically, and work inside an engine.
func TestLGGRandomTiesNilRNG(t *testing.T) {
	g := graph.Star(5)
	spec := NewSpec(g)
	spec.In[0] = 1
	spec.Out[4] = 1
	q := []int64{3, 0, 0, 0, 0}
	sn := &Snapshot{Spec: spec, Q: q, Declared: q}

	a := (&LGG{Tie: TieRandom}).Plan(sn, nil)
	b := (&LGG{Tie: TieRandom}).Plan(sn, nil)
	if len(a) != 3 {
		t.Fatalf("nil-rnd plan = %v, want 3 sends", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fallback stream not deterministic: %v vs %v", a, b)
	}

	e := NewEngine(lineSpec(3, 1, 1), &LGG{Tie: TieRandom})
	tot := e.Run(50)
	if tot.Violations != 0 || tot.Sent == 0 {
		t.Fatalf("engine run with literal TieRandom LGG: %+v", tot)
	}
}

// TestLGGLargeDegreeSortFallback exercises the sort.Sort path (degree >
// insertionSortMax) and checks it agrees with the reference ordering.
func TestLGGLargeDegreeSortFallback(t *testing.T) {
	hub := graph.Star(insertionSortMax + 20)
	n := hub.NumNodes()
	spec := NewSpec(hub)
	spec.In[0] = 1
	spec.Out[1] = 1
	q := make([]int64, n)
	q[0] = int64(n) // every leaf is a candidate
	r := rng.New(11)
	d := make([]int64, n)
	for i := 1; i < n; i++ {
		d[i] = r.Int64N(3) // heavy ties
	}
	sn := &Snapshot{Spec: spec, Q: q, Declared: d}
	for _, tb := range []TieBreak{TieEdgeOrder, TiePeerOrder, TieRandom} {
		ref := &LGG{Tie: tb}
		got := &LGG{Tie: tb, rnd: rng.New(5)}
		want := referencePlan(ref, rng.New(5), sn, nil)
		have := got.Plan(sn, nil)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%v: fallback sort diverged\n got %v\nwant %v", tb, have, want)
		}
	}
}

// TestLGGPlanZeroAlloc asserts the zero-alloc contract of the planning
// hot path once scratch buffers are warm.
func TestLGGPlanZeroAlloc(t *testing.T) {
	e := NewEngine(benchDenseSpec(), NewLGG())
	for i := 0; i < 100; i++ {
		e.Step()
	}
	l := NewLGG()
	sn := e.Snapshot()
	buf := l.Plan(sn, nil)
	allocs := testing.AllocsPerRun(200, func() {
		buf = l.Plan(sn, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Plan allocates %.1f times per call in steady state, want 0", allocs)
	}
}

// TestStepZeroAlloc asserts the zero-alloc contract of the whole engine
// step in steady state (warm buffers) with inline workers, on the dense
// 8×8 spec (one block) and on a sparse 4096-node line (four blocks, all
// but one clean).
func TestStepZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name   string
		spec   *Spec
		blocks int
	}{
		{"dense8x8", benchDenseSpec(), 1},
		{"line4096", NewSpec(graph.Line(4096)).SetSource(0, 1).SetSink(8, 1), 4},
	} {
		for _, workers := range []int{0, 1} {
			e := NewEngine(c.spec, NewLGG())
			e.Workers = workers
			for i := 0; i < 200; i++ {
				e.Step()
			}
			if len(e.blocks) != c.blocks {
				t.Fatalf("%s: %d blocks, want %d", c.name, len(e.blocks), c.blocks)
			}
			allocs := testing.AllocsPerRun(200, func() {
				e.Step()
			})
			if allocs != 0 {
				t.Fatalf("%s (workers=%d): Step allocates %.1f times per call in steady state, want 0",
					c.name, workers, allocs)
			}
		}
	}
}
