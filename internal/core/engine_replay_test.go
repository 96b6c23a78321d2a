package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestSetQueuesMidRunReplay rewinds a warm engine (SetQueues + T reset)
// and requires the replay to match a fresh engine step for step: same
// stats, same queue trajectory. This covers the edge-use scratch reset,
// the sparse inj/sentBy bookkeeping and the active-node list rebuild — a
// stale entry in any of them shows up as a diverging trajectory.
func TestSetQueuesMidRunReplay(t *testing.T) {
	build := func() *Engine {
		r := rng.New(9)
		g := graph.RandomMultigraph(10, 24, r)
		s := NewSpec(g).SetSource(0, 2).SetSink(9, 3)
		return NewEngine(s, NewLGG())
	}
	prepared := []int64{5, 0, 3, 0, 0, 7, 0, 1, 0, 2}

	dirty := build()
	dirty.Run(137) // arbitrary warm-up leaves scratch in a used state
	dirty.SetQueues(prepared)
	dirty.T = 0

	fresh := build()
	fresh.SetQueues(prepared)

	for i := 0; i < 80; i++ {
		ds, fs := dirty.Step(), fresh.Step()
		if ds != fs {
			t.Fatalf("step %d: replayed stats %+v, fresh stats %+v", i, ds, fs)
		}
		if !reflect.DeepEqual(dirty.Q, fresh.Q) {
			t.Fatalf("step %d: replayed queues %v, fresh queues %v", i, dirty.Q, fresh.Q)
		}
	}
}

// TestActiveListInvariant white-boxes the engine's active-node list: after
// every step it must be strictly ascending and contain every node with a
// positive queue.
func TestActiveListInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 3 + r.IntN(12)
		g := graph.RandomMultigraph(n, n+r.IntN(2*n), r)
		s := NewSpec(g).SetSource(0, 1+r.Int64N(3)).SetSink(graph.NodeID(n-1), 1+r.Int64N(3))
		e := NewEngine(s, NewLGG())
		e.Loss = coinLoss{r: r.Split(2), p: 0.2}
		for i := 0; i < 60; i++ {
			e.Step()
			for j := 1; j < len(e.active); j++ {
				if e.active[j-1] >= e.active[j] {
					t.Fatalf("seed %d step %d: active list not ascending: %v", seed, i, e.active)
				}
			}
			inActive := make(map[graph.NodeID]bool, len(e.active))
			for _, v := range e.active {
				inActive[v] = true
			}
			for _, b := range e.blocks {
				for _, v := range b.newly {
					inActive[v] = true
				}
			}
			// Compaction (merging each block's newly list in, dropping
			// drained nodes) happens at the next step's planning point, so
			// between steps active may hold drained nodes and fresh
			// arrivals still sit in newly — but no node that currently
			// stores packets may be missing from their union.
			for v, q := range e.Q {
				if q > 0 && !inActive[graph.NodeID(v)] {
					t.Fatalf("seed %d step %d: node %d has q=%d but is not active (%v)",
						seed, i, v, q, e.active)
				}
			}
		}
	}
}

// aliveBlindRouter plans over every incident edge of node 0, ignoring the
// snapshot's Alive mask — modelling a router that did not get the memo
// about a dynamic topology.
type aliveBlindRouter struct{}

func (aliveBlindRouter) Name() string { return "alive-blind" }
func (aliveBlindRouter) Plan(sn *Snapshot, buf []Send) []Send {
	for _, in := range sn.Spec.G.Incident(0) {
		buf = append(buf, Send{Edge: in.Edge, From: 0})
	}
	return buf
}

// TestDeadEdgeDropsCountAsFiltered pins the accounting contract: sends
// attempted over an edge the TopologyProcess took down are environment
// drops (Filtered), not router bugs (Violations) — the router cannot see
// through the engine's Alive mask, so a dynamic topology must not be able
// to produce violations on its own.
func TestDeadEdgeDropsCountAsFiltered(t *testing.T) {
	g := graph.Star(4) // edges 0,1,2 from hub 0
	s := NewSpec(g).SetSource(0, 3)
	for i := 1; i < 4; i++ {
		s.SetSink(graph.NodeID(i), 1)
	}
	e := NewEngine(s, aliveBlindRouter{})
	e.Topology = maskTopology{dead: map[graph.EdgeID]bool{1: true}}
	st := e.Step()
	if st.Planned != 3 {
		t.Fatalf("planned = %d, want 3", st.Planned)
	}
	if st.Filtered != 1 {
		t.Fatalf("filtered = %d, want 1 (the dead edge)", st.Filtered)
	}
	if st.Violations != 0 {
		t.Fatalf("violations = %d, want 0: topology drops are not router bugs", st.Violations)
	}
	if st.Sent != 2 {
		t.Fatalf("sent = %d, want 2", st.Sent)
	}
}

// TestOverdrawStillCountsAsViolation guards the other side of the
// accounting split: overdrawn queues remain Violations.
func TestOverdrawStillCountsAsViolation(t *testing.T) {
	g := graph.Star(4)
	s := NewSpec(g).SetSource(0, 1)
	for i := 1; i < 4; i++ {
		s.SetSink(graph.NodeID(i), 1)
	}
	e := NewEngine(s, aliveBlindRouter{})
	st := e.Step() // q(0)=1 but the router plans 3 sends
	if st.Violations != 2 {
		t.Fatalf("violations = %d, want 2 (two overdraws)", st.Violations)
	}
	if st.Filtered != 0 {
		t.Fatalf("filtered = %d, want 0", st.Filtered)
	}
}

// TestPotentialSaturates pins the int64 boundary behaviour of the
// potential: exact below the limit, saturated (not wrapped) above it.
func TestPotentialSaturates(t *testing.T) {
	const maxSq = 3037000499 // ⌊√(2⁶³−1)⌋
	cases := []struct {
		name string
		q    []int64
		want int64
		ovf  bool
	}{
		{"empty", nil, 0, false},
		{"small", []int64{3, 4}, 25, false},
		{"max-exact-square", []int64{maxSq}, maxSq * maxSq, false},
		{"one-past-square", []int64{maxSq + 1}, math.MaxInt64, true},
		{"sum-overflow", []int64{maxSq, maxSq, maxSq}, math.MaxInt64, true},
		{"huge", []int64{math.MaxInt64}, math.MaxInt64, true},
	}
	for _, c := range cases {
		p, ovf := PotentialSat(c.q)
		if p != c.want || ovf != c.ovf {
			t.Errorf("%s: PotentialSat = (%d, %v), want (%d, %v)", c.name, p, ovf, c.want, c.ovf)
		}
		if got := Potential(c.q); got != c.want {
			t.Errorf("%s: Potential = %d, want %d", c.name, got, c.want)
		}
		if p < 0 {
			t.Errorf("%s: potential wrapped negative", c.name)
		}
	}
}

// TestEngineOverflowFlag drives an engine into the saturation regime and
// checks the flag surfaces on StepStats and folds into Totals.
func TestEngineOverflowFlag(t *testing.T) {
	s := lineSpec(3, 1, 1)
	e := NewEngine(s, NewLGG())
	e.SetQueues([]int64{int64(1) << 33, 0, 0})
	st := e.Step()
	if !st.Overflowed {
		t.Fatalf("queue 2³³: Overflowed not set, potential = %d", st.Potential)
	}
	if st.Potential != math.MaxInt64 {
		t.Fatalf("potential = %d, want saturation at MaxInt64", st.Potential)
	}
	var tot Totals
	tot.Add(st)
	if !tot.Overflowed {
		t.Fatal("Totals.Add dropped the overflow flag")
	}
	if tot.PeakPotential != math.MaxInt64 {
		t.Fatalf("peak potential = %d, want MaxInt64", tot.PeakPotential)
	}
	// A later non-overflowing step must not clear the sticky flag.
	tot.Add(StepStats{Potential: 5})
	if !tot.Overflowed {
		t.Fatal("overflow flag must be sticky across Add")
	}
}

// churnTopology takes each listed edge down for its half-open window —
// the deterministic skeleton of a link-churn schedule, kept local because
// core cannot import the faults package built on top of it.
type churnTopology struct {
	windows map[graph.EdgeID][2]int64
}

func (c churnTopology) Name() string { return "churn" }
func (c churnTopology) EdgeAlive(t int64, e graph.EdgeID) bool {
	w, ok := c.windows[e]
	return !ok || t < w[0] || t >= w[1]
}

// TestChurnFilteredAcrossDrainedEndpoint pins the TopologyProcess ×
// active-list interplay: an edge dies while its receiving endpoint is a
// drained sink (absent from the active list), stays down for a window and
// revives. An alive-blind router keeps attempting it, so Filtered must
// count exactly one drop per down step — no residue after revival, and
// never a Violation.
func TestChurnFilteredAcrossDrainedEndpoint(t *testing.T) {
	g := graph.Star(4) // edges 0,1,2 from hub 0
	s := NewSpec(g).SetSource(0, 3)
	for i := 1; i < 4; i++ {
		s.SetSink(graph.NodeID(i), 1)
	}
	e := NewEngine(s, aliveBlindRouter{})
	e.Topology = churnTopology{windows: map[graph.EdgeID][2]int64{1: {5, 15}}}
	for i := int64(0); i < 25; i++ {
		st := e.Step()
		wantF, wantSent := int64(0), int64(3)
		if i >= 5 && i < 15 {
			wantF, wantSent = 1, 2
		}
		if st.Filtered != wantF {
			t.Fatalf("step %d: filtered = %d, want %d", i, st.Filtered, wantF)
		}
		if st.Sent != wantSent {
			t.Fatalf("step %d: sent = %d, want %d", i, st.Sent, wantSent)
		}
		if st.Violations != 0 {
			t.Fatalf("step %d: violations = %d, want 0 (churn is not a router bug)", i, st.Violations)
		}
	}
}

// TestChurnScheduleLGGRecovers runs alive-aware LGG through a window that
// cuts the source off (both incident edges down) on a cycle: LGG must
// never attempt a dead edge (Filtered == 0), pile up the backlog during
// the window, and visibly drain it after revival over the cycle's two
// disjoint paths.
func TestChurnScheduleLGGRecovers(t *testing.T) {
	g := graph.Cycle(4)
	s := NewSpec(g).SetSource(0, 1).SetSink(2, 2)
	e := NewEngine(s, NewLGG())
	e.Topology = churnTopology{windows: map[graph.EdgeID][2]int64{0: {10, 40}, 3: {10, 40}}}
	var peak int64
	for i := 0; i < 300; i++ {
		st := e.Step()
		if st.Filtered != 0 {
			t.Fatalf("step %d: alive-aware LGG filtered %d sends", i, st.Filtered)
		}
		if st.Violations != 0 {
			t.Fatalf("step %d: violations = %d", i, st.Violations)
		}
		if st.Queued > peak {
			peak = st.Queued
		}
	}
	if peak < 25 {
		t.Fatalf("peak backlog = %d, want the 30-step cut to pile up ≥ 25", peak)
	}
	var final int64
	for _, q := range e.Q {
		final += q
	}
	if final > peak/2 {
		t.Fatalf("final backlog %d did not drain from peak %d after revival", final, peak)
	}
}

// TestSetQueuesReplayUnderChurn extends the mid-run replay contract to a
// time-dependent topology: rewinding a warm engine (SetQueues + T reset)
// must replay the same trajectory as a fresh engine, including the alive
// mask's window edges and the revival of edges whose endpoints drained
// out of the active list mid-window.
func TestSetQueuesReplayUnderChurn(t *testing.T) {
	churn := churnTopology{windows: map[graph.EdgeID][2]int64{
		2: {7, 19}, 5: {0, 11}, 9: {23, 31}, 11: {13, 29},
	}}
	build := func() *Engine {
		r := rng.New(9)
		g := graph.RandomMultigraph(10, 24, r)
		s := NewSpec(g).SetSource(0, 2).SetSink(9, 3)
		e := NewEngine(s, NewLGG())
		e.Topology = churn
		return e
	}
	prepared := []int64{5, 0, 3, 0, 0, 7, 0, 1, 0, 2}

	dirty := build()
	dirty.Run(137) // warm-up leaves scratch (incl. the alive mask) used
	dirty.SetQueues(prepared)
	dirty.T = 0

	fresh := build()
	fresh.SetQueues(prepared)

	for i := 0; i < 80; i++ {
		ds, fs := dirty.Step(), fresh.Step()
		if ds != fs {
			t.Fatalf("step %d: replayed stats %+v, fresh stats %+v", i, ds, fs)
		}
		if !reflect.DeepEqual(dirty.Q, fresh.Q) {
			t.Fatalf("step %d: replayed queues %v, fresh queues %v", i, dirty.Q, fresh.Q)
		}
	}
}
