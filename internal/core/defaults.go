package core

import "repro/internal/graph"

// This file holds the default pluggable behaviours: exact arrivals, no
// loss, truthful declaration and maximal extraction — together they give
// exactly the classical S-D-network semantics of Section II. The richer
// implementations live in internal/arrivals, internal/loss and the
// declare/extract variants below.

// ExactArrivals injects exactly in(v) packets at every source each step —
// the classical source behaviour and the hypothesis of Conjecture 1
// ("sources inject exactly in(s) packets at each step").
type ExactArrivals struct{}

// Name implements ArrivalProcess.
func (ExactArrivals) Name() string { return "exact" }

// Injections implements ArrivalProcess.
func (ExactArrivals) Injections(_ int64, spec *Spec, inj []int64) {
	copy(inj, spec.In)
}

// SourcesOnly implements SourceOnlyArrivals: classical sources inject
// exactly at the spec's source nodes.
func (ExactArrivals) SourcesOnly() bool { return true }

// NoLoss never loses a packet.
type NoLoss struct{}

// Name implements LossModel.
func (NoLoss) Name() string { return "none" }

// Lost implements LossModel.
func (NoLoss) Lost(int64, graph.EdgeID, graph.NodeID) bool { return false }

// DeclareTruth reveals the true queue length (always legal).
type DeclareTruth struct{}

// Name implements DeclarePolicy.
func (DeclareTruth) Name() string { return "truth" }

// Declare implements DeclarePolicy.
func (DeclareTruth) Declare(_ int64, _ graph.NodeID, q, _ int64) int64 { return q }

// DeclareZero always claims an empty queue while at or below R — the
// most attractive possible lie (neighbours will happily push downhill).
type DeclareZero struct{}

// Name implements DeclarePolicy.
func (DeclareZero) Name() string { return "zero" }

// Declare implements DeclarePolicy.
func (DeclareZero) Declare(int64, graph.NodeID, int64, int64) int64 { return 0 }

// DeclareR always claims exactly R while at or below R — the most
// repellent possible lie (neighbours see the largest legal value).
type DeclareR struct{}

// Name implements DeclarePolicy.
func (DeclareR) Name() string { return "max" }

// Declare implements DeclarePolicy.
func (DeclareR) Declare(_ int64, _ graph.NodeID, _, r int64) int64 { return r }

// ExtractMax removes the most packets allowed, hi = min(out(v), q). With
// R = 0 this is the classical sink: exactly min{out(d), q_t(d)}.
type ExtractMax struct{}

// Name implements ExtractPolicy.
func (ExtractMax) Name() string { return "max" }

// Extract implements ExtractPolicy.
func (ExtractMax) Extract(_ int64, _ graph.NodeID, _, hi int64) int64 { return hi }

// ExtractMin removes the fewest packets allowed — the laziest legal
// generalized destination (Definition 7(i) still forces min(out, q−R)
// once the queue exceeds R).
type ExtractMin struct{}

// Name implements ExtractPolicy.
func (ExtractMin) Name() string { return "min" }

// Extract implements ExtractPolicy.
func (ExtractMin) Extract(_ int64, _ graph.NodeID, lo, _ int64) int64 { return lo }
