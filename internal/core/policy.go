package core

import (
	"repro/internal/graph"
)

// Send is one planned transmission: 1 packet travels over Edge away from
// From (toward the opposite endpoint). Links are undirected; the
// orientation is given by From. At most one Send per edge per step is
// physical ("each link can transmit at most 1 packet", Section II).
type Send struct {
	Edge graph.EdgeID
	From graph.NodeID
}

// To returns the receiving endpoint of the send in g.
func (s Send) To(g *graph.Multigraph) graph.NodeID {
	return g.EdgeByID(s.Edge).Other(s.From)
}

// Snapshot is the observable network state at the planning point of a
// step: queues after injection, before any transmission. Routing policies
// read Declared (what nodes reveal, Definition 6(ii)); the engine and the
// metrics read Q (ground truth). Alive, when non-nil, masks edges removed
// by a dynamic-topology process (Conjecture 4 experiments).
type Snapshot struct {
	Spec     *Spec
	T        int64
	Q        []int64
	Declared []int64
	Alive    []bool // nil means every edge is alive
	// Active, when non-nil, is a strictly ascending node list guaranteed
	// to contain every node with Q > 0 (it may also contain nodes whose
	// queue just drained). Routers whose decisions only involve nodes
	// holding packets (LGG and the gradient baselines) may restrict
	// their scan to it instead of sweeping all n nodes; because the list
	// is sorted, doing so cannot reorder their output. nil means no
	// active-set information: scan everything.
	Active []graph.NodeID
}

// EdgeAlive reports whether edge e may transmit at this step.
func (sn *Snapshot) EdgeAlive(e graph.EdgeID) bool {
	return sn.Alive == nil || sn.Alive[e]
}

// Router plans the transmission set E_t of a step. Implementations append
// to buf and return the extended slice (allowing the engine to reuse the
// allocation).
//
// Localized protocols (LGG and its variants) must base each node's
// decision only on that node's true queue and its neighbours' *declared*
// queues; centralized baselines (e.g. the max-flow router) may read
// anything in the snapshot. The engine enforces the physical constraints
// regardless of what a Router returns: at most one packet per edge, at
// most q_t(u) packets leaving u, no sends on dead edges.
type Router interface {
	Name() string
	Plan(sn *Snapshot, buf []Send) []Send
}

// ShardableRouter is a Router whose plan can be split across goroutines.
// Implementations must guarantee that, for a snapshot whose Active list
// is a contiguous run of the full active list, a clone emits exactly the
// sends the parent would emit for those nodes, in the same order — so
// concatenating the clones' batches in run order reproduces the plan of
// one call over the whole list. Localized protocols satisfy this for
// free; centralized routers (max-flow, global gradient) do not and
// should not implement the interface. Implementations must be comparable
// (typically pointer types): the engine caches clones per router.
type ShardableRouter interface {
	Router
	// ShardClone returns an independent Router instance for run s of k
	// (own scratch, no shared mutable state). It returns nil when this
	// configuration cannot be split deterministically — e.g. LGG with
	// random tie-breaking, whose tie-key stream is consumed in global
	// plan order — and the engine then plans with one call.
	ShardClone(s, k int) Router
}
