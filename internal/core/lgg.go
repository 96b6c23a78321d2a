package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TieBreak selects how LGG orders incident edges whose far endpoints
// declare equal queue lengths. Algorithm 1 leaves the choice open and the
// paper remarks it "has no impact on the system stability"; experiment E3
// verifies that claim empirically.
type TieBreak int

const (
	// TieEdgeOrder breaks ties by ascending edge id (deterministic).
	TieEdgeOrder TieBreak = iota
	// TiePeerOrder breaks ties by ascending neighbour id, then edge id.
	TiePeerOrder
	// TieRandom shuffles tied candidates with a seeded stream.
	TieRandom
)

// String implements fmt.Stringer.
func (tb TieBreak) String() string {
	switch tb {
	case TieEdgeOrder:
		return "edge-order"
	case TiePeerOrder:
		return "peer-order"
	case TieRandom:
		return "random"
	}
	return "tie?"
}

// LGG is the Local Greedy Gradient protocol (Algorithm 1). At each step
// every node u orders its incident links by the neighbour's declared
// queue length, then transmits one packet over each link whose far end
// declares a strictly smaller queue than q_t(u), stopping after q_t(u)
// transmissions. The protocol is localized (each decision uses only the
// neighbours' declared queues) and greedy (no history).
//
// An LGG value is not safe for concurrent use; give each goroutine its
// own instance (they are cheap).
type LGG struct {
	Tie TieBreak
	// MinGradient is the smallest queue difference that triggers a send
	// (Algorithm 1's strict inequality is MinGradient = 1, the default;
	// 0 is normalized to 1). Larger thresholds are an ablation of the
	// paper's design choice: they damp the last-packet ping-pong between
	// near-equal queues at the cost of retaining MinGradient−1 packets
	// per downhill link (experiment E26).
	MinGradient int64

	// rnd feeds TieRandom keys. A literal LGG{Tie: TieRandom} has no
	// stream; Plan lazily seeds a deterministic fallback so such a value
	// is usable (and reproducible) instead of panicking. Use
	// NewLGGRandomTies to pick the seed explicitly.
	rnd *rng.Source
	// scratch, reused across steps so steady-state planning is
	// allocation-free.
	cand   []candidate
	sorter candSorter
}

// fallbackTieSeed seeds the lazily-created TieRandom stream of an LGG
// constructed literally without NewLGGRandomTies.
const fallbackTieSeed = 0x4c4747 // "LGG"

type candidate struct {
	edge graph.EdgeID
	peer graph.NodeID
	q    int64
	key  uint64 // random tie key when TieRandom
}

// candLess is the single ordering used by every tie rule: ascending
// declared queue first, then the rule's own keys. The trailing edge-id
// comparison makes the order total in all three modes, so every
// comparison sort produces the same (unique) sorted sequence — the
// byte-identical-output contract does not depend on the sort algorithm.
func candLess(a, b *candidate, tie TieBreak) bool {
	if a.q != b.q {
		return a.q < b.q
	}
	switch tie {
	case TiePeerOrder:
		if a.peer != b.peer {
			return a.peer < b.peer
		}
	case TieRandom:
		if a.key != b.key {
			return a.key < b.key
		}
	}
	return a.edge < b.edge
}

// candSorter is a pre-allocated sort.Interface over the candidate scratch,
// used as the fallback for degrees too large for insertion sort. It
// captures nothing, so sort.Sort(&l.sorter) does not allocate.
type candSorter struct {
	cand []candidate
	tie  TieBreak
}

func (s *candSorter) Len() int           { return len(s.cand) }
func (s *candSorter) Swap(i, j int)      { s.cand[i], s.cand[j] = s.cand[j], s.cand[i] }
func (s *candSorter) Less(i, j int) bool { return candLess(&s.cand[i], &s.cand[j], s.tie) }

// insertionSortMax is the largest candidate count sorted in place by
// insertion sort; beyond it Plan falls back to sort.Sort. Node degrees in
// the experiment topologies are far below it, so the fallback only runs
// on unusually dense nodes.
const insertionSortMax = 32

// sortCand orders the candidate scratch by candLess.
func (l *LGG) sortCand(cand []candidate) {
	if len(cand) <= insertionSortMax {
		for i := 1; i < len(cand); i++ {
			c := cand[i]
			j := i - 1
			for j >= 0 && candLess(&c, &cand[j], l.Tie) {
				cand[j+1] = cand[j]
				j--
			}
			cand[j+1] = c
		}
		return
	}
	l.sorter.cand = cand
	l.sorter.tie = l.Tie
	sort.Sort(&l.sorter)
	l.sorter.cand = nil
}

// NewLGG returns the canonical protocol with deterministic edge-order tie
// breaking.
func NewLGG() *LGG { return &LGG{Tie: TieEdgeOrder} }

// NewLGGRandomTies returns an LGG whose tie-breaking is randomized with
// the given stream.
func NewLGGRandomTies(r *rng.Source) *LGG { return &LGG{Tie: TieRandom, rnd: r} }

// Name implements Router.
func (l *LGG) Name() string {
	name := "lgg"
	if l.Tie != TieEdgeOrder {
		name += "/" + l.Tie.String()
	}
	if l.MinGradient > 1 {
		name += fmt.Sprintf("/θ=%d", l.MinGradient)
	}
	return name
}

// ShardClone implements ShardableRouter. Each clone is a fresh LGG with
// its own scratch; TieRandom is refused (nil) because its key stream is
// drawn in global plan order.
func (l *LGG) ShardClone(int, int) Router {
	if l.Tie == TieRandom {
		return nil
	}
	return &LGG{Tie: l.Tie, MinGradient: l.MinGradient}
}

// Plan implements Router. It is a faithful transcription of Algorithm 1
// run at every node on the common snapshot. When the snapshot carries an
// active-node list the scan is restricted to it (the list is sorted and
// contains every node with a positive queue, so the planned sends are
// identical to a full scan); steady-state planning performs no
// allocations once the scratch buffers have grown to the working size.
func (l *LGG) Plan(sn *Snapshot, buf []Send) []Send {
	g := sn.Spec.G
	theta := l.MinGradient
	if theta < 1 {
		theta = 1
	}
	if l.Tie == TieRandom && l.rnd == nil {
		l.rnd = rng.New(fallbackTieSeed)
	}
	off, flat := g.IncidenceCSR()
	if sn.Active != nil {
		for _, u := range sn.Active {
			buf = l.planNode(sn, u, flat[off[u]:off[u+1]], theta, buf)
		}
		return buf
	}
	for v := 0; v < g.NumNodes(); v++ {
		u := graph.NodeID(v)
		buf = l.planNode(sn, u, flat[off[v]:off[v+1]], theta, buf)
	}
	return buf
}

// planNode runs Algorithm 1 at a single node: filter the incident edges
// to downhill candidates (gradient ≥ θ), order them (list(u)), transmit
// along the first q_t(u) of them.
func (l *LGG) planNode(sn *Snapshot, u graph.NodeID, inc []graph.Incidence, theta int64, buf []Send) []Send {
	budget := sn.Q[u] // u knows its own true queue
	if budget <= 0 {
		return buf
	}
	declared := sn.Declared
	alive := sn.Alive
	cand := l.cand[:0]
	for i := range inc {
		in := &inc[i]
		if alive != nil && !alive[in.Edge] {
			continue
		}
		dq := declared[in.Peer]
		if budget-dq >= theta {
			c := candidate{edge: in.Edge, peer: in.Peer, q: dq}
			if l.Tie == TieRandom {
				c.key = l.rnd.Uint64()
			}
			cand = append(cand, c)
		}
	}
	l.cand = cand // retain grown capacity for the next node
	if len(cand) == 0 {
		return buf
	}
	l.sortCand(cand)
	if budget > int64(len(cand)) {
		budget = int64(len(cand))
	}
	for i := int64(0); i < budget; i++ {
		buf = append(buf, Send{Edge: cand[i].edge, From: u})
	}
	return buf
}
