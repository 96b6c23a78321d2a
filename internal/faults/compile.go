package faults

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Stream labels for the sub-sources Compile derives, one namespace per
// stochastic component so adding events never perturbs unrelated streams.
const (
	streamBurstChain = 0xB0057C4A // per-event, per-edge state chain
	streamBurstLoss  = 0xB0057105 // per-event, per-edge loss draws
	streamRamp       = 0x4A3B9001 // per-event ramp draws
	streamLie        = 0x11E00001 // per-event random-lie draws
)

// window is a half-open down interval [from, to).
type window struct{ from, to int64 }

func (w window) contains(t int64) bool { return t >= w.from && t < w.to }

// Injector is a compiled Schedule bound to one concrete multigraph: a
// bundle of TopologyProcess / LossModel / DeclarePolicy wrappers plus the
// crash observer, ready to hang on an engine. Compile once per run; an
// Injector carries mutable chain state and must not be shared between
// engines or goroutines.
type Injector struct {
	Schedule Schedule

	g        *graph.Multigraph
	topology *faultTopology // nil when no event touches edges
	loss     *faultLoss     // nil when no event touches losses
	declare  *faultDeclare  // nil when no lie windows
	crashes  []crashDrop
}

// Compile validates s against g and builds the injector. src seeds every
// stochastic component; pass a dedicated Split of the run stream so fault
// randomness never perturbs arrivals or routing tie-breaks.
func Compile(s Schedule, g *graph.Multigraph, src *rng.Source) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, n := g.NumEdges(), g.NumNodes()
	inj := &Injector{Schedule: s, g: g}
	for i, ev := range s.Events {
		for _, e := range ev.Edges {
			if int(e) >= m {
				return nil, fmt.Errorf("faults: event %d (%s): edge %d out of range (graph has %d edges)", i, ev.Kind, e, m)
			}
		}
		for _, v := range ev.Nodes {
			if int(v) >= n {
				return nil, fmt.Errorf("faults: event %d (%s): node %d out of range (graph has %d nodes)", i, ev.Kind, v, n)
			}
		}
		switch ev.Kind {
		case LinkDown, Partition:
			inj.topo(m).add(ev.Edges, window{ev.From, ev.To})
		case Crash:
			for _, v := range ev.Nodes {
				for _, in := range g.Incident(v) {
					inj.topo(m).add([]graph.EdgeID{in.Edge}, window{ev.From, ev.To})
				}
			}
			if ev.Drop {
				inj.crashes = append(inj.crashes, crashDrop{at: ev.From, nodes: ev.Nodes})
			}
		case Burst:
			inj.lossM().bursts = append(inj.lossM().bursts, &burstSet{
				ev:    ev,
				chain: src.Split(streamBurstChain).Split(uint64(i)),
				loss:  src.Split(streamBurstLoss).Split(uint64(i)),
				edges: edgeSet(ev.Edges),
			})
		case Ramp:
			inj.lossM().ramps = append(inj.lossM().ramps, &rampSet{
				ev:    ev,
				src:   src.Split(streamRamp).Split(uint64(i)),
				edges: edgeSet(ev.Edges),
			})
		case Lie:
			inj.decl().lies = append(inj.decl().lies, &lieSet{
				ev:    ev,
				src:   src.Split(streamLie).Split(uint64(i)),
				nodes: nodeSet(ev.Nodes),
			})
		}
	}
	return inj, nil
}

// Inject compiles s against e's network and applies it — the one-call
// path used by the CLIs and the sweep fault axis.
func Inject(e *core.Engine, s Schedule, src *rng.Source) (*Injector, error) {
	inj, err := Compile(s, e.Spec.G, src)
	if err != nil {
		return nil, err
	}
	inj.Apply(e)
	return inj, nil
}

// Apply hangs the compiled faults on e, wrapping whatever Topology / Loss
// / Declare hooks are already installed (base behaviour applies first:
// an edge a base TopologyProcess killed stays dead, a packet the base
// LossModel lost stays lost). The engine's network must be the graph the
// schedule was compiled against. Crash-with-drop events register a
// StepObserver that zeroes the crashed queues at crash onset.
func (inj *Injector) Apply(e *core.Engine) {
	if e.Spec.G != inj.g {
		panic("faults: Apply on an engine with a different graph than Compile saw")
	}
	if inj.topology != nil {
		inj.topology.base = e.Topology
		e.Topology = inj.topology
	}
	if inj.loss != nil {
		inj.loss.base = e.Loss
		e.Loss = inj.loss
	}
	if inj.declare != nil {
		inj.declare.base = e.Declare
		e.Declare = inj.declare
	}
	for _, c := range inj.crashes {
		if c.at <= e.T {
			// Crash onset at or before the current step: drop now, before
			// the next Step runs (covers From == 0 schedules).
			dropQueues(e, c.nodes)
			continue
		}
		e.AddObserver(&crashObserver{drop: c, eng: e})
	}
}

func (inj *Injector) topo(m int) *faultTopology {
	if inj.topology == nil {
		inj.topology = &faultTopology{perEdge: make([][]window, m)}
	}
	return inj.topology
}

func (inj *Injector) lossM() *faultLoss {
	if inj.loss == nil {
		inj.loss = &faultLoss{}
	}
	return inj.loss
}

func (inj *Injector) decl() *faultDeclare {
	if inj.declare == nil {
		inj.declare = &faultDeclare{}
	}
	return inj.declare
}

func edgeSet(es []graph.EdgeID) map[graph.EdgeID]bool {
	if es == nil {
		return nil // nil set = every edge
	}
	s := make(map[graph.EdgeID]bool, len(es))
	for _, e := range es {
		s[e] = true
	}
	return s
}

func nodeSet(vs []graph.NodeID) map[graph.NodeID]bool {
	if vs == nil {
		return nil // nil set = every node
	}
	s := make(map[graph.NodeID]bool, len(vs))
	for _, v := range vs {
		s[v] = true
	}
	return s
}

// faultTopology kills edges during their down windows, on top of a base
// TopologyProcess. all holds windows that black out every edge; perEdge
// is indexed by edge id. Window lists stay short (one entry per event
// touching the edge), so containment is a linear scan.
type faultTopology struct {
	base    core.TopologyProcess
	all     []window
	perEdge [][]window
}

func (ft *faultTopology) add(edges []graph.EdgeID, w window) {
	if edges == nil {
		ft.all = append(ft.all, w)
		return
	}
	for _, e := range edges {
		ft.perEdge[e] = append(ft.perEdge[e], w)
	}
}

func (ft *faultTopology) Name() string { return "faults" }

func (ft *faultTopology) EdgeAlive(t int64, e graph.EdgeID) bool {
	if ft.base != nil && !ft.base.EdgeAlive(t, e) {
		return false
	}
	for _, w := range ft.all {
		if w.contains(t) {
			return false
		}
	}
	for _, w := range ft.perEdge[e] {
		if w.contains(t) {
			return false
		}
	}
	return true
}

// geChain is one edge's Gilbert–Elliott two-state Markov chain. The chain
// advances one transition per simulated step inside the event window,
// lazily caught up from the last query time; transitions draw from a
// stream separate from the loss draws, so the state trajectory depends
// only on (seed, event, edge, t) and never on how often the edge actually
// carried a packet.
type geChain struct {
	chain *rng.Source
	bad   bool
	t     int64 // time the current state is valid for
}

// burstSet is one Burst event's lazily-populated per-edge chain table.
type burstSet struct {
	ev     Event
	chain  *rng.Source // parent; split per edge on first touch
	loss   *rng.Source
	edges  map[graph.EdgeID]bool // nil = all
	chains map[graph.EdgeID]*geChain
	losses map[graph.EdgeID]*rng.Source
}

func (b *burstSet) lost(t int64, e graph.EdgeID) bool {
	if !b.ev.Active(t) || (b.edges != nil && !b.edges[e]) {
		return false
	}
	if b.chains == nil {
		b.chains = make(map[graph.EdgeID]*geChain)
		b.losses = make(map[graph.EdgeID]*rng.Source)
	}
	c := b.chains[e]
	if c == nil {
		// Split is a pure derivation from (seed, path), so creating
		// chains lazily in whatever order edges are first queried yields
		// the same streams as creating them all upfront.
		c = &geChain{chain: b.chain.Split(uint64(e)), t: b.ev.From}
		b.chains[e] = c
		b.losses[e] = b.loss.Split(uint64(e))
	}
	for c.t < t {
		p := c.chain.Float64()
		if c.bad {
			c.bad = p >= b.ev.BtoG
		} else {
			c.bad = p < b.ev.GtoB
		}
		c.t++
	}
	pr := b.ev.PGood
	if c.bad {
		pr = b.ev.PBad
	}
	return b.losses[e].Bool(pr)
}

// rampSet is one Ramp event: loss probability interpolated linearly from
// P0 at From to P1 approaching To.
type rampSet struct {
	ev    Event
	src   *rng.Source
	edges map[graph.EdgeID]bool // nil = all
}

func (r *rampSet) lost(t int64, e graph.EdgeID) bool {
	if !r.ev.Active(t) || (r.edges != nil && !r.edges[e]) {
		return false
	}
	frac := float64(t-r.ev.From) / float64(r.ev.To-r.ev.From)
	return r.src.Bool(r.ev.P0 + (r.ev.P1-r.ev.P0)*frac)
}

// faultLoss ORs the schedule's loss components over the base model. Every
// active component is consulted even after one reports a loss, so each
// component's stream advances at a rate independent of the others.
type faultLoss struct {
	base   core.LossModel
	bursts []*burstSet
	ramps  []*rampSet
}

func (fl *faultLoss) Name() string { return "faults" }

func (fl *faultLoss) Lost(t int64, e graph.EdgeID, from graph.NodeID) bool {
	lost := fl.base != nil && fl.base.Lost(t, e, from)
	for _, b := range fl.bursts {
		if b.lost(t, e) {
			lost = true
		}
	}
	for _, r := range fl.ramps {
		if r.lost(t, e) {
			lost = true
		}
	}
	return lost
}

// lieSet is one Lie event: during the window the targeted nodes declare
// per Mode instead of consulting the base policy.
type lieSet struct {
	ev    Event
	src   *rng.Source
	nodes map[graph.NodeID]bool // nil = all
}

// faultDeclare overrides declarations inside lie windows; the last
// matching event in schedule order wins when windows overlap. Note the
// engine consults DeclarePolicy only for nodes with R(v) > 0 and true
// queue ≤ R(v) — lying is an R-generalized capability (Definition 6(ii)),
// so a Lie window on a classical network is a no-op by construction.
type faultDeclare struct {
	base core.DeclarePolicy
	lies []*lieSet
}

func (fd *faultDeclare) Name() string { return "faults" }

func (fd *faultDeclare) Declare(t int64, v graph.NodeID, q, r int64) int64 {
	var hit *lieSet
	for _, l := range fd.lies {
		if l.ev.Active(t) && (l.nodes == nil || l.nodes[v]) {
			hit = l
		}
	}
	if hit == nil {
		if fd.base != nil {
			return fd.base.Declare(t, v, q, r)
		}
		return q
	}
	switch hit.ev.Mode {
	case ModeZero:
		return 0
	case ModeMax:
		return r
	default: // ModeRandom
		return hit.src.Int64N(r + 1)
	}
}

// crashDrop schedules the queue-destruction side of a Crash event.
type crashDrop struct {
	at    int64 // crash onset: queues are dropped before step `at` runs
	nodes []graph.NodeID
}

// crashObserver zeroes the crashed nodes' queues after step at−1, i.e.
// immediately before the crash window opens. The dropped packets simply
// vanish — the preceding step's stats still show them (stats are taken
// before observers run), and the next step's Queued reflects the drop.
type crashObserver struct {
	drop crashDrop
	eng  *core.Engine
	done bool
}

func (c *crashObserver) OnStep(t int64, sn *core.Snapshot, st *core.StepStats) {
	if c.done || t+1 != c.drop.at {
		return
	}
	c.done = true
	dropQueues(c.eng, c.drop.nodes)
}

// dropQueues zeroes the nodes' queues in place and hands Q back to the
// engine through SetQueues, which rebuilds its block bookkeeping.
func dropQueues(e *core.Engine, nodes []graph.NodeID) {
	for _, v := range nodes {
		e.Q[v] = 0
	}
	e.SetQueues(e.Q)
}
