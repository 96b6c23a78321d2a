package core

import (
	"fmt"

	"repro/internal/graph"
)

// ArrivalProcess decides how many packets each source injects at each
// step. Classical sources inject exactly in(v) ("each source s ∈ S
// injects in(s) packets"); generalized sources inject *at most* in(v)
// (Definition 5), which also models losses at injection. The conjecture
// experiments use processes that occasionally exceed in(v) (bursts); the
// engine places no cap — feasibility analysis is a separate concern.
type ArrivalProcess interface {
	Name() string
	// Injections writes the number of packets injected at step t into
	// inj[v] for every node (the engine pre-zeroes inj). Entries must be
	// non-negative.
	Injections(t int64, spec *Spec, inj []int64)
}

// SourceOnlyArrivals marks arrival processes whose injections land only
// on nodes with spec.In[v] > 0 (entries elsewhere stay zero). The
// injection scan then visits each block's source nodes instead of its
// whole node set — the difference between O(|S|) and O(n) per step on a
// million-node topology with a handful of sources.
type SourceOnlyArrivals interface {
	ArrivalProcess
	// SourcesOnly reports whether the guarantee holds for this instance
	// (wrappers delegate to their inner process).
	SourcesOnly() bool
}

// LossModel decides, per attempted transmission, whether the packet is
// lost in flight ("this packet can be lost without any notification").
type LossModel interface {
	Name() string
	Lost(t int64, e graph.EdgeID, from graph.NodeID) bool
}

// DeclarePolicy chooses the queue length an R-generalized node reveals to
// its neighbours when its true queue is at most R (Definition 6(ii): it
// may declare any value ≤ R). The engine only consults it in that case;
// above R nodes always tell the truth.
type DeclarePolicy interface {
	Name() string
	// Declare returns the revealed queue for node v with true queue q ≤ r.
	// The engine clamps the result to [0, r].
	Declare(t int64, v graph.NodeID, q, r int64) int64
}

// ExtractPolicy chooses how many packets a destination removes at the end
// of a step, within the legal window [lo, hi] derived from Definition 7:
// hi = min(out(v), q) and lo = min(out(v), q−R) when q > R (0 otherwise).
type ExtractPolicy interface {
	Name() string
	Extract(t int64, v graph.NodeID, lo, hi int64) int64
}

// Interference restricts a planned transmission set to a subset that is
// simultaneously schedulable under a wireless interference model
// (Conjecture 5). The returned slice may share storage with sends.
type Interference interface {
	Name() string
	Filter(sn *Snapshot, sends []Send) []Send
}

// TopologyProcess animates a dynamic network (Conjecture 4): edge e may
// transmit at step t only when EdgeAlive(t, e) is true.
type TopologyProcess interface {
	Name() string
	EdgeAlive(t int64, e graph.EdgeID) bool
}

// StepStats summarizes one engine step.
type StepStats struct {
	T        int64 // the step that was executed
	Injected int64 // packets added by sources
	Planned  int64 // sends requested by the router
	// Filtered counts planned sends removed by the environment before
	// transmission: the interference model's Filter plus sends attempted
	// over an edge the dynamic-topology process took down this step.
	// Environment drops are not router bugs — a correct router can still
	// see Filtered > 0 when a TopologyProcess kills an edge it was never
	// told about (routers only see the Alive mask the engine snapshots).
	Filtered  int64
	Sent      int64 // packets that left their queue
	Lost      int64 // sent packets destroyed in flight
	Arrived   int64 // sent packets that reached the far queue
	Extracted int64 // packets removed by destinations
	// Collisions counts sends dropped because their edge was already used
	// this step. Two endpoints can legitimately claim the same link when
	// declared queues disagree with true queues (lying R-generalized
	// nodes); the engine keeps the first planned send, modelling a busy
	// link. Truthful networks always have 0 collisions.
	Collisions int64
	// Violations counts router outputs the engine had to reject as
	// unphysical: overdrawn queues (more sends leaving a node than its
	// true queue holds). A correct policy keeps this at 0; tests assert
	// it. Dead-edge drops are environment effects and count in Filtered.
	Violations int64
	Potential  int64 // P_{t+1}: network state after the step
	Queued     int64 // total packets stored after the step
	MaxQueue   int64
	// Overflowed reports that Potential saturated at math.MaxInt64 this
	// step: some Σ q(v)² exceeded the int64 range (queues ≳ 2³¹ on an
	// unstable run). Peak/verdict logic that compares potentials should
	// treat a saturated run as divergent rather than trust the value.
	Overflowed bool
}

// Totals accumulates StepStats over a run.
type Totals struct {
	Steps                               int64
	Injected, Sent, Lost, Arrived       int64
	Extracted, Collisions, Violations   int64
	PeakPotential, PeakQueued, PeakMaxQ int64
	FinalPotential, FinalQueued         int64
	// Overflowed is true when any step's potential saturated; peak and
	// final potentials are then lower bounds, not exact values.
	Overflowed bool
}

// Add folds one step into the totals.
func (t *Totals) Add(s StepStats) {
	t.Steps++
	t.Injected += s.Injected
	t.Sent += s.Sent
	t.Lost += s.Lost
	t.Arrived += s.Arrived
	t.Extracted += s.Extracted
	t.Collisions += s.Collisions
	t.Violations += s.Violations
	if s.Potential > t.PeakPotential {
		t.PeakPotential = s.Potential
	}
	if s.Queued > t.PeakQueued {
		t.PeakQueued = s.Queued
	}
	if s.MaxQueue > t.PeakMaxQ {
		t.PeakMaxQ = s.MaxQueue
	}
	t.FinalPotential = s.Potential
	t.FinalQueued = s.Queued
	t.Overflowed = t.Overflowed || s.Overflowed
}

// StepTrace exposes everything that happened during one step, for
// instruments that audit the dynamics (e.g. the Lyapunov decomposition of
// Equations 1–3). Enable with Engine.EnableTrace; the engine then refills
// the same buffers every step.
type StepTrace struct {
	// Sends are the validated transmissions actually applied; Lost[i]
	// reports whether Sends[i] was destroyed in flight.
	Sends []Send
	Lost  []bool
	// Injected and Extracted are per-node packet counts for this step.
	Injected  []int64
	Extracted []int64
}

// Engine executes the synchronous network semantics of Section II:
// inject → plan (on a common snapshot) → transmit with losses → extract.
// The zero value is not usable; construct with NewEngine and then
// optionally override the pluggable behaviours before the first Step
// (or call SetQueues after replacing Arrivals).
//
// The step runs over fixed blocks of the node-id space with dirty
// tracking (blocks.go), so a step's cost follows the region that carries
// traffic rather than the whole topology.
type Engine struct {
	Spec     *Spec
	Router   Router
	Arrivals ArrivalProcess
	Loss     LossModel
	Declare  DeclarePolicy
	Extract  ExtractPolicy
	// Optional extensions; nil disables them.
	Interference Interference
	Topology     TopologyProcess

	// Workers bounds intra-step parallelism: the prep and stats phases
	// fan out over blocks, and the plan phase of a ShardableRouter over
	// runs of the active list, on up to min(Workers, blocks) goroutines.
	// ≤ 1 runs every phase inline on the calling goroutine without
	// allocating — the right choice inside sweeps, which already
	// parallelize across runs. Output is byte-identical at any value,
	// and the engine keeps no goroutines between steps.
	Workers int

	// Q is the live queue vector; read it freely between steps. Do not
	// write entries directly — use SetQueues, which also rebuilds the
	// engine's block bookkeeping.
	Q []int64
	// T is the next step to execute.
	T int64

	// scratch
	inj      []int64 // zero between steps
	declared []int64
	snapQ    []int64
	alive    []bool
	sends    []Send
	edgeUsed []int64 // last step each edge transmitted, as T+1 marker
	sentBy   []int64
	lastSnap Snapshot
	trace    *StepTrace
	// observers registered with AddObserver, invoked after every step.
	observers []StepObserver
	// obsStats stages each step's stats for the observer callbacks:
	// handing observers a pointer into this persistent field (instead of
	// &st) keeps the per-step StepStats on the stack, which is what makes
	// Step allocation-free.
	obsStats StepStats

	// Block bookkeeping (blocks.go). shift is log2 of the block size,
	// blockShift unless an in-package test overrides it before the first
	// Step; blocks is empty until the next Step lays it out. active is
	// the concatenation of the block active lists, handed to routers as
	// Snapshot.Active; activeMark[v] reports membership in v's block
	// active or newly list. sentDirty records which sentBy entries were
	// made nonzero this step, so the next step zeroes only those.
	shift      uint
	blocks     []block
	active     []graph.NodeID
	activeMark []bool
	sentDirty  []graph.NodeID
	// retention lists the nodes with R > 0 in ascending order, for the
	// serial declaration pass.
	retention []graph.NodeID
	// srcOnly caches the SourceOnlyArrivals answer of Arrivals at
	// layout, which is why behaviours are set before the first Step.
	srcOnly bool
	// sinks lists the nodes with out(v) > 0 in ascending order, so the
	// extraction phase does not scan non-destination nodes.
	sinks []graph.NodeID
	// planners are the router clones of a parallel plan phase, built for
	// router planFor at planW workers.
	planners []planner
	planFor  ShardableRouter
	planW    int
}

// EnableTrace switches on per-step tracing and returns the trace buffer,
// which the engine refills on every Step.
func (e *Engine) EnableTrace() *StepTrace {
	if e.trace == nil {
		n := e.Spec.N()
		e.trace = &StepTrace{
			Injected:  make([]int64, n),
			Extracted: make([]int64, n),
		}
	}
	return e.trace
}

// NewEngine builds an engine for spec running router, with classical
// defaults: exact arrivals (sources inject exactly in(v)), no losses,
// truthful declarations and maximal extraction. spec must validate.
func NewEngine(spec *Spec, router Router) *Engine {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid spec: %v", err))
	}
	n := spec.N()
	e := &Engine{
		Spec:       spec,
		Router:     router,
		Arrivals:   ExactArrivals{},
		Loss:       NoLoss{},
		Declare:    DeclareTruth{},
		Extract:    ExtractMax{},
		Q:          make([]int64, n),
		inj:        make([]int64, n),
		declared:   make([]int64, n),
		snapQ:      make([]int64, n),
		sentBy:     make([]int64, n),
		edgeUsed:   make([]int64, spec.G.NumEdges()),
		activeMark: make([]bool, n),
		active:     []graph.NodeID{}, // never nil: nil Active means "no information"
		shift:      blockShift,
	}
	for v := 0; v < n; v++ {
		if spec.Out[v] > 0 {
			e.sinks = append(e.sinks, graph.NodeID(v))
		}
	}
	return e
}

// SetQueues overwrites the current queue vector (for experiments that
// start from a prepared state, e.g. Property 2 probes). Passing e.Q itself
// resynchronises the engine after in-place edits of Q between steps. It
// also resets the engine's step-scoped scratch: the edge-use markers
// (callers that reset T to replay from a prepared state would otherwise
// race stale T+1 markers from the previous run and count phantom
// collisions), the sparse injection/sends bookkeeping, and the blocks,
// which the next Step lays out again from the new queue vector.
func (e *Engine) SetQueues(q []int64) {
	if len(q) != len(e.Q) {
		panic("core: queue vector length mismatch")
	}
	copy(e.Q, q)
	for i := range e.edgeUsed {
		e.edgeUsed[i] = 0
	}
	for i := range e.inj {
		e.inj[i] = 0
	}
	for i := range e.sentBy {
		e.sentBy[i] = 0
	}
	e.sentDirty = e.sentDirty[:0]
	e.blocks = e.blocks[:0]
}

// Snapshot returns the snapshot the router saw at the most recent step.
// Valid only after at least one Step; the backing arrays are reused.
func (e *Engine) Snapshot() *Snapshot { return &e.lastSnap }

// Step executes one synchronous time step and returns its statistics.
func (e *Engine) Step() StepStats {
	spec := e.Spec
	g := spec.G
	st := StepStats{T: e.T}
	if len(e.blocks) == 0 {
		e.layout()
	}
	w := e.workers()

	// Phase 1: injection. inj is all zero: prep consumes every entry.
	if e.trace != nil {
		for v := range e.trace.Injected {
			e.trace.Injected[v] = 0
		}
	}
	e.Arrivals.Injections(e.T, spec, e.inj)

	// Phase 2: snapshot. Each block applies its injections and, if its
	// queues changed, refreshes its active list and snapshot mirrors.
	if w > 1 {
		e.fanBlocks(w, (*Engine).prepBlock)
	} else {
		for i := range e.blocks {
			e.prepBlock(&e.blocks[i])
		}
	}
	if len(e.blocks) == 1 {
		st.Injected, e.active = e.blocks[0].injected, e.blocks[0].active
	} else {
		e.active = e.active[:0]
		for i := range e.blocks {
			b := &e.blocks[i]
			st.Injected += b.injected
			e.active = append(e.active, b.active...)
		}
	}
	// R-generalized nodes with q ≤ r declare through the policy, in
	// ascending node order. A node above r keeps the truthful value: its
	// queue changed since it last lied, so its block was refreshed.
	for _, v := range e.retention {
		if q, r := e.snapQ[v], spec.R[v]; q <= r {
			e.declared[v] = min(max(e.Declare.Declare(e.T, v, q, r), 0), r)
		}
	}
	var alive []bool
	if e.Topology != nil {
		if e.alive == nil {
			e.alive = make([]bool, g.NumEdges())
		}
		alive = e.alive
		for ed := range alive {
			alive[ed] = e.Topology.EdgeAlive(e.T, graph.EdgeID(ed))
		}
	}
	e.lastSnap = Snapshot{Spec: spec, T: e.T, Q: e.snapQ, Declared: e.declared, Alive: alive, Active: e.active}

	// Phase 3: plan.
	e.plan(w)
	st.Planned = int64(len(e.sends))

	// Phase 3b: interference filtering.
	if e.Interference != nil {
		kept := e.Interference.Filter(&e.lastSnap, e.sends)
		st.Filtered += int64(len(e.sends) - len(kept))
		e.sends = kept
	}

	// Phase 3c: physical validation. marker: edgeUsed[e] == T+1 means
	// edge e already transmits this step. sentBy is zero except for last
	// step's entries.
	marker := e.T + 1
	for _, v := range e.sentDirty {
		e.sentBy[v] = 0
	}
	e.sentDirty = e.sentDirty[:0]
	valid := e.sends[:0]
	for _, s := range e.sends {
		if alive != nil && !alive[s.Edge] {
			st.Filtered++ // topology drop: the environment, not the router
			continue
		}
		if e.edgeUsed[s.Edge] == marker {
			st.Collisions++
			continue
		}
		if e.sentBy[s.From]+1 > e.snapQ[s.From] {
			st.Violations++
			continue
		}
		e.edgeUsed[s.Edge] = marker
		if e.sentBy[s.From] == 0 {
			e.sentDirty = append(e.sentDirty, s.From)
		}
		e.sentBy[s.From]++
		valid = append(valid, s)
	}
	e.sends = valid

	if e.trace != nil {
		e.trace.Sends = append(e.trace.Sends[:0], e.sends...)
		e.trace.Lost = e.trace.Lost[:0]
		for v := range e.trace.Extracted {
			e.trace.Extracted[v] = 0
		}
	}

	// Phase 4: transmit.
	for _, s := range e.sends {
		to := s.To(g)
		e.Q[s.From]--
		st.Sent++
		lost := e.Loss.Lost(e.T, s.Edge, s.From)
		if lost {
			st.Lost++
		} else {
			e.Q[to]++
			e.markActive(to)
			st.Arrived++
		}
		if e.trace != nil {
			e.trace.Lost = append(e.trace.Lost, lost)
		}
	}
	e.touchSends()

	// Phase 5: extraction (Definition 7(i)), destinations only.
	for _, v := range e.sinks {
		out := spec.Out[v]
		q := e.Q[v]
		hi := min64(out, q)
		var lo int64
		if r := spec.R[v]; q > r {
			lo = min64(out, q-r)
		}
		amt := e.Extract.Extract(e.T, v, lo, hi)
		if amt < lo {
			amt = lo
		}
		if amt > hi {
			amt = hi
		}
		if amt > 0 {
			e.Q[v] -= amt
			e.blocks[v>>e.shift].dirty = snapDirty | statDirty
		}
		st.Extracted += amt
		if e.trace != nil {
			e.trace.Extracted[v] = amt
		}
	}

	// Phase 6: stats over the post-step queues, from dirty blocks only.
	e.T++
	if w > 1 {
		e.fanBlocks(w, (*Engine).statBlock)
	} else {
		for i := range e.blocks {
			e.statBlock(&e.blocks[i])
		}
	}
	e.stats(&st)
	if len(e.observers) > 0 {
		e.obsStats = st
		for _, o := range e.observers {
			o.OnStep(st.T, &e.lastSnap, &e.obsStats)
		}
		st = e.obsStats
	}
	return st
}

// Run executes steps time steps, folding stats into a Totals.
func (e *Engine) Run(steps int64) Totals {
	var t Totals
	for i := int64(0); i < steps; i++ {
		t.Add(e.Step())
	}
	return t
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
