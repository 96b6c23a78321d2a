package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
)

// The engine splits the node-id space into fixed blocks of 1<<blockShift
// nodes: node v lives in block v>>blockShift, so a network of 1024 nodes
// or fewer is one block. LGG is localized — a node's plan depends only
// on its own queue and its neighbours' declared queues — so on a large
// topology only the region that carries traffic changes from one step to
// the next. A block whose queues did not change keeps valid snapshot
// mirrors (snapQ, declared) and valid stats partials, and skips both
// O(block) sweeps; the per-step cost shrinks to O(changed region).
//
// Blocks are contiguous and ascending, so their active lists concatenate
// into the global sorted Snapshot.Active and one Router.Plan call gives
// the plan order every layout shares. Every order-sensitive call stays
// serial, in ascending order: Injections, Declare, EdgeAlive, the
// validation scan, every Lost draw and every Extract call. Engine.Workers
// fans only the order-free phases out over blocks (prep, stats) or over
// runs of the active list (plan, for a ShardableRouter), so the output is
// byte-identical at any block size and worker count.

// blockShift is log2 of the engine's block size.
const blockShift = 10

// Block dirty bits. Two flags because they are consumed in different
// phases: the snapshot refresh at prep, the stats sweep at the step's end.
const (
	snapDirty uint8 = 1 << iota // queues changed since the snapQ/declared refresh
	statDirty                   // queues changed since the stats partials
)

// block is one node span [lo, hi) of the engine. During a parallel phase
// only the goroutine running the block touches it or its span of the
// engine's per-node vectors.
type block struct {
	lo, hi graph.NodeID
	// sources are the block's nodes with In > 0, for SourceOnlyArrivals.
	sources []graph.NodeID
	// active is ascending and, after prep, exactly the block's nodes with
	// Q > 0; newly collects 0→positive transitions since the last
	// compaction, and spare is the compaction double buffer.
	active, spare, newly []graph.NodeID
	injected             int64 // this step's injection partial
	dirty                uint8
	// Stats partials, valid while statDirty is clear.
	pot, queued, maxq int64
	potOver           bool
}

// layout (re)derives every block from the live queue vector, the spec and
// the arrival process, marking all blocks dirty. It reuses the previous
// layout's storage.
func (e *Engine) layout() {
	spec := e.Spec
	n := len(e.Q)
	size := 1 << e.shift
	nb := max((n+size-1)/size, 1)
	if cap(e.blocks) < nb {
		e.blocks = make([]block, nb)
	}
	e.blocks = e.blocks[:nb]
	e.active = e.active[:0:0] // a one-block layout aliased its block's buffer
	so, ok := e.Arrivals.(SourceOnlyArrivals)
	e.srcOnly = ok && so.SourcesOnly()
	e.retention = e.retention[:0]
	for v, r := range spec.R {
		if r > 0 {
			e.retention = append(e.retention, graph.NodeID(v))
		}
	}
	for i := range e.blocks {
		b := &e.blocks[i]
		b.lo, b.hi = graph.NodeID(min(i*size, n)), graph.NodeID(min((i+1)*size, n))
		if b.active == nil { // never nil: a nil Snapshot.Active means "no information"
			b.active, b.spare = []graph.NodeID{}, []graph.NodeID{}
		}
		b.sources, b.active = b.sources[:0], b.active[:0]
		b.newly = b.newly[:0]
		for v := b.lo; v < b.hi; v++ {
			if spec.In[v] > 0 {
				b.sources = append(b.sources, v)
			}
			pos := e.Q[v] > 0
			e.activeMark[v] = pos
			if pos {
				b.active = append(b.active, v)
			}
		}
		b.injected = 0
		b.dirty = snapDirty | statDirty
	}
}

// markActive records a 0→positive queue transition against v's block.
func (e *Engine) markActive(v graph.NodeID) {
	if !e.activeMark[v] {
		e.activeMark[v] = true
		b := &e.blocks[v>>e.shift]
		b.newly = append(b.newly, v)
	}
}

// touchSends marks dirty the blocks of both endpoints of every applied
// send (a lost packet's receiver is marked too, which only costs a
// redundant refresh). A one-block layout is marked once, keeping the
// per-send cost off the small networks of a sweep.
func (e *Engine) touchSends() {
	if len(e.sends) == 0 {
		return
	}
	if len(e.blocks) == 1 {
		e.blocks[0].dirty = snapDirty | statDirty
		return
	}
	g := e.Spec.G
	for _, s := range e.sends {
		ed := g.EdgeByID(s.Edge)
		e.blocks[ed.U>>e.shift].dirty = snapDirty | statDirty
		e.blocks[ed.V>>e.shift].dirty = snapDirty | statDirty
	}
}

// prepBlock applies the block's injections and, if its queues changed
// since the last refresh, compacts its active list and re-copies its
// snapQ/declared spans. declared gets the truthful value here; the serial
// retention pass then overwrites the nodes that lie. A clean block's
// declared span is still valid: its queues, and so last step's
// declarations, are unchanged.
func (e *Engine) prepBlock(b *block) {
	b.injected = 0
	if e.srcOnly {
		for _, v := range b.sources {
			e.inject(b, v)
		}
	} else {
		for v := b.lo; v < b.hi; v++ {
			if e.inj[v] != 0 {
				e.inject(b, v)
			}
		}
	}
	if b.dirty&snapDirty == 0 {
		return
	}
	b.dirty &^= snapDirty
	b.compact(e.Q, e.activeMark)
	span := e.Q[b.lo:b.hi]
	copy(e.snapQ[b.lo:b.hi], span)
	copy(e.declared[b.lo:b.hi], span)
}

func (e *Engine) inject(b *block, v graph.NodeID) {
	x := e.inj[v]
	if x == 0 {
		return
	}
	if x < 0 {
		panic(fmt.Sprintf("core: arrival process injected %d < 0 at node %d", x, v))
	}
	e.inj[v] = 0
	if e.trace != nil {
		e.trace.Injected[v] = x
	}
	e.Q[v] += x
	b.injected += x
	if !e.activeMark[v] {
		e.activeMark[v] = true
		b.newly = append(b.newly, v)
	}
	b.dirty = snapDirty | statDirty
}

// compact folds newly into the sorted active list and drops nodes whose
// queue has drained, keeping active strictly ascending and equal to the
// block's set of nodes with Q > 0. Cost is O(|active| + |newly|·log|newly|)
// with no allocations in steady state.
func (b *block) compact(q []int64, mark []bool) {
	if len(b.newly) > 1 {
		slices.Sort(b.newly)
	}
	dst := b.spare[:0]
	a, n := b.active, b.newly
	i, j := 0, 0
	for i < len(a) || j < len(n) {
		var v graph.NodeID
		// mark keeps a and n disjoint, so a plain min-merge stays
		// strictly ascending.
		if j >= len(n) || (i < len(a) && a[i] < n[j]) {
			v = a[i]
			i++
		} else {
			v = n[j]
			j++
		}
		if q[v] > 0 {
			dst = append(dst, v)
		} else {
			mark[v] = false
		}
	}
	b.spare = b.active
	b.active = dst
	b.newly = b.newly[:0]
}

// statBlock recomputes the block's potential, backlog and max-queue
// partials when its queues changed; a clean block keeps its cache.
func (e *Engine) statBlock(b *block) {
	if b.dirty&statDirty == 0 {
		return
	}
	b.dirty &^= statDirty
	span := e.Q[b.lo:b.hi]
	b.pot, b.potOver = PotentialSat(span)
	b.queued, b.maxq = TotalQueued(span), MaxQueue(span)
}

// stats combines the block partials in block order. Sums of non-negative
// partials are exact, so the grouping cannot change a total, and a
// saturated partial saturates the total just as PotentialSat would.
func (e *Engine) stats(st *StepStats) {
	var pot int64
	over := false
	for i := range e.blocks {
		b := &e.blocks[i]
		st.Queued += b.queued
		st.MaxQueue = max(st.MaxQueue, b.maxq)
		if over = over || b.potOver || pot > math.MaxInt64-b.pot; !over {
			pot += b.pot
		}
	}
	if over {
		pot = math.MaxInt64
	}
	st.Potential, st.Overflowed = pot, over
}

// workers is the goroutine count of this step's parallel phases.
func (e *Engine) workers() int { return min(e.Workers, len(e.blocks)) }

// fanBlocks runs phase over every block on w goroutines. Step calls the
// phases directly when it runs inline: on the small networks of a sweep
// an indirect call per phase is measurable.
func (e *Engine) fanBlocks(w int, phase func(*Engine, *block)) {
	fan(w, len(e.blocks), func(i int) { phase(e, &e.blocks[i]) })
}

// fan runs body(0), …, body(n−1) on w goroutines — goroutine g takes g,
// g+w, g+2w, … in order — and waits for all of them. A panic stops its
// goroutine and is re-raised on the caller; when several bodies panic,
// the one with the lowest index wins, as it would inline.
func fan(w, n int, body func(i int)) {
	fails := make([]any, w)
	at := make([]int, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			i := g
			defer func() {
				if r := recover(); r != nil {
					fails[g], at[g] = r, i
				}
			}()
			for ; i < n; i += w {
				body(i)
			}
		}(g)
	}
	wg.Wait()
	first := -1
	for g, r := range fails {
		if r != nil && (first < 0 || at[g] < at[first]) {
			first = g
		}
	}
	if first >= 0 {
		panic(fails[first])
	}
}

// planner is one plan worker: a ShardableRouter clone with its own
// snapshot view and send buffer.
type planner struct {
	router Router
	snap   Snapshot
	sends  []Send
}

// plan fills e.sends for the current snapshot. With w > 1 and a router
// that clones, the active list is cut into w equal runs planned
// concurrently and the batches concatenated in run order — the order a
// single Plan call over the whole list produces. Otherwise one Plan call
// does the work.
func (e *Engine) plan(w int) {
	if w <= 1 || !e.clonePlanners(w) {
		e.sends = e.Router.Plan(&e.lastSnap, e.sends[:0])
		return
	}
	act := e.active
	fan(w, w, func(i int) {
		p := &e.planners[i]
		p.snap = e.lastSnap
		p.snap.Active = act[i*len(act)/w : (i+1)*len(act)/w]
		p.sends = p.router.Plan(&p.snap, p.sends[:0])
	})
	e.sends = e.sends[:0]
	for i := range e.planners {
		e.sends = append(e.sends, e.planners[i].sends...)
	}
}

// clonePlanners makes sure e.planners holds w clones of the current
// router, reporting false when the router cannot be cloned (it is not a
// ShardableRouter, or ShardClone refused). The answer is cached until the
// router or the worker count changes.
func (e *Engine) clonePlanners(w int) bool {
	sr, ok := e.Router.(ShardableRouter)
	if !ok {
		return false
	}
	if e.planFor == sr && e.planW == w {
		return len(e.planners) == w
	}
	e.planFor, e.planW, e.planners = sr, w, e.planners[:0]
	for i := 0; i < w; i++ {
		c := sr.ShardClone(i, w)
		if c == nil {
			e.planners = e.planners[:0]
			return false
		}
		e.planners = append(e.planners, planner{router: c})
	}
	return true
}
