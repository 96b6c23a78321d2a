package experiments

import (
	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// ShardSpace is the workload behind the shard-determinism CI gate: LGG
// on localized topologies crossed with the stochastic machinery whose
// call order the block engine must preserve exactly — Bernoulli losses
// (one RNG draw per attempted transmission, in global send order),
// thinned and bursty arrivals, and a lying retention band that forces
// collisions. CI holds its JSONL to a recorded hash at one and two
// workers (testdata/shard_grid.sha256). Every network here fits in one
// block; multi-block layouts are held to the same trajectories by the
// core layout-matrix tests and by CI's 64-block lggsim comparison.
func ShardSpace(cfg Config) *sweep.Space {
	type cell struct {
		name  string
		spec  *core.Spec
		build func(spec *core.Spec, seed uint64) *core.Engine
	}
	lgg := func(spec *core.Spec, seed uint64) *core.Engine {
		e := core.NewEngine(spec, core.NewLGG())
		e.Arrivals = &arrivals.Thinned{P: 0.85, R: rng.New(seed).Split(0x5A1)}
		e.Loss = &loss.Bernoulli{P: 0.1, R: rng.New(seed).Split(0x5A2)}
		return e
	}
	lying := func(spec *core.Spec, seed uint64) *core.Engine {
		e := lgg(spec, seed)
		e.Declare = core.DeclareZero{}
		return e
	}
	bursty := func(spec *core.Spec, seed uint64) *core.Engine {
		e := core.NewEngine(spec, core.NewLGG())
		e.Arrivals = &arrivals.Bursty{Period: 16, BurstLen: 4, BurstFactor: 3, QuietFactor: 0}
		e.Loss = &loss.Bernoulli{P: 0.05, R: rng.New(seed).Split(0x5A3)}
		return e
	}

	lineLen, gridC := 256, 12
	if cfg.Quick {
		lineLen, gridC = 64, 6
	}
	lineSpec := core.NewSpec(graph.Line(lineLen)).SetSource(0, 1).SetSink(graph.NodeID(lineLen-1), 2)
	gs := gridSpec(4, gridC, 2, 1, 3)
	retSpec := gridSpec(4, gridC, 2, 1, 3)
	for c := 1; c < gridC-1; c++ {
		retSpec.SetRetention(graph.NodeID(1*gridC+c), 2)
	}
	cells := []cell{
		{"line/thinned+loss", lineSpec, lgg},
		{"grid/thinned+loss", gs, lgg},
		{"grid/lying-retention", retSpec, lying},
		{"grid/bursty", gs, bursty},
	}

	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	return &sweep.Space{
		Name:     "shard",
		BaseSeed: cfg.Seed,
		Replicas: cfg.seeds(),
		Horizon:  cfg.horizon(),
		Axes: []sweep.Axis{
			{Name: "network", Labels: names},
			{Name: "router", Labels: []string{"lgg"}},
		},
		SeedFn: func(_ sweep.Point, rep int) uint64 { return cfg.Seed + uint64(rep) },
		Build: func(p sweep.Probe) *core.Engine {
			c := cells[int(p.Point[0].Value)]
			return c.build(c.spec, p.Seed)
		},
	}
}

// ShardGrid returns the exhaustive enumeration of the shard space.
func ShardGrid(cfg Config) []sweep.Job {
	return mustJobs(ShardSpace(cfg))
}
