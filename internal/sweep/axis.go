package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the typed-axis sweep API: a Space declares its parameter
// axes as first-class values (name, unit, ordered numeric points or a
// continuous range) instead of a pre-enumerated job list. Exhaustive
// sweeps enumerate a Space with Jobs(); the adaptive frontier driver
// (adaptive.go) instead probes a numeric axis at arbitrary coordinates,
// which only works because the axis — not an opaque closure — is the
// unit of parameterization.

// Axis is one dimension of a Space. Exactly one of three shapes:
//
//   - categorical: Labels set, Points empty — an ordered list of named
//     values (networks, routers, policy variants). The value of the i-th
//     label is the ordinal i.
//   - numeric points: Points set (strictly increasing), optionally with
//     aligned display Labels — an ordered list of numeric coordinates
//     (load fractions, loss rates).
//   - continuous: Min < Max with no Points/Labels — a numeric range only
//     the adaptive driver can probe; Jobs() refuses to enumerate it.
type Axis struct {
	// Name identifies the axis; "network", "router" and "variant" map
	// onto the matching Desc fields, anything else renders into
	// Desc.Variant as "name=value".
	Name string `json:"name"`
	// Unit is an optional display unit (e.g. "×f*").
	Unit string `json:"unit,omitempty"`
	// Points are the ordered numeric coordinates of the axis.
	Points []float64 `json:"points,omitempty"`
	// Labels are the display labels: the whole axis for a categorical
	// axis, or one label per point for a numeric axis.
	Labels []string `json:"labels,omitempty"`
	// Min/Max declare a continuous range (adaptive-only) when Min < Max
	// and the axis has no Points or Labels.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Continuous reports whether the axis is a continuous range — probe-able
// by the adaptive driver but not enumerable by Jobs().
func (a Axis) Continuous() bool {
	return len(a.Points) == 0 && len(a.Labels) == 0 && a.Min < a.Max
}

// Numeric reports whether the axis carries numeric coordinates (points
// or a continuous range) — the requirement for being a search axis.
func (a Axis) Numeric() bool { return len(a.Points) > 0 || a.Continuous() }

// Bounds returns the numeric range of the axis: the first and last point,
// or the continuous Min/Max. ok is false for categorical axes.
func (a Axis) Bounds() (lo, hi float64, ok bool) {
	if len(a.Points) > 0 {
		return a.Points[0], a.Points[len(a.Points)-1], true
	}
	if a.Continuous() {
		return a.Min, a.Max, true
	}
	return 0, 0, false
}

// validate checks the axis invariants.
func (a Axis) validate() error {
	if a.Name == "" {
		return fmt.Errorf("sweep: axis without a name")
	}
	if len(a.Points) == 0 && len(a.Labels) == 0 && !(a.Min < a.Max) {
		return fmt.Errorf("sweep: axis %q has no points, no labels and no continuous range", a.Name)
	}
	if len(a.Points) > 0 && len(a.Labels) > 0 && len(a.Points) != len(a.Labels) {
		return fmt.Errorf("sweep: axis %q has %d points but %d labels", a.Name, len(a.Points), len(a.Labels))
	}
	for i := 1; i < len(a.Points); i++ {
		if a.Points[i] <= a.Points[i-1] {
			return fmt.Errorf("sweep: axis %q points not strictly increasing at %d (%g after %g)",
				a.Name, i, a.Points[i], a.Points[i-1])
		}
	}
	return nil
}

// size is the number of enumerable values (0 for a continuous axis).
func (a Axis) size() int {
	if len(a.Points) > 0 {
		return len(a.Points)
	}
	return len(a.Labels)
}

// value returns the i-th enumerable value of the axis.
func (a Axis) value(i int) AxisValue {
	v := AxisValue{Axis: a.Name}
	if len(a.Points) > 0 {
		v.Value = a.Points[i]
		if len(a.Labels) > 0 {
			v.Label = a.Labels[i]
		}
		return v
	}
	v.Value = float64(i)
	v.Label = a.Labels[i]
	return v
}

// at returns an AxisValue for an arbitrary numeric coordinate x of the
// axis, attaching the display label when x coincides with a declared
// point — so an adaptive probe landing on a grid point carries the same
// descriptor the exhaustive enumeration would.
func (a Axis) at(x float64) AxisValue {
	v := AxisValue{Axis: a.Name, Value: x}
	for i, p := range a.Points {
		if p == x && len(a.Labels) > 0 {
			v.Label = a.Labels[i]
		}
	}
	return v
}

// display renders an axis value for Desc fields: the label when the axis
// carries one, the formatted coordinate otherwise.
func (a Axis) display(v AxisValue) string {
	if v.Label != "" || !a.Numeric() {
		return v.Label
	}
	return strconv.FormatFloat(v.Value, 'g', -1, 64)
}

// AxisValue is one coordinate of a run: the axis name plus the numeric
// value (the ordinal for categorical axes) and display label.
type AxisValue struct {
	Axis  string  `json:"axis"`
	Value float64 `json:"value"`
	Label string  `json:"label,omitempty"`
}

// Point is a full coordinate vector, aligned with the Space's Axes.
type Point []AxisValue

// Value returns the numeric coordinate of the named axis.
func (p Point) Value(axis string) (float64, bool) {
	for _, v := range p {
		if v.Axis == axis {
			return v.Value, true
		}
	}
	return 0, false
}

// Label returns the display label of the named axis.
func (p Point) Label(axis string) (string, bool) {
	for _, v := range p {
		if v.Axis == axis {
			return v.Label, true
		}
	}
	return "", false
}

// Probe identifies one engine build request: the coordinate vector, the
// replica number within that coordinate, the derived seed, and the dense
// emission index (which a Build can feed to rng.ForRun).
type Probe struct {
	Index   int
	Point   Point
	Replica int
	Seed    uint64
}

// Space is a sweep parameterized by typed axes. Jobs() enumerates the
// cartesian product (axes in declaration order, first axis outermost,
// replicas innermost — the Cells convention); RunFrontier instead probes
// one numeric axis adaptively.
type Space struct {
	// Name becomes Desc.Grid.
	Name string
	// BaseSeed feeds the per-coordinate seed derivation.
	BaseSeed uint64
	// Replicas is the number of runs per coordinate (default 1).
	Replicas int
	// Horizon is the per-run step count.
	Horizon int64
	// Axes are the dimensions, in enumeration order.
	Axes []Axis
	// Options tunes every run (Horizon above wins when unset there).
	Options sim.Options
	// Build constructs the engine for one probe. Like sim.EngineFactory
	// it must return an independent engine per call.
	Build func(Probe) *core.Engine
	// SeedFn, when set, overrides the default coordinate-keyed seed
	// derivation — the migrated experiment grids use it to keep their
	// historical base+replica seeds. The default hashes (BaseSeed, every
	// coordinate, replica), so a probe at the same coordinates draws the
	// same stream no matter how the sweep reached it: exhaustive
	// enumeration, adaptive refinement and resumed refinement all agree.
	SeedFn func(p Point, replica int) uint64
}

// Validate checks the space invariants shared by Jobs and RunFrontier.
func (s *Space) Validate() error {
	if s.Build == nil {
		return fmt.Errorf("sweep: space %q has no Build", s.Name)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: space %q has no axes", s.Name)
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: space %q declares axis %q twice", s.Name, a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Axis looks an axis up by name.
func (s *Space) Axis(name string) (Axis, bool) {
	for _, a := range s.Axes {
		if a.Name == name {
			return a, true
		}
	}
	return Axis{}, false
}

// replicas is Replicas with the default applied.
func (s *Space) replicas() int {
	if s.Replicas <= 0 {
		return 1
	}
	return s.Replicas
}

// Jobs enumerates the cartesian product of the axes into the flat job
// list the Runner executes: first axis outermost, replicas innermost.
// Continuous axes cannot be enumerated — run those through RunFrontier.
func (s *Space) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	total := s.replicas()
	for _, a := range s.Axes {
		if a.Continuous() {
			return nil, fmt.Errorf("sweep: space %q axis %q is continuous — enumerate explicit points or use RunFrontier", s.Name, a.Name)
		}
		total *= a.size()
	}
	if total == 0 {
		return nil, nil
	}
	jobs := make([]Job, 0, total)
	counters := make([]int, len(s.Axes))
	for {
		pt := make(Point, len(s.Axes))
		for i, c := range counters {
			pt[i] = s.Axes[i].value(c)
		}
		for rep := 0; rep < s.replicas(); rep++ {
			jobs = append(jobs, s.job(len(jobs), pt, rep))
		}
		k := len(counters) - 1
		for ; k >= 0; k-- {
			if counters[k]++; counters[k] < s.Axes[k].size() {
				break
			}
			counters[k] = 0
		}
		if k < 0 {
			return jobs, nil
		}
	}
}

// job builds the Job for one probe of the space.
func (s *Space) job(idx int, pt Point, rep int) Job {
	d := s.desc(idx, pt, rep)
	p := Probe{Index: idx, Point: pt, Replica: rep, Seed: d.Seed}
	return Job{
		Desc:    d,
		Build:   func(uint64) *core.Engine { return s.Build(p) },
		Options: s.Options,
	}
}

// desc maps a coordinate vector onto the flat run descriptor: the
// "network"/"router" axes fill the matching fields, a "variant" axis
// contributes its bare label, and every other axis renders as
// "name=value"; the non-dedicated parts join with "/" into Desc.Variant.
// Numeric coordinates are additionally reported by name in Desc.Coords.
func (s *Space) desc(idx int, pt Point, rep int) Desc {
	d := Desc{Index: idx, Grid: s.Name, Replica: rep,
		Seed: s.seedFor(pt, rep), Horizon: s.Horizon}
	var variant []string
	for i, v := range pt {
		a := s.Axes[i]
		switch a.Name {
		case "network":
			d.Network = a.display(v)
		case "router":
			d.Router = a.display(v)
		case "variant":
			variant = append(variant, a.display(v))
		default:
			variant = append(variant, a.Name+"="+a.display(v))
		}
		if a.Numeric() {
			d.Coords = append(d.Coords, v)
		}
	}
	d.Variant = strings.Join(variant, "/")
	return d
}

// seedFor derives the run seed for a coordinate vector and replica.
func (s *Space) seedFor(pt Point, rep int) uint64 {
	if s.SeedFn != nil {
		return s.SeedFn(pt, rep)
	}
	h := splitmix64(s.BaseSeed ^ 0x5357454550415845) // "SWEEPAXE"
	for i, v := range pt {
		a := s.Axes[i]
		h = splitmix64(h ^ fnv64(a.Name))
		if a.Numeric() {
			// Hash the coordinate, not the label: a probe at 0.5 and an
			// enumerated point labelled "0.50" must share a stream.
			h = splitmix64(h ^ math.Float64bits(v.Value))
		} else {
			h = splitmix64(h ^ fnv64(v.Label))
		}
	}
	return splitmix64(h ^ uint64(rep))
}

// groups enumerates the cartesian product of every axis except skip —
// the per-group coordinate prefixes the adaptive driver bisects within.
// Group points have one entry per non-skip axis, in axis order.
func (s *Space) groups(skip string) ([]Point, error) {
	var rest []Axis
	for _, a := range s.Axes {
		if a.Name == skip {
			continue
		}
		if a.Continuous() {
			return nil, fmt.Errorf("sweep: space %q axis %q is continuous but not the search axis", s.Name, a.Name)
		}
		rest = append(rest, a)
	}
	pts := []Point{nil}
	for _, a := range rest {
		next := make([]Point, 0, len(pts)*a.size())
		for _, p := range pts {
			for i := 0; i < a.size(); i++ {
				np := make(Point, len(p), len(p)+1)
				copy(np, p)
				next = append(next, append(np, a.value(i)))
			}
		}
		pts = next
	}
	return pts, nil
}

// pointWith assembles a full coordinate vector from a group point (all
// axes but one) plus a coordinate on the remaining axis, in axis order.
func (s *Space) pointWith(group Point, axis Axis, x float64) Point {
	pt := make(Point, 0, len(s.Axes))
	g := 0
	for _, a := range s.Axes {
		if a.Name == axis.Name {
			pt = append(pt, axis.at(x))
			continue
		}
		pt = append(pt, group[g])
		g++
	}
	return pt
}

// splitmix64 is the standard splitmix64 finalizer — the same mixer the
// rng package builds its streams from, reimplemented here so the seed
// derivation is self-contained and frozen (changing it would silently
// re-seed every journaled sweep).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over a string, for folding axis names and labels into
// the seed chain.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
