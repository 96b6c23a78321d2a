package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// axisTestSpace is a two-axis space (categorical network × numeric load)
// exercising the Desc mapping and enumeration order.
func axisTestSpace(replicas int) *Space {
	spec := core.NewSpec(graph.Line(4)).SetSource(0, 1).SetSink(3, 1)
	return &Space{
		Name:     "axes",
		BaseSeed: 7,
		Replicas: replicas,
		Horizon:  50,
		Axes: []Axis{
			{Name: "network", Labels: []string{"line(4)", "line(6)"}},
			{Name: "load", Unit: "×f*", Points: []float64{0.5, 0.9}, Labels: []string{"0.50", "0.90"}},
		},
		Build: func(Probe) *core.Engine {
			return core.NewEngine(spec, core.NewLGG())
		},
	}
}

func TestSpaceEnumerationOrder(t *testing.T) {
	s := axisTestSpace(2)
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2 {
		t.Fatalf("space enumerated %d jobs, want 8", len(jobs))
	}
	// First axis outermost, replicas innermost; the Desc mapping sends
	// the network axis to Desc.Network and the load axis to Desc.Variant
	// as "load=<label>".
	want := []struct {
		network, variant string
		replica          int
	}{
		{"line(4)", "load=0.50", 0}, {"line(4)", "load=0.50", 1},
		{"line(4)", "load=0.90", 0}, {"line(4)", "load=0.90", 1},
		{"line(6)", "load=0.50", 0}, {"line(6)", "load=0.50", 1},
		{"line(6)", "load=0.90", 0}, {"line(6)", "load=0.90", 1},
	}
	for i, j := range jobs {
		d := j.Desc
		if d.Index != i || d.Grid != "axes" || d.Horizon != 50 {
			t.Fatalf("job %d descriptor incomplete: %+v", i, d)
		}
		if d.Network != want[i].network || d.Variant != want[i].variant || d.Replica != want[i].replica {
			t.Fatalf("job %d = (%q, %q, %d), want %+v", i, d.Network, d.Variant, d.Replica, want[i])
		}
		// The numeric axis reports its coordinate by name.
		if len(d.Coords) != 1 || d.Coords[0].Axis != "load" {
			t.Fatalf("job %d coords = %+v, want one load coordinate", i, d.Coords)
		}
	}
	if jobs[0].Desc.Coords[0].Value != 0.5 || jobs[2].Desc.Coords[0].Value != 0.9 {
		t.Fatalf("coordinates misaligned: %+v %+v", jobs[0].Desc.Coords, jobs[2].Desc.Coords)
	}
}

func TestSpaceSeedsCoordinateKeyed(t *testing.T) {
	s := axisTestSpace(1)
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i, j := range jobs {
		if prev, dup := seen[j.Desc.Seed]; dup {
			t.Fatalf("jobs %d and %d share seed %d", prev, i, j.Desc.Seed)
		}
		seen[j.Desc.Seed] = i
	}
	// An adaptive probe landing on a declared grid point must draw the
	// same seed as the enumerated job — the label is display-only.
	load, _ := s.Axis("load")
	pt := s.pointWith(Point{s.Axes[0].value(0)}, load, 0.5)
	if got := s.seedFor(pt, 0); got != jobs[0].Desc.Seed {
		t.Fatalf("probe at 0.5 seeds %d, enumerated point seeds %d", got, jobs[0].Desc.Seed)
	}
	// And a label-free copy of the axis derives identical seeds: only the
	// coordinate value enters the hash.
	unlabelled := *s
	unlabelled.Axes = append([]Axis(nil), s.Axes...)
	unlabelled.Axes[1].Labels = nil
	jobs2, err := unlabelled.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Desc.Seed != jobs2[i].Desc.Seed {
			t.Fatalf("job %d: labelled seed %d != unlabelled seed %d", i, jobs[i].Desc.Seed, jobs2[i].Desc.Seed)
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	base := func() *Space { return axisTestSpace(1) }
	cases := []struct {
		name   string
		mutate func(*Space)
		want   string
	}{
		{"no build", func(s *Space) { s.Build = nil }, "no Build"},
		{"no axes", func(s *Space) { s.Axes = nil }, "no axes"},
		{"duplicate axis", func(s *Space) { s.Axes[1].Name = "network" }, "twice"},
		{"unnamed axis", func(s *Space) { s.Axes[0].Name = "" }, "without a name"},
		{"non-increasing points", func(s *Space) {
			s.Axes[1].Points = []float64{0.9, 0.5}
		}, "not strictly increasing"},
		{"label mismatch", func(s *Space) {
			s.Axes[1].Labels = []string{"only-one"}
		}, "1 labels"},
		{"empty axis", func(s *Space) {
			s.Axes[1] = Axis{Name: "load"}
		}, "no points"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		_, err := s.Jobs()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Jobs() error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// A continuous axis is valid but not enumerable.
	s := base()
	s.Axes[1] = Axis{Name: "load", Min: 0, Max: 1}
	if err := s.Validate(); err != nil {
		t.Fatalf("continuous axis should validate: %v", err)
	}
	if _, err := s.Jobs(); err == nil || !strings.Contains(err.Error(), "continuous") {
		t.Fatalf("Jobs() on a continuous axis: %v, want continuous error", err)
	}
}

func TestAxisBounds(t *testing.T) {
	if lo, hi, ok := (Axis{Name: "p", Points: []float64{0.25, 0.5, 2}}).Bounds(); !ok || lo != 0.25 || hi != 2 {
		t.Fatalf("points bounds = %g..%g (%v)", lo, hi, ok)
	}
	if lo, hi, ok := (Axis{Name: "c", Min: -1, Max: 3}).Bounds(); !ok || lo != -1 || hi != 3 {
		t.Fatalf("continuous bounds = %g..%g (%v)", lo, hi, ok)
	}
	if _, _, ok := (Axis{Name: "cat", Labels: []string{"a", "b"}}).Bounds(); ok {
		t.Fatal("categorical axis reported bounds")
	}
}

func TestSpaceGroupsAndPointWith(t *testing.T) {
	s := axisTestSpace(1)
	groups, err := s.groups("load")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (one per network)", len(groups))
	}
	if groups[0][0].Label != "line(4)" || groups[1][0].Label != "line(6)" {
		t.Fatalf("group order: %+v", groups)
	}
	load, _ := s.Axis("load")
	pt := s.pointWith(groups[1], load, 0.7)
	if len(pt) != 2 || pt[0].Label != "line(6)" || pt[1].Axis != "load" || pt[1].Value != 0.7 || pt[1].Label != "" {
		t.Fatalf("pointWith = %+v", pt)
	}
	// Landing exactly on a declared point picks up its label.
	if v := s.pointWith(groups[0], load, 0.9)[1]; v.Label != "0.90" {
		t.Fatalf("probe at declared point lost its label: %+v", v)
	}
	// A second continuous axis that is not the search axis is an error.
	s.Axes = append(s.Axes, Axis{Name: "noise", Min: 0, Max: 1})
	if _, err := s.groups("load"); err == nil || !strings.Contains(err.Error(), "continuous") {
		t.Fatalf("groups with stray continuous axis: %v", err)
	}
}

// TestLegacyGridDescUnchanged pins the historical descriptors of a
// categorical space with a constant SeedFn (Seed == BaseSeed, bare
// variant labels, no Coords), so journaled sweeps of such grids resume.
func TestLegacyGridDescUnchanged(t *testing.T) {
	jobs := testJobs(2, 100)
	for i, j := range jobs {
		d := j.Desc
		if d.Seed != 1 {
			t.Fatalf("job %d: legacy seed %d, want BaseSeed 1", i, d.Seed)
		}
		if d.Coords != nil {
			t.Fatalf("job %d: legacy grid grew coords %+v", i, d.Coords)
		}
	}
	if jobs[0].Desc.Network != "line(5)" || jobs[0].Desc.Router != "lgg" || jobs[0].Desc.Variant != "exact" {
		t.Fatalf("legacy descriptor changed: %+v", jobs[0].Desc)
	}
}
