package faults

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestFormatTextGolden(t *testing.T) {
	s := Schedule{Events: []Event{
		{Kind: Crash, From: 250, To: 300, Nodes: []graph.NodeID{7}, Drop: true},
		{Kind: Burst, From: 0, To: 500, PGood: 0.01, PBad: 0.6, GtoB: 0.05, BtoG: 0.2},
		{Kind: LinkDown, From: 100, To: 200, Edges: []graph.EdgeID{3, 4}},
		{Kind: Lie, From: 50, To: 150, Mode: ModeZero, Nodes: []graph.NodeID{0, 2}},
		{Kind: Ramp, From: 0, To: 400, P0: 0, P1: 0.5},
	}}
	want := "ramp@0-400:p0=0,p1=0.5" +
		";burst@0-500:pg=0.01,pb=0.6,gb=0.05,bg=0.2" +
		";lie@50-150:mode=zero,v=0+2" +
		";down@100-200:e=3+4" +
		";crash@250-300:v=7,drop"
	if got := FormatText(s); got != want {
		t.Fatalf("FormatText:\n got %q\nwant %q", got, want)
	}
	back, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatText(back); got != want {
		t.Fatalf("parse→format not stable:\n got %q\nwant %q", got, want)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"down",                    // no window
		"down@5",                  // no to
		"down@5-2",                // empty window (Validate)
		"down@a-b",                // non-numeric
		"warp@0-5",                // unknown kind
		"down@0-5:x=1",            // unknown param
		"burst@0-5:pg=nope",       // bad float
		"crash@0-5:v=1,mode",      // bare param that is not drop
		"down@0-5:e=1+z",          // bad edge id
		"crash@0-5",               // crash without nodes (Validate)
		"lie@0-5:mode=convincing", // unknown mode (Validate)
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseWildcardAndSpacing(t *testing.T) {
	s, err := Parse(" ramp@0-40:p0=0.1,p1=0.9,e=* ; ; down@5-9 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(s.Events))
	}
	if s.Events[0].Edges != nil || s.Events[1].Edges != nil {
		t.Fatal("wildcard / omitted edge lists must parse to nil (all edges)")
	}
}

func TestParseJSONForms(t *testing.T) {
	obj := `{"events":[{"kind":"down","from":3,"to":9,"edges":[1]}]}`
	arr := `[{"kind":"down","from":3,"to":9,"edges":[1]}]`
	want := Schedule{Events: []Event{{Kind: LinkDown, From: 3, To: 9, Edges: []graph.EdgeID{1}}}}
	for _, in := range []string{obj, arr} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
	if _, err := Parse(`{"events":[{"kind":"crash","from":0,"to":5}]}`); err == nil {
		t.Fatal("JSON parse skipped validation")
	}
}

func TestJSONNormalizesForeignFields(t *testing.T) {
	// A down event carrying burst parameters must shed them, so JSON and
	// text inputs describing the same faults compare equal.
	s, err := Parse(`[{"kind":"down","from":0,"to":5,"p_bad":0.9}]`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].PBad != 0 {
		t.Fatal("normalization kept a field LinkDown does not use")
	}
}

func TestFormatJSONRoundTrip(t *testing.T) {
	s := Schedule{Events: []Event{
		{Kind: Burst, From: 5, To: 50, PGood: 0.125, PBad: 0.75, GtoB: 0.0625, BtoG: 0.5, Edges: []graph.EdgeID{2}},
	}}
	back, err := Parse(FormatJSON(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("JSON round-trip: got %+v, want %+v", back, s)
	}
}

func TestLoadFileIndirection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.txt")
	if err := os.WriteFile(path, []byte("down@2-8:e=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != LinkDown {
		t.Fatalf("loaded %+v", s.Events)
	}
	if _, err := Load("@" + path + ".missing"); err == nil {
		t.Fatal("Load of a missing file must error")
	}
	inline, err := Load("down@2-8:e=0")
	if err != nil || !reflect.DeepEqual(inline, s) {
		t.Fatalf("inline Load mismatch: %+v vs %+v (err %v)", inline, s, err)
	}
}

// FuzzScheduleRoundTrip feeds arbitrary strings through the decoder and
// requires that anything it accepts survives format→parse→format without
// change: the canonical text form is a fixed point, and the reparsed
// schedule is structurally identical.
func FuzzScheduleRoundTrip(f *testing.F) {
	f.Add("down@100-200:e=3+4")
	f.Add("burst@0-500:pg=0.01,pb=0.6,gb=0.05,bg=0.2;crash@250-300:v=7,drop")
	f.Add("ramp@0-400:p0=0,p1=0.5,e=*;lie@50-150:mode=random,v=0+2")
	f.Add(`{"events":[{"kind":"down","from":3,"to":9,"edges":[1]}]}`)
	f.Add(`[{"kind":"lie","from":0,"to":5,"mode":"max"}]`)
	f.Add("partition@7-11:e=0+1+2")
	f.Fuzz(func(t *testing.T, input string) {
		s1, err := Parse(input)
		if err != nil {
			return // rejected inputs are fine; we fuzz the accepted set
		}
		text := FormatText(s1)
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted schedule does not reparse: %q: %v", text, err)
		}
		if got := FormatText(s2); got != text {
			t.Fatalf("format not a fixed point:\n first %q\nsecond %q", text, got)
		}
		if !reflect.DeepEqual(Schedule{Events: s1.sortedCopy()}, Schedule{Events: s2.sortedCopy()}) {
			t.Fatalf("round-trip changed the schedule:\n in  %+v\n out %+v", s1, s2)
		}
		s3, err := Parse(FormatJSON(s1))
		if err != nil {
			t.Fatalf("JSON form does not reparse: %v", err)
		}
		if !reflect.DeepEqual(Schedule{Events: s1.sortedCopy()}, Schedule{Events: s3.sortedCopy()}) {
			t.Fatal("JSON round-trip changed the schedule")
		}
	})
}
