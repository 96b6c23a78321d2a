package schedcodec_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/faults"
)

// grammar is one user of the shared grammar: load decodes an argument
// (Load, so '@path' resolves) and renders the result in both forms.
type grammar struct {
	prefix string
	load   func(arg string) (text, json string, err error)
	// valid is a well-formed text schedule in the user's own kinds.
	valid string
}

var grammars = []grammar{
	{"faults", func(arg string) (string, string, error) {
		s, err := faults.Load(arg)
		return faults.FormatText(s), faults.FormatJSON(s), err
	}, "down@3-9:e=1+2;crash@10-12:v=0,drop"},
	{"chaos", func(arg string) (string, string, error) {
		s, err := chaos.Load(arg)
		return chaos.FormatText(s), chaos.FormatJSON(s), err
	}, "reset@0-8:p=0.5;cut@0-4:r=rank1>primary"},
}

// TestMalformedInputsKeepTheirPrefix feeds the same malformed inputs to
// both users: the grammar rejects them the same way, each error under
// its own package prefix.
func TestMalformedInputsKeepTheirPrefix(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name, in, want string // want follows "<prefix>: "
	}{
		{"no @", "down", `event "down": want kind@from-to`},
		{"no -", "down@5", `event "down@5": want kind@from-to`},
		{"negative window", "down@-1-5", `event "down@-1-5": bad window "-1-5"`},
		{"non-numeric window", "down@a-b", `event "down@a-b": bad window "a-b"`},
		{"param without =", "down@0-5:zz", `event "down@0-5:zz": bad param "zz"`},
		{"unknown param", "down@0-5:zz=1", `event "down@0-5:zz=1": unknown param "zz"`},
		{"second event", "down@0-5:zz=1;x", `event "down@0-5:zz=1": unknown param "zz"`},
		{"bad JSON", `{"events":5}`, "bad JSON schedule: "},
		{"missing file", "@" + missing, "open " + missing + ": "},
	}
	for _, g := range grammars {
		for _, c := range cases {
			_, _, err := g.load(c.in)
			if err == nil {
				t.Errorf("%s %s: %q accepted", g.prefix, c.name, c.in)
				continue
			}
			if want := g.prefix + ": " + c.want; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s %s: error %q, want prefix %q", g.prefix, c.name, err, want)
			}
		}
		if _, _, err := g.load("@" + missing); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: missing file error %v does not wrap fs.ErrNotExist", g.prefix, err)
		}
	}
}

// TestFormsAndPathResolve: the text form, both JSON forms (detected
// from a leading '{' or '['), and each of them behind '@path' decode to
// the same schedule.
func TestFormsAndPathResolve(t *testing.T) {
	dir := t.TempDir()
	for _, g := range grammars {
		text, obj, err := g.load(g.valid)
		if err != nil {
			t.Fatalf("%s: %v", g.prefix, err)
		}
		arr := obj[strings.Index(obj, "[") : strings.LastIndex(obj, "]")+1]
		for i, in := range []string{g.valid, obj, arr, "  \n" + obj} {
			path := filepath.Join(dir, g.prefix+string(rune('a'+i)))
			if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, arg := range []string{in, "@" + path} {
				got, _, err := g.load(arg)
				if err != nil {
					t.Fatalf("%s: load %q: %v", g.prefix, arg, err)
				}
				if got != text {
					t.Errorf("%s: load %q = %q, want %q", g.prefix, arg, got, text)
				}
			}
		}
		if got, _, err := g.load("  ;  "); err != nil || got != "" {
			t.Errorf("%s: empty text schedule = %q, %v", g.prefix, got, err)
		}
	}
}
