// Package schedcodec is the schedule grammar shared by internal/faults
// (the paper-side fault schedules) and internal/chaos (the serving-plane
// adversary). A schedule is either JSON — {"events":[...]} or a bare
// event array, detected from a leading '{' or '[' — or a compact text
// form for CLI flags, events joined by ';':
//
//	kind@from-to[:param,param,...]
//
// where each param is "key=value" or a bare flag. The package owns the
// framing only: '@path' resolution, form detection, event splitting,
// the head and its window, and param splitting. Each caller keeps its
// own event type, its meaning for every param, its normalisation and
// its validation, and every error starts with the caller's prefix.
package schedcodec

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Codec names the package a grammar serves.
type Codec struct {
	// Prefix starts every error message ("faults", "chaos").
	Prefix string
	// Flags lists the bare params the caller accepts; any other param
	// without '=' is an error.
	Flags []string
}

// Event is one text-form event: its "kind@from-to" head, with the
// params left for the caller to walk with Params.
type Event struct {
	Kind     string
	From, To int64

	c      Codec
	seg    string // the whole trimmed segment, quoted by Errorf
	params string // everything after the first ':'
}

// Param is one param of an event: Key=Val, or the bare flag Key (one of
// the Codec's Flags) when Flag is set.
type Param struct {
	Key, Val string
	Flag     bool
}

// Errorf reports a problem with the event, as
// "<prefix>: event <segment>: <message>".
func (e Event) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: event %q: "+format, append([]any{e.c.Prefix, e.seg}, args...)...)
}

// Params hands the event's non-empty ','-separated params to fn in
// input order, stopping at the first error. A bare param that is not
// one of the Codec's Flags is an error when the walk reaches it.
func (e Event) Params(fn func(Param) error) error {
	for _, p := range strings.Split(e.params, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		key, val, ok := strings.Cut(p, "=")
		if !ok && !slices.Contains(e.c.Flags, p) {
			return e.Errorf("bad param %q", p)
		}
		if err := fn(Param{Key: key, Val: val, Flag: !ok}); err != nil {
			return err
		}
	}
	return nil
}

// Load decodes arg with parse, first replacing an argument of the form
// "@path" with the contents of the file at path.
func Load[S any](c Codec, arg string, parse func(string) (S, error)) (S, error) {
	path, ok := strings.CutPrefix(arg, "@")
	if !ok {
		return parse(arg)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		var zero S
		return zero, fmt.Errorf("%s: %w", c.Prefix, err)
	}
	return parse(string(data))
}

// Decode decodes input in either form; empty input decodes to nothing.
// JSON input is unmarshalled into doc, the caller's schedule holding
// events ({"events":[...]}), or straight into events (bare array). Text
// input is split into its non-empty ';'-separated events, each handed
// to event in input order and the result appended to events.
func Decode[E any](c Codec, input string, doc any, events *[]E, event func(Event) (E, error)) error {
	input = strings.TrimSpace(input)
	if input == "" {
		return nil
	}
	if input[0] == '{' || input[0] == '[' {
		if input[0] == '[' {
			doc = events
		}
		if err := json.Unmarshal([]byte(input), doc); err != nil {
			return fmt.Errorf("%s: bad JSON schedule: %w", c.Prefix, err)
		}
		return nil
	}
	for _, seg := range strings.Split(input, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		ev, err := c.split(seg)
		if err != nil {
			return err
		}
		e, err := event(ev)
		if err != nil {
			return err
		}
		*events = append(*events, e)
	}
	return nil
}

// split parses one segment's "kind@from-to" head.
func (c Codec) split(seg string) (Event, error) {
	ev := Event{c: c, seg: seg}
	head, params, _ := strings.Cut(seg, ":")
	kind, win, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, ev.Errorf("want kind@from-to")
	}
	fromS, toS, ok := strings.Cut(win, "-")
	if !ok {
		return Event{}, ev.Errorf("want kind@from-to")
	}
	from, err1 := strconv.ParseInt(fromS, 10, 64)
	to, err2 := strconv.ParseInt(toS, 10, 64)
	if err1 != nil || err2 != nil || from < 0 || to < 0 {
		return Event{}, ev.Errorf("bad window %q", win)
	}
	ev.Kind, ev.From, ev.To, ev.params = strings.TrimSpace(kind), from, to, params
	return ev, nil
}
