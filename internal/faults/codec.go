package faults

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/schedcodec"
)

// Schedules use the text and JSON forms of internal/schedcodec, with
// per-kind params:
//
//	down@100-200:e=3+4          edges 3 and 4 down for [100,200)
//	partition@100-200:e=0+5     same, reads as a cut split
//	burst@0-500:pg=0.01,pb=0.6,gb=0.05,bg=0.2[,e=1+2]
//	ramp@0-400:p0=0,p1=0.5[,e=*]
//	crash@250-300:v=7,drop      node 7 down, queue destroyed at onset
//	lie@50-150:mode=zero[,v=0+2]
//
// 'e=*' / 'v=*' (or omitting the list) target every edge / node.

// FormatText renders s in the canonical text form: events sorted by
// (From, To, Kind), floats in shortest-exact notation, only the fields
// the event's kind uses. Parse(FormatText(s)) reproduces s up to
// event order and normalization.
func FormatText(s Schedule) string {
	var b strings.Builder
	for i, ev := range s.sortedCopy() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s@%d-%d", ev.Kind, ev.From, ev.To)
		var ps []string
		addF := func(k string, v float64) { ps = append(ps, k+"="+strconv.FormatFloat(v, 'g', -1, 64)) }
		switch ev.Kind {
		case LinkDown, Partition:
			if ev.Edges != nil {
				ps = append(ps, "e="+joinIDs(ev.Edges))
			}
		case Burst:
			addF("pg", ev.PGood)
			addF("pb", ev.PBad)
			addF("gb", ev.GtoB)
			addF("bg", ev.BtoG)
			if ev.Edges != nil {
				ps = append(ps, "e="+joinIDs(ev.Edges))
			}
		case Ramp:
			addF("p0", ev.P0)
			addF("p1", ev.P1)
			if ev.Edges != nil {
				ps = append(ps, "e="+joinIDs(ev.Edges))
			}
		case Crash:
			ps = append(ps, "v="+joinIDs(ev.Nodes))
			if ev.Drop {
				ps = append(ps, "drop")
			}
		case Lie:
			ps = append(ps, "mode="+ev.Mode)
			if ev.Nodes != nil {
				ps = append(ps, "v="+joinIDs(ev.Nodes))
			}
		}
		if len(ps) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(ps, ","))
		}
	}
	return b.String()
}

// FormatJSON renders s as indented JSON ({"events":[...]}).
func FormatJSON(s Schedule) string {
	s.Events = s.sortedCopy()
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // Schedule holds only marshalable fields
		panic(err)
	}
	return string(out)
}

// codec is the shared schedule grammar with faults' error prefix and
// its one bare flag.
var codec = schedcodec.Codec{Prefix: "faults", Flags: []string{"drop"}}

// Parse decodes a schedule in either form (see schedcodec.Decode). The
// result is validated and normalized (fields a kind does not use are
// zeroed, so parse→format→parse is the identity).
func Parse(input string) (Schedule, error) {
	var s Schedule
	if err := schedcodec.Decode(codec, input, &s, &s.Events, parseEvent); err != nil {
		return Schedule{}, err
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	for i := range s.Events {
		s.Events[i] = normalizeEvent(s.Events[i])
	}
	return s, nil
}

// Load is Parse plus '@path' indirection: an argument of the form
// "@schedule.json" reads the schedule from that file.
func Load(arg string) (Schedule, error) { return schedcodec.Load(codec, arg, Parse) }

func parseEvent(e schedcodec.Event) (Event, error) {
	ev := Event{Kind: Kind(e.Kind), From: e.From, To: e.To}
	err := e.Params(func(p schedcodec.Param) error {
		if p.Flag { // "drop", the only flag
			ev.Drop = true
			return nil
		}
		switch p.Key {
		case "e":
			es, err := parseIDs[graph.EdgeID](p.Val, "edge")
			if err != nil {
				return e.Errorf("%w", err)
			}
			ev.Edges = es
		case "v":
			vs, err := parseIDs[graph.NodeID](p.Val, "node")
			if err != nil {
				return e.Errorf("%w", err)
			}
			ev.Nodes = vs
		case "mode":
			ev.Mode = p.Val
		case "pg", "pb", "gb", "bg", "p0", "p1":
			f, err := strconv.ParseFloat(p.Val, 64)
			if err != nil {
				return e.Errorf("bad %s=%q", p.Key, p.Val)
			}
			switch p.Key {
			case "pg":
				ev.PGood = f
			case "pb":
				ev.PBad = f
			case "gb":
				ev.GtoB = f
			case "bg":
				ev.BtoG = f
			case "p0":
				ev.P0 = f
			case "p1":
				ev.P1 = f
			}
		default:
			return e.Errorf("unknown param %q", p.Key)
		}
		return nil
	})
	return ev, err
}

// parseIDs decodes a '+'-joined id list; "*" decodes to nil (all).
func parseIDs[T ~int32](val, what string) ([]T, error) {
	if val == "*" {
		return nil, nil
	}
	var out []T
	for _, x := range strings.Split(val, "+") {
		id, err := strconv.ParseInt(x, 10, 32)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad %s id %q", what, x)
		}
		out = append(out, T(id))
	}
	return out, nil
}

// normalizeEvent zeroes every field the event's kind does not use, so
// schedules arriving via permissive JSON format identically to their
// text-parsed equivalents.
func normalizeEvent(ev Event) Event {
	n := Event{Kind: ev.Kind, From: ev.From, To: ev.To}
	switch ev.Kind {
	case LinkDown, Partition:
		n.Edges = ev.Edges
	case Burst:
		n.Edges = ev.Edges
		n.PGood, n.PBad, n.GtoB, n.BtoG = ev.PGood, ev.PBad, ev.GtoB, ev.BtoG
	case Ramp:
		n.Edges = ev.Edges
		n.P0, n.P1 = ev.P0, ev.P1
	case Crash:
		n.Nodes = ev.Nodes
		n.Drop = ev.Drop
	case Lie:
		n.Nodes = ev.Nodes
		n.Mode = ev.Mode
	}
	if len(n.Edges) == 0 {
		n.Edges = nil
	}
	if len(n.Nodes) == 0 {
		n.Nodes = nil
	}
	return n
}

func joinIDs[T ~int32](ids []T) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(int64(id), 10)
	}
	return strings.Join(parts, "+")
}
