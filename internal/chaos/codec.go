package chaos

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/schedcodec"
)

// Schedules use the text and JSON forms of internal/schedcodec, shared
// with internal/faults, with per-kind params:
//
//	latency@0-64:ms=5,jitter=10[,r=*>worker1]   delay + jitter window
//	reset@0-8:p=0.5                             probabilistic resets
//	drop@3-6:r=client>coordinator               blackhole a route
//	err@0-4:code=503[,p=1]                      synthesized 5xx burst
//	stall@4-8:ms=200                            slow-loris first byte
//	cut@0-10:r=rank1>primary                    asymmetric partition
//
// Windows count per-route request slots, not time. 'r=src>dst' scopes
// an event to one route ('*' wildcards either side; omitting r means
// every route).

// FormatText renders s in the canonical text form: events sorted by
// (From, To, Kind, Src, Dst), floats in shortest-exact notation, only
// the fields the event's kind uses. Parse(FormatText(s)) reproduces s
// up to event order and normalization.
func FormatText(s Schedule) string {
	var b strings.Builder
	for i, ev := range s.sortedCopy() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s@%d-%d", ev.Kind, ev.From, ev.To)
		var ps []string
		switch ev.Kind {
		case Latency:
			ps = append(ps, "ms="+strconv.FormatInt(ev.MS, 10))
			if ev.Jitter > 0 {
				ps = append(ps, "jitter="+strconv.FormatInt(ev.Jitter, 10))
			}
		case Stall:
			ps = append(ps, "ms="+strconv.FormatInt(ev.MS, 10))
		case Err:
			ps = append(ps, "code="+strconv.Itoa(ev.Code))
		}
		if ev.P > 0 && ev.P < 1 {
			ps = append(ps, "p="+strconv.FormatFloat(ev.P, 'g', -1, 64))
		}
		if ev.Src != "*" || ev.Dst != "*" {
			ps = append(ps, "r="+ev.Src+">"+ev.Dst)
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

// codec is the shared schedule grammar with chaos' error prefix; chaos
// params take no bare flags.
var codec = schedcodec.Codec{Prefix: "chaos"}

// Parse decodes a schedule in either form (see schedcodec.Decode). The
// result is normalized (fields a kind does not use are zeroed,
// wildcards and defaults made explicit, so parse→format→parse is the
// identity), then validated.
func Parse(input string) (Schedule, error) {
	var s Schedule
	if err := schedcodec.Decode(codec, input, &s, &s.Events, parseEvent); err != nil {
		return Schedule{}, err
	}
	for i := range s.Events {
		s.Events[i] = normalizeEvent(s.Events[i])
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Load is Parse plus '@path' indirection: an argument of the form
// "@schedule.json" reads the schedule from that file.
func Load(arg string) (Schedule, error) { return schedcodec.Load(codec, arg, Parse) }

func parseEvent(e schedcodec.Event) (Event, error) {
	ev := Event{Kind: Kind(e.Kind), From: e.From, To: e.To}
	err := e.Params(func(p schedcodec.Param) error {
		switch p.Key {
		case "r":
			src, dst, ok := strings.Cut(p.Val, ">")
			if !ok || src == "" || dst == "" {
				return e.Errorf("route %q: want src>dst", p.Val)
			}
			ev.Src, ev.Dst = src, dst
		case "p":
			f, err := strconv.ParseFloat(p.Val, 64)
			if err != nil {
				return e.Errorf("bad p=%q", p.Val)
			}
			ev.P = f
		case "ms", "jitter":
			n, err := strconv.ParseInt(p.Val, 10, 64)
			if err != nil {
				return e.Errorf("bad %s=%q", p.Key, p.Val)
			}
			if p.Key == "ms" {
				ev.MS = n
			} else {
				ev.Jitter = n
			}
		case "code":
			n, err := strconv.Atoi(p.Val)
			if err != nil {
				return e.Errorf("bad code=%q", p.Val)
			}
			ev.Code = n
		default:
			return e.Errorf("unknown param %q", p.Key)
		}
		return nil
	})
	return ev, err
}

// normalizeEvent zeroes every field the event's kind does not use and
// makes defaults explicit (P=1, Err code 503, '*' route wildcards), so
// schedules arriving via permissive JSON format identically to their
// text-parsed equivalents.
func normalizeEvent(ev Event) Event {
	n := Event{Kind: ev.Kind, From: ev.From, To: ev.To, Src: ev.Src, Dst: ev.Dst, P: ev.P}
	if n.Src == "" {
		n.Src = "*"
	}
	if n.Dst == "" {
		n.Dst = "*"
	}
	if n.P == 0 {
		n.P = 1
	}
	switch ev.Kind {
	case Latency:
		n.MS, n.Jitter = ev.MS, ev.Jitter
	case Stall:
		n.MS = ev.MS
	case Err:
		n.Code = ev.Code
		if n.Code == 0 {
			n.Code = 503
		}
	}
	return n
}
