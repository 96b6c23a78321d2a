// Package chaos is the serving-plane counterpart of internal/faults: a
// Schedule of typed network-fault events — latency spikes, connection
// resets, blackholed requests, 5xx bursts, slow-loris response stalls
// and asymmetric partitions between named endpoints — compiled into an
// http.RoundTripper wrapper that injects the faults into real client ↔
// coordinator ↔ worker traffic.
//
// The paper proves stability of the *simulated* network under
// adversarial injection; this package turns the same argument on the
// distributed system that runs the simulations. Determinism mirrors
// internal/faults: every injection decision is a pure function of
// (schedule, seed, route, slot), where a route is the ordered pair of
// endpoint names "src>dst" and the slot is the request's sequence
// number on that route. No wall-clock time and no global ordering feeds
// a decision, so the injected-event transcript replays byte-identically
// from a seed: concurrent traffic on other routes can never perturb a
// route's stream, and any workload whose per-route request order is
// deterministic (sequential pollers, keyed retries) produces identical
// transcripts at any -race/parallelism setting.
//
// Windows are half-open [From, To) over route slots, not time: "the
// 3rd through 7th request on this route", which is what makes replay
// exact. Schedules share one grammar with internal/faults
// (internal/schedcodec) — a compact text form for flags and a JSON form
// for files (see codec.go).
package chaos

import (
	"fmt"
	"sort"
	"strings"
)

// Kind names a serving-plane fault type. The string values are the
// codec's wire format.
type Kind string

const (
	// Latency delays matching requests by MS milliseconds plus a
	// seed-deterministic jitter in [0, Jitter) ms before forwarding.
	Latency Kind = "latency"
	// Reset fails matching requests immediately with a connection-reset
	// error; the request never reaches the destination.
	Reset Kind = "reset"
	// Drop blackholes matching requests: they are held without an
	// answer until the caller's context expires (or the injector's hold
	// cap), like a silently dropped packet.
	Drop Kind = "drop"
	// Err short-circuits matching requests with a synthesized HTTP
	// response carrying Code (default 503); the destination is never
	// contacted.
	Err Kind = "err"
	// Stall forwards the request but delays the response body by MS
	// milliseconds before the first byte — a slow-loris read.
	Stall Kind = "stall"
	// Cut is an asymmetric partition: matching requests fail fast with
	// an unreachable error for the whole window. Direction matters —
	// cutting "a>b" leaves "b>a" intact; cut both to partition fully.
	Cut Kind = "cut"
)

// Event is one typed fault with a half-open window [From, To) over the
// per-route request slot. Src and Dst name the endpoints the event
// applies to; "*" (or empty) matches any endpoint. Fields beyond the
// window apply only to the kinds that document them.
type Event struct {
	Kind Kind   `json:"kind"`
	From int64  `json:"from"`
	To   int64  `json:"to"`
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
	// P is the per-request trigger probability in (0, 1]; 0 is
	// normalized to 1 (always fire).
	P float64 `json:"p,omitempty"`
	// MS is the delay for Latency and Stall, in milliseconds.
	MS int64 `json:"ms,omitempty"`
	// Jitter widens Latency by a uniform [0, Jitter) ms draw.
	Jitter int64 `json:"jitter,omitempty"`
	// Code is the synthesized status for Err (default 503).
	Code int `json:"code,omitempty"`
}

// Active reports whether the event's window contains slot n.
func (ev Event) Active(n int64) bool { return n >= ev.From && n < ev.To }

// Matches reports whether the event applies to route src>dst.
func (ev Event) Matches(src, dst string) bool {
	return patternMatch(ev.Src, src) && patternMatch(ev.Dst, dst)
}

func patternMatch(pat, name string) bool {
	return pat == "" || pat == "*" || pat == name
}

// Schedule is an ordered list of chaos events. The zero value injects
// nothing.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// Validate checks windows, kinds and per-kind parameters.
func (s Schedule) Validate() error {
	for i, ev := range s.Events {
		if ev.From < 0 || ev.To < ev.From {
			return fmt.Errorf("chaos: event %d (%s): bad window [%d,%d)", i, ev.Kind, ev.From, ev.To)
		}
		if ev.P < 0 || ev.P > 1 {
			return fmt.Errorf("chaos: event %d (%s): p=%v outside [0,1]", i, ev.Kind, ev.P)
		}
		switch ev.Kind {
		case Latency:
			if ev.MS <= 0 && ev.Jitter <= 0 {
				return fmt.Errorf("chaos: event %d: latency needs ms or jitter", i)
			}
			if ev.MS < 0 || ev.Jitter < 0 {
				return fmt.Errorf("chaos: event %d: negative latency", i)
			}
		case Stall:
			if ev.MS <= 0 {
				return fmt.Errorf("chaos: event %d: stall needs ms>0", i)
			}
		case Err:
			if ev.Code != 0 && (ev.Code < 100 || ev.Code > 599) {
				return fmt.Errorf("chaos: event %d: bad status code %d", i, ev.Code)
			}
		case Reset, Drop, Cut:
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// sortedCopy returns the events in canonical order: (From, To, Kind,
// Src, Dst). Decision streams walk events in this order, so two
// schedules with the same event set behave identically however they
// were written.
func (s Schedule) sortedCopy() []Event {
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// Route renders the canonical route name for a src/dst endpoint pair.
func Route(src, dst string) string { return src + ">" + dst }

// Shipped returns the named schedules the invariant suite and the CI
// chaos-smoke job run. Every schedule here must keep all four
// invariants (byte-identity, exactly-once effects, no job loss, bounded
// retry amplification) green — see invariants.go and the federation
// chaos tests.
func Shipped() map[string]Schedule {
	text := map[string]string{
		// A browned-out coordinator front: the first submissions on
		// every route answer 503, the next few responses stall, and a
		// small latency+jitter floor runs throughout.
		"burst-5xx-stall": "err@0-2:code=503;stall@2-5:ms=40;latency@0-64:ms=1,jitter=3",
		// Flaky transport: a probabilistic mix of resets and latency
		// spikes across every route.
		"reset-storm": "reset@0-24:p=0.4;latency@0-64:ms=2,jitter=8",
		// Isolate each standby rank from the primary in turn: rank 1
		// loses its first heartbeat polls, rank 2 the next window. The
		// partitions heal; no spurious promotion may result.
		"partition-each-rank": "cut@0-4:r=rank1>primary;cut@4-8:r=rank2>primary",
	}
	out := make(map[string]Schedule, len(text))
	for name, t := range text {
		s, err := Parse(t)
		if err != nil {
			panic("chaos: bad shipped schedule " + name + ": " + err.Error())
		}
		out[name] = s
	}
	return out
}

// routeSplit is the inverse of Route; returns ok=false when the name
// has no direction marker.
func routeSplit(route string) (src, dst string, ok bool) {
	src, dst, ok = strings.Cut(route, ">")
	return
}
