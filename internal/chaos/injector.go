package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Entry is one injected fault in the transcript: what fired, on which
// route, at which slot. Transcripts are the determinism witness — the
// same schedule and seed must reproduce them byte-identically.
type Entry struct {
	Route string
	Slot  int64
	Kind  Kind
	// Detail is the kind-specific payload in canonical form, e.g.
	// "ms=7" or "code=503".
	Detail string
}

func (e Entry) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s %d %s", e.Route, e.Slot, e.Kind)
	}
	return fmt.Sprintf("%s %d %s %s", e.Route, e.Slot, e.Kind, e.Detail)
}

// action is a compiled injection decision for one request.
type action struct {
	kind  Kind // "" = pass through untouched
	delay time.Duration
	code  int
}

// Injector compiles a Schedule + seed into per-request injection
// decisions and records the transcript. One Injector is shared by every
// Transport of a process so route slot counters are global to the
// process, like a single unreliable network.
//
// Determinism contract: the decision for (route, slot) is a pure
// function of (schedule, seed, route, slot). Slot allocation within a
// route follows that route's request order; traffic on other routes
// never perturbs it.
type Injector struct {
	events []Event // canonical order
	seed   uint64

	// Sleep is the delay hook (Latency/Stall/Drop); tests inject a
	// virtual clock. Defaults to a context-aware real sleep.
	Sleep func(context.Context, time.Duration) error
	// Hold caps how long Drop blackholes a request whose context never
	// expires. Default 30s.
	Hold time.Duration

	mu    sync.Mutex
	names map[string]string // host:port -> endpoint name
	slots map[string]int64  // route -> next slot
	tally map[string]int64  // "route METHOD /seg1/seg2" -> requests
	log   []Entry
}

// NewInjector compiles the schedule. The seed plays the same role as a
// sweep seed: one seed, one reproducible adversary.
func NewInjector(s Schedule, seed uint64) (*Injector, error) {
	norm := Schedule{Events: s.sortedCopy()}
	for i := range norm.Events {
		norm.Events[i] = normalizeEvent(norm.Events[i])
	}
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		events: norm.Events,
		seed:   seed,
		Sleep:  sleepCtx,
		Hold:   30 * time.Second,
		names:  make(map[string]string),
		slots:  make(map[string]int64),
		tally:  make(map[string]int64),
	}, nil
}

// MustInjector is NewInjector for schedules known valid (tests,
// shipped schedules).
func MustInjector(s Schedule, seed uint64) *Injector {
	in, err := NewInjector(s, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// Register names an endpoint: requests addressed to hostport resolve to
// name when matching event routes. Unregistered destinations use their
// host:port as the endpoint name.
func (in *Injector) Register(name, hostport string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.names[hostport] = name
}

// endpoint resolves a host:port to its registered name.
func (in *Injector) endpoint(hostport string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok := in.names[hostport]; ok {
		return n
	}
	return hostport
}

// take allocates the next slot on route and tallies the request under
// its method and path class (first two path segments), then returns the
// compiled decision for that slot.
func (in *Injector) take(route, method, path string) (int64, action) {
	key := route + " " + method + " " + pathClass(path)
	in.mu.Lock()
	slot := in.slots[route]
	in.slots[route] = slot + 1
	in.tally[key]++
	act, ok := in.decide(route, slot)
	if ok {
		in.log = append(in.log, Entry{Route: route, Slot: slot, Kind: act.kind, Detail: detail(act)})
	}
	in.mu.Unlock()
	return slot, act
}

// decide evaluates the schedule for (route, slot). Events are walked in
// canonical order; each probabilistic event consumes one draw from the
// (seed, route, slot)-derived stream, and the first event that fires
// wins. Called with in.mu held.
func (in *Injector) decide(route string, slot int64) (action, bool) {
	src, dst, ok := routeSplit(route)
	if !ok {
		src, dst = route, route
	}
	var stream *rng.Source
	draw := func() float64 {
		if stream == nil {
			h := fnv.New64a()
			io.WriteString(h, route)
			stream = rng.New(in.seed).Split(h.Sum64()).Split(uint64(slot))
		}
		return stream.Float64()
	}
	for _, ev := range in.events {
		if !ev.Active(slot) || !ev.Matches(src, dst) {
			continue
		}
		if ev.P < 1 && draw() >= ev.P {
			continue
		}
		act := action{kind: ev.Kind, code: ev.Code}
		switch ev.Kind {
		case Latency:
			ms := ev.MS
			if ev.Jitter > 0 {
				ms += int64(draw() * float64(ev.Jitter))
			}
			act.delay = time.Duration(ms) * time.Millisecond
		case Stall:
			act.delay = time.Duration(ev.MS) * time.Millisecond
		}
		return act, true
	}
	return action{}, false
}

func detail(act action) string {
	switch act.kind {
	case Latency, Stall:
		return fmt.Sprintf("ms=%d", act.delay.Milliseconds())
	case Err:
		return fmt.Sprintf("code=%d", act.code)
	}
	return ""
}

// pathClass truncates a URL path to its first two segments so tallies
// aggregate over job IDs ("/v1/jobs/abc123" -> "/v1/jobs").
func pathClass(path string) string {
	if path == "" {
		return "/"
	}
	segs := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(segs) > 2 {
		segs = segs[:2]
	}
	return "/" + strings.Join(segs, "/")
}

// Transcript returns the injected events sorted by (route, slot) — the
// canonical byte-stable order, independent of cross-route arrival
// interleaving.
func (in *Injector) Transcript() []Entry {
	in.mu.Lock()
	out := make([]Entry, len(in.log))
	copy(out, in.log)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Route != out[j].Route {
			return out[i].Route < out[j].Route
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// WriteTranscript writes the canonical transcript, one entry per line.
func (in *Injector) WriteTranscript(w io.Writer) error {
	for _, e := range in.Transcript() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// Requests returns the total number of requests that passed through the
// injector (injected or not).
func (in *Injector) Requests() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, c := range in.tally {
		n += c
	}
	return n
}

// RequestsMatching sums request counts over tally keys containing
// substr; keys have the form "src>dst METHOD /seg1/seg2". Used by the
// retry-amplification invariant to count, e.g., "POST /v1/jobs"
// attempts.
func (in *Injector) RequestsMatching(substr string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for k, c := range in.tally {
		if strings.Contains(k, substr) {
			n += c
		}
	}
	return n
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
