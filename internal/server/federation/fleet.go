package federation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// The fleet table: one record per worker under one lock, holding all the
// coordinator knows about it — its client, liveness age, scheduling
// health and live load. A record exists exactly while its worker is a
// member: a join or a mirrored view adds it, and sweeping a dead member
// deletes all of it at once, so a late outcome on a swept URL finds
// nothing to update.
//
// Liveness. Every worker contact (a join heartbeat, a completed range, a
// liveness ping) refreshes lastSeen. Members past SuspectAfter are
// dispatched to only as a last resort, and members past DeadAfter are
// swept so their leases stop being renewed. A standby mirrors the
// primary's view as AGES, not timestamps — reconstructed as now−AgeMS —
// so the two clocks never need to agree, only tick at the same rate.
//
// Health. Each record keeps an EWMA of the observed service rate (runs
// per second across completed ranges) and of the attempt error share.
// Two scheduling decisions ride on it:
//
//   - Adaptive leases. Instead of a fixed -lease, a worker's straggler
//     lease is LeaseFactor times the time the fleet should need for the
//     range: lease = LeaseFactor · runs / max(workerRate, fleetMean).
//     Using the fleet mean as a floor matters — a slow worker scored by
//     its own rate would earn a LONGER lease, exactly backwards; the
//     floor means a worker materially slower than its peers gets stolen
//     from sooner. With no observations yet the configured Lease acts
//     as the cold-start ceiling, so the old fixed behaviour is the
//     degenerate case.
//
//   - Brown-out. When a worker's error share crosses
//     BrownoutErrRate (with at least BrownoutMinEvents observations),
//     the coordinator stops dispatching to it. In-flight ranges drain
//     normally — idempotent re-attach makes their completions free.
//     After BrownoutCooldown one half-open probe range is allowed
//     through; success restores the worker, failure re-browns it.
//
// Time is injectable (Config.Now) for virtual-clock tests.

// Member liveness states served at GET /v1/fleet.
const (
	stateAlive   = "alive"
	stateSuspect = "suspect"
)

// pingTimeout bounds every liveness ping — the one a joining worker must
// answer before admission and the periodic ping of a stale member — and
// an acting primary's polls of its upstream chain.
const pingTimeout = 2 * time.Second

// HealthConfig tunes worker health scoring. Zero values take defaults.
type HealthConfig struct {
	// Alpha is the EWMA smoothing factor in (0,1]; default 0.3.
	Alpha float64
	// BrownoutErrRate is the smoothed error share that browns a worker
	// out; default 0.5.
	BrownoutErrRate float64
	// BrownoutMinEvents is the observation floor before brown-out can
	// trigger (one flaky first attempt must not bench a worker);
	// default 3.
	BrownoutMinEvents int
	// BrownoutCooldown is how long a browned-out worker sits before a
	// half-open probe; default 20s.
	BrownoutCooldown time.Duration
	// LeaseFactor multiplies the expected range duration into a lease;
	// default 3.
	LeaseFactor float64
	// MinLease floors the adaptive lease; default 1s.
	MinLease time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.BrownoutErrRate <= 0 {
		c.BrownoutErrRate = 0.5
	}
	if c.BrownoutMinEvents <= 0 {
		c.BrownoutMinEvents = 3
	}
	if c.BrownoutCooldown <= 0 {
		c.BrownoutCooldown = 20 * time.Second
	}
	if c.LeaseFactor <= 0 {
		c.LeaseFactor = 3
	}
	if c.MinLease <= 0 {
		c.MinLease = time.Second
	}
	return c
}

// worker is one fleet member's record. url and cli never change once the
// record is built, so holders of a *worker may read them without the
// lock; every other field is guarded by fleet.mu.
type worker struct {
	url      string
	cli      *client.Client
	joined   int // join order, the round-robin iteration order
	lastSeen time.Time

	declared  float64 // self-reported capacity (runs/sec), 0 = none
	rate      float64 // EWMA runs/sec, 0 until the first success
	errShare  float64 // EWMA of attempt failures in [0,1]
	events    int     // outcomes observed
	successes int64
	failures  int64

	brownedUntil time.Time // zero = not browned out
	halfOpen     bool      // the half-open probe range is in flight
	pinging      bool      // a liveness ping is in flight
	outstanding  int       // live range attempts
}

// effectiveRate is what dispatch and leases weight the worker by:
// max(declared capacity, observed EWMA). A declaration never replaces
// observation, so an optimistic worker is corrected by its own EWMA,
// while a declared capacity shapes dispatch before the first range
// completes. 0 means the worker has neither declared nor shown anything.
func (w *worker) effectiveRate() float64 { return math.Max(w.declared, w.rate) }

func (w *worker) brownedOut(now time.Time) bool {
	return !w.brownedUntil.IsZero() && now.Before(w.brownedUntil)
}

// claim reports whether w may take a range now. A browned-out worker
// whose cooldown elapsed gets exactly one half-open probe range: the
// first caller claims it, later callers are refused until it resolves.
func (w *worker) claim(now time.Time) bool {
	switch {
	case w.brownedUntil.IsZero():
		return true
	case now.Before(w.brownedUntil), w.halfOpen:
		return false
	}
	w.halfOpen = true
	return true
}

// fleet is the coordinator's worker table. Safe for concurrent use; it
// makes no network call.
type fleet struct {
	cfg          HealthConfig
	suspectAfter time.Duration
	deadAfter    time.Duration
	maxLease     time.Duration // configured Lease: cold-start value and ceiling
	rangeRuns    int           // sizes the lease the export advertises
	ccfg         client.Config
	now          func() time.Time

	mu      sync.Mutex
	members map[string]*worker
	nextOrd int
	rr      int // round-robin cursor for range placement
}

// newFleet builds an empty table from a defaulted coordinator Config.
func newFleet(cfg Config) *fleet {
	return &fleet{
		cfg:          cfg.Health.withDefaults(),
		suspectAfter: cfg.SuspectAfter,
		deadAfter:    cfg.DeadAfter,
		maxLease:     cfg.Lease,
		rangeRuns:    cfg.RangeRuns,
		ccfg:         cfg.Client,
		now:          cfg.Now,
		members:      make(map[string]*worker),
	}
}

// addLocked builds the record, client included, for a new member.
func (f *fleet) addLocked(url string, seen time.Time) (*worker, error) {
	ccfg := f.ccfg
	ccfg.BaseURL = url
	cli, err := client.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("federation: worker %s: %w", url, err)
	}
	w := &worker{url: url, cli: cli, joined: f.nextOrd, lastSeen: seen}
	f.members[url] = w
	f.nextOrd++
	return w, nil
}

// join records direct contact with url — a seed at start-up or a join
// heartbeat — adding it if unknown, and sets its declared capacity: 0
// clears it, so a worker restarted without one loses its old weight. It
// reports whether url is new and the resulting fleet size.
func (f *fleet) join(url string, capacity float64) (bool, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, known := f.members[url]
	if known {
		w.lastSeen = f.now()
	} else {
		var err error
		if w, err = f.addLocked(url, f.now()); err != nil {
			return false, len(f.members), err
		}
	}
	w.declared = capacity
	return !known, len(f.members), nil
}

// merge folds a primary's fleet view into the table and returns the URLs
// it added. A mirrored age only ever advances freshness: a member is
// adopted or refreshed when the primary heard from it more recently than
// we did. Members the primary is about to sweep are not resurrected.
func (f *fleet) merge(view []server.FleetMember) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	var added []string
	for _, m := range view {
		age := max(time.Duration(m.AgeMS)*time.Millisecond, 0)
		if m.URL == "" || age >= f.deadAfter {
			continue
		}
		seen := now.Add(-age)
		if w, ok := f.members[m.URL]; ok {
			if seen.After(w.lastSeen) {
				w.lastSeen = seen
			}
			continue
		}
		if _, err := f.addLocked(m.URL, seen); err == nil {
			added = append(added, m.URL)
		}
	}
	return added
}

// byJoinLocked lists the members in join order.
func (f *fleet) byJoinLocked() []*worker {
	rows := make([]*worker, 0, len(f.members))
	for _, w := range f.members {
		rows = append(rows, w)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].joined < rows[j].joined })
	return rows
}

// pick chooses a worker for one attempt at a range of runs and returns
// it with its adaptive lease. It prefers — in order — an alive,
// dispatchable worker not in exclude; then any non-excluded worker; then
// anyone at all (a degraded fleet still beats abandoning the range).
// Among the first-pass candidates placement is capacity-weighted
// least-loaded: each is scored by its live attempt count divided by its
// effective rate, so a worker that declares — or demonstrates — twice
// the throughput absorbs twice the outstanding ranges before a peer is
// preferred, and round-robin position breaks ties. Rate-less fleets
// degenerate to plain least-loaded round-robin. The chosen worker's
// outstanding count is incremented; release retires it.
func (f *fleet) pick(exclude map[string]bool, runs int) (*worker, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := f.byJoinLocked()
	n := len(rows)
	if n == 0 {
		return nil, 0
	}
	now := f.now()
	type candidate struct {
		w    *worker
		load float64
		ord  int
	}
	var cands []candidate
	for i := 0; i < n; i++ {
		w := rows[(f.rr+i)%n]
		if exclude[w.url] || now.Sub(w.lastSeen) >= f.suspectAfter {
			continue
		}
		weight := w.effectiveRate()
		if weight <= 0 {
			weight = 1
		}
		cands = append(cands, candidate{w: w, load: float64(w.outstanding) / weight, ord: i})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		return cands[a].ord < cands[b].ord
	})
	var chosen *worker
	ord := 0
	for _, cd := range cands {
		// claim takes the half-open probe slot of a cooled-down
		// brown-out, so it runs only on a worker we will actually use.
		if cd.w.claim(now) {
			chosen, ord = cd.w, cd.ord
			break
		}
	}
	if chosen == nil {
		chosen = rows[f.rr%n] // anyone at all, unless a non-excluded worker exists
		for i := 0; i < n; i++ {
			if w := rows[(f.rr+i)%n]; !exclude[w.url] {
				chosen, ord = w, i
				break
			}
		}
	}
	f.rr = (f.rr + ord + 1) % n
	chosen.outstanding++
	return chosen, f.leaseLocked(chosen, runs)
}

// leaseLocked is the adaptive straggler lease for a range of runs on w:
// LeaseFactor · runs / max(w's effective rate, the fleet mean), clamped
// to [MinLease, maxLease]. Flooring a slow worker's rate at the fleet
// mean makes falling behind the fleet SHRINK its lease rather than
// inflate it.
func (f *fleet) leaseLocked(w *worker, runs int) time.Duration {
	var sum float64
	var n int
	for _, m := range f.members {
		if r := m.effectiveRate(); r > 0 {
			sum += r
			n++
		}
	}
	rate := w.effectiveRate()
	if n > 0 && sum/float64(n) > rate {
		rate = sum / float64(n)
	}
	if rate <= 0 || runs <= 0 {
		return f.maxLease // cold start: the configured lease is the ceiling
	}
	lease := time.Duration(f.cfg.LeaseFactor * float64(runs) / rate * float64(time.Second))
	return min(max(lease, f.cfg.MinLease), f.maxLease)
}

// release retires one live range attempt from url's outstanding count.
func (f *fleet) release(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.members[url]; w != nil && w.outstanding > 0 {
		w.outstanding--
	}
}

// success records a completed range of runs that took dur on url. It
// counts as contact and clears any brown-out: the worker just proved
// itself. A URL no longer in the fleet is ignored.
func (f *fleet) success(url string, runs int, dur time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.members[url]
	if w == nil {
		return
	}
	a := f.cfg.Alpha
	if secs := dur.Seconds(); secs > 0 && runs > 0 {
		obs := float64(runs) / secs
		if w.rate == 0 {
			w.rate = obs
		} else {
			w.rate = (1-a)*w.rate + a*obs
		}
	}
	w.errShare *= 1 - a
	w.events++
	w.successes++
	w.brownedUntil, w.halfOpen = time.Time{}, false
	w.lastSeen = f.now()
}

// failure records a failed attempt on url and browns the worker out if
// its smoothed error share crosses the threshold or it failed its
// half-open probe. A URL no longer in the fleet is ignored.
func (f *fleet) failure(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.members[url]
	if w == nil {
		return
	}
	a := f.cfg.Alpha
	w.errShare = (1-a)*w.errShare + a
	w.events++
	w.failures++
	if w.halfOpen || (w.events >= f.cfg.BrownoutMinEvents && w.errShare >= f.cfg.BrownoutErrRate) {
		w.brownedUntil = f.now().Add(f.cfg.BrownoutCooldown)
	}
	w.halfOpen = false
}

// stuck counts the live attempts in liveOn held by workers that are
// suspect or browned out right now, without claiming a half-open slot;
// runRange widens the steal budget by this much so a dying worker's
// lease cannot exclude healthy replacements.
func (f *fleet) stuck(liveOn map[string]int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	extra := 0
	for url, n := range liveOn {
		w := f.members[url]
		if n > 0 && w != nil && (now.Sub(w.lastSeen) >= f.suspectAfter || w.brownedOut(now)) {
			extra += n
		}
	}
	return extra
}

// size reports the member count.
func (f *fleet) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// sweep deletes every member unheard from for deadAfter, returning their
// URLs sorted for deterministic logs, and claims a liveness ping for
// each surviving member unheard from for suspectAfter/2 that has none in
// flight — statically seeded workers never re-join, so without pings a
// healthy fleet would silently age out. The caller pings outside the
// lock and reports back through pinged.
func (f *fleet) sweep() (dead []string, ping []*worker) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	for url, w := range f.members {
		switch age := now.Sub(w.lastSeen); {
		case age >= f.deadAfter:
			delete(f.members, url)
			dead = append(dead, url)
		case age >= f.suspectAfter/2 && !w.pinging:
			w.pinging = true
			ping = append(ping, w)
		}
	}
	sort.Strings(dead)
	return dead, ping
}

// pinged ends a liveness ping on url; an answered one counts as contact.
func (f *fleet) pinged(url string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w := f.members[url]; w != nil {
		w.pinging = false
		if ok {
			w.lastSeen = f.now()
		}
	}
}

// view exports the table in join order: the payload of GET /v1/fleet,
// the fleet a standby mirrors, and the source of the per-worker gauges.
// Each member's lease is sized for a default range.
func (f *fleet) view() []server.FleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	out := make([]server.FleetMember, 0, len(f.members))
	for _, w := range f.byJoinLocked() {
		age := max(now.Sub(w.lastSeen), 0)
		state := stateAlive
		if age >= f.suspectAfter {
			state = stateSuspect
		}
		out = append(out, server.FleetMember{URL: w.url, State: state, AgeMS: age.Milliseconds(), Health: server.WorkerHealth{
			EWMARunsPerSec:     w.rate,
			ErrShare:           w.errShare,
			DeclaredRunsPerSec: w.declared,
			Successes:          w.successes,
			Failures:           w.failures,
			BrownedOut:         w.brownedOut(now),
			LeaseMS:            f.leaseLocked(w, f.rangeRuns).Milliseconds(),
		}})
	}
	return out
}
