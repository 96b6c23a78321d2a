// Command lggd is the simulation daemon: it accepts sweep jobs over an
// HTTP/JSON API, executes them on a bounded worker pool, and is built to
// stay correct under the unglamorous realities of a long-lived service —
// overload, deadlines, client retries, kill -9 and kill -TERM.
//
//   - Overload sheds at the edge: a full admission queue answers 429 with
//     a Retry-After derived from the measured service rate, the service
//     analogue of the paper's saturated regime (bounded state by refusing
//     excess arrivals rather than growing an unbounded backlog).
//   - Every job transition is fsynced to a JSONL ledger and every
//     finished run to a sweep journal, so a killed daemon restarts with
//     nothing lost: unfinished jobs resume exactly where their journals
//     end and — by the sweep determinism contract — complete with results
//     byte-identical to an uninterrupted execution.
//   - SIGTERM/SIGINT drains gracefully: admission closes (readyz → 503),
//     in-flight jobs get -drain-grace to finish, stragglers are
//     checkpointed mid-sweep, and the process exits 0. A second signal
//     force-quits.
//
// With -coordinator the process is instead a federation coordinator: it
// serves the same job API but executes nothing itself, sharding each job
// by run-index range across a fleet of ordinary lggd workers (seeded
// with -fleet, grown at runtime via POST /v1/fleet/join) and k-way
// merging their journals into results
// byte-identical to a single daemon's. Straggler leases adapt to each
// worker's measured service rate (-lease is just the ceiling), erroring
// workers are browned out and drained instead of fed more ranges, and
// departed workers age out through -suspect-after/-dead-after instead
// of holding leases. Tenants are isolated by -tenant-quota with
// fair-share dispatch, and finished jobs compact into per-cell
// summaries at GET /v1/results. A worker started with -join (one or
// more coordinator URLs, comma-separated) registers itself and
// re-registers on a jittered cadence, so a restarted coordinator
// re-learns its fleet without a thundering herd; a worker serving
// several coordinators lists them all in -join.
//
// With -coordinator -standby -primary http://coord:8321 the process is
// a warm standby: it refuses submissions (503 + Retry-After), tails the
// primary's /v1/coordinator/status every -heartbeat, and after
// -failover-after without a successful heartbeat promotes itself —
// re-queueing every in-flight job, whose output stays byte-identical to
// an unfailed run because worker-side idempotency keys re-attach the
// surviving range jobs. Standbys stack into a rank order: -rank fixes a
// coordinator's place in the failover chain and -watch lists the
// better-ranked coordinators it must also monitor, so rank 2 defers to
// a live rank 1 even with the primary dead, and an acting primary that
// sees a watched coordinator claim leadership with a higher epoch (or
// an equal epoch and lower rank, after a healed partition) demotes
// itself instead of split-brain dispatching.
//
// -chaos arms a deterministic fault injector over every outbound HTTP
// call the process makes (worker dispatch, heartbeat polls, fleet
// joins): a seeded schedule of latency spikes, connection resets,
// blackholes, 5xx bursts, slow-loris stalls and asymmetric partitions,
// replayed byte-identically from -chaos-seed. -chaos-transcript writes
// the injected-event log on clean exit. See internal/chaos.
//
// Usage:
//
//	lggd [-addr 127.0.0.1:8321] [-state lggd-state] [-jobs 2] [-queue 16]
//	     [-sweep-workers 0] [-retries 0] [-drain-grace 30s]
//	     [-join http://coord:8321,http://coord2:8321] [-advertise http://me:8321]
//	     [-capacity 12.5]
//	lggd -coordinator [-fleet url1,url2] [-range-runs 8] [-lease 60s]
//	     [-tenant-quota 4] [-keep-journals 0] [-suspect-after 75s]
//	     [-dead-after 150s] [-retry-budget 0] [...]
//	lggd -coordinator -standby -primary http://coord:8321 [-rank 1]
//	     [-watch http://rank1:8321] [-heartbeat 1s] [-failover-after 5s] [...]
//	lggd ... -chaos 'reset@0-8:p=0.5;latency@0-64:ms=5' -chaos-seed 42
//	     [-chaos-name rank1] [-chaos-endpoints primary=127.0.0.1:8450]
//	     [-chaos-transcript chaos.log]
//
// API: POST /v1/jobs, GET /v1/jobs[/{id}[/results]], DELETE /v1/jobs/{id},
// GET /healthz, /readyz, /metrics; coordinator adds POST /v1/fleet/join,
// GET /v1/fleet, GET /v1/coordinator/status and GET /v1/results. See
// internal/server and internal/server/federation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/federation"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8321", "listen address")
		state   = flag.String("state", "lggd-state", "state directory (job ledger + result journals)")
		jobs    = flag.Int("jobs", 2, "concurrent job executors")
		queue   = flag.Int("queue", 16, "admission queue depth; beyond it submissions are shed with 429")
		workers = flag.Int("sweep-workers", 0, "worker pool per sweep (0 = GOMAXPROCS)")
		retries = flag.Int("retries", 0, "re-attempts for a run that panics")
		grace   = flag.Duration("drain-grace", 30*time.Second, "how long a drain lets in-flight jobs finish before checkpointing them")

		coordinator  = flag.Bool("coordinator", false, "run as a federation coordinator: shard jobs across a worker fleet instead of executing them")
		fleetArg     = flag.String("fleet", "", "coordinator: comma-separated worker base URLs seeding the fleet")
		rangeRuns    = flag.Int("range-runs", 8, "coordinator: runs per range handed to one worker")
		lease        = flag.Duration("lease", 60*time.Second, "coordinator: straggler-lease ceiling; actual leases adapt to each worker's measured service rate")
		tenantQuota  = flag.Int("tenant-quota", 4, "coordinator: max live (queued+running) jobs per tenant; negative = unlimited")
		keepJournals = flag.Int("keep-journals", 0, "coordinator: after compaction keep only this many merged journals (0 = all)")
		suspectAfter = flag.Duration("suspect-after", 75*time.Second, "coordinator: mark a worker suspect after this long without contact")
		deadAfter    = flag.Duration("dead-after", 0, "coordinator: drop a worker after this long without contact (0 = 2×-suspect-after)")
		brownoutErr  = flag.Float64("brownout-err-rate", 0.5, "coordinator: smoothed attempt-error share that browns a worker out of dispatch")
		brownoutCool = flag.Duration("brownout-cooldown", 20*time.Second, "coordinator: how long a browned-out worker sits before a half-open probe")

		standby       = flag.Bool("standby", false, "coordinator: run as a warm standby that tails -primary and takes over on missed heartbeats")
		primary       = flag.String("primary", "", "standby: the primary coordinator's base URL")
		rank          = flag.Int("rank", 0, "coordinator: fixed failover rank (0 = primary; standbys default to 1)")
		watchArg      = flag.String("watch", "", "coordinator: comma-separated URLs of other coordinators in the failover chain to monitor (a standby watches better-ranked standbys; an acting primary demotes itself to a higher-authority claimant here)")
		heartbeat     = flag.Duration("heartbeat", time.Second, "standby: upstream status-poll cadence")
		failoverAfter = flag.Duration("failover-after", 5*time.Second, "standby: promote after this long with the whole upstream chain silent")
		retryBudget   = flag.Duration("retry-budget", 0, "coordinator: deadline cap on one logical worker request across all its retries (0 = attempts-only)")

		join      = flag.String("join", "", "worker: register with the federation coordinator(s) at these comma-separated URLs and re-register on a jittered cadence")
		advertise = flag.String("advertise", "", "worker: base URL advertised on -join (default http://<addr>)")
		capacity  = flag.Float64("capacity", 0, "worker: declared service rate in runs/sec advertised on -join (0 = undeclared); dispatch weights by max(declared, observed)")

		chaosArg        = flag.String("chaos", "", "inject deterministic faults into this process's outbound HTTP: a chaos schedule (text or JSON, @file to load), e.g. 'reset@0-8:p=0.5;latency@0-64:ms=5'")
		chaosSeed       = flag.Uint64("chaos-seed", 1, "chaos: RNG seed; same schedule+seed replays the same injected-event transcript")
		chaosName       = flag.String("chaos-name", "lggd", "chaos: this process's endpoint name (the src side of r=src>dst routes)")
		chaosEndpoints  = flag.String("chaos-endpoints", "", "chaos: comma-separated name=host:port pairs naming remote endpoints for route matching")
		chaosTranscript = flag.String("chaos-transcript", "", "chaos: write the injected-event transcript to this file on clean exit")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *coordinator && *join != "" {
		log.Fatalf("lggd: -join is a worker flag; a coordinator's fleet comes from -fleet and /v1/fleet/join")
	}
	if *standby && !*coordinator {
		log.Fatalf("lggd: -standby requires -coordinator")
	}
	if *standby && *primary == "" {
		log.Fatalf("lggd: -standby requires -primary (the coordinator to tail)")
	}
	if (*rank != 0 || *watchArg != "" || *retryBudget != 0) && !*coordinator {
		log.Fatalf("lggd: -rank, -watch and -retry-budget are coordinator flags")
	}
	if *capacity < 0 {
		log.Fatalf("lggd: -capacity must be non-negative")
	}

	// The chaos injector, when configured, owns every outbound HTTP call
	// this process makes — a coordinator's worker dispatch, a standby's
	// heartbeat polls and a worker's fleet joins all share
	// it, so one seeded schedule is one reproducible adversary for the
	// whole process. A nil injector leaves every path untouched.
	var injector *chaos.Injector
	if *chaosArg != "" {
		sched, err := chaos.Load(*chaosArg)
		if err != nil {
			log.Fatalf("lggd: -chaos: %v", err)
		}
		injector, err = chaos.NewInjector(sched, *chaosSeed)
		if err != nil {
			log.Fatalf("lggd: -chaos: %v", err)
		}
		for _, pair := range strings.Split(*chaosEndpoints, ",") {
			if pair = strings.TrimSpace(pair); pair == "" {
				continue
			}
			name, hostport, ok := strings.Cut(pair, "=")
			if !ok || name == "" || hostport == "" {
				log.Fatalf("lggd: -chaos-endpoints: %q is not name=host:port", pair)
			}
			injector.Register(name, stripScheme(hostport))
		}
		log.Printf("lggd: chaos schedule armed (seed %d): %s", *chaosSeed, chaos.FormatText(sched))
	}

	var (
		handler http.Handler
		drainFn func(context.Context) error
		role    string
	)
	if *coordinator {
		ccfg := client.Config{RetryBudget: *retryBudget}
		if injector != nil {
			ccfg.HTTP = &http.Client{Transport: injector.Transport(*chaosName, nil)}
		}
		coord, err := federation.New(federation.Config{
			StateDir:      *state,
			Workers:       splitURLs(*fleetArg),
			Jobs:          *jobs,
			QueueDepth:    *queue,
			TenantQuota:   *tenantQuota,
			RangeRuns:     *rangeRuns,
			Lease:         *lease,
			KeepJournals:  *keepJournals,
			SuspectAfter:  *suspectAfter,
			DeadAfter:     *deadAfter,
			Standby:       *standby,
			Primary:       *primary,
			Rank:          *rank,
			Watch:         splitURLs(*watchArg),
			Heartbeat:     *heartbeat,
			FailoverAfter: *failoverAfter,
			Client:        ccfg,
			Health: federation.HealthConfig{
				BrownoutErrRate:  *brownoutErr,
				BrownoutCooldown: *brownoutCool,
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("lggd: %v", err)
		}
		handler, drainFn, role = coord.Handler(), coord.Drain, "coordinator"
		if *standby {
			role = "standby coordinator"
		}
	} else {
		srv, err := server.New(server.Config{
			StateDir:     *state,
			Jobs:         *jobs,
			QueueDepth:   *queue,
			SweepWorkers: *workers,
			Retries:      *retries,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("lggd: %v", err)
		}
		handler, drainFn, role = srv.Handler(), srv.Drain, "worker"
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("lggd: %v", err)
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("lggd: %s listening on %s (state %s, %d executors, queue %d)",
		role, ln.Addr(), *state, *jobs, *queue)

	stopJoin := make(chan struct{})
	if *join != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		httpc := &http.Client{Timeout: 10 * time.Second}
		if injector != nil {
			httpc.Transport = injector.Transport(*chaosName, nil)
		}
		for _, coordURL := range splitURLs(*join) {
			go joinLoop(httpc, coordURL, self, *capacity, stopJoin)
		}
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("lggd: serve: %v", err)
	case sig := <-sigc:
		close(stopJoin)
		log.Printf("lggd: %v: draining (grace %v; signal again to force quit)", sig, *grace)
		go func() {
			<-sigc
			log.Printf("lggd: second signal, force quit")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		drainErr := drainFn(ctx)
		cancel()
		// Drain closed admission and ended result streams; now close the
		// listener and let straggling handlers return.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := hs.Shutdown(shutCtx)
		cancel()
		if drainErr != nil {
			log.Fatalf("lggd: drain: %v", drainErr)
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("lggd: shutdown: %v", err)
		}
		if injector != nil && *chaosTranscript != "" {
			if err := writeTranscript(injector, *chaosTranscript); err != nil {
				log.Fatalf("lggd: chaos transcript: %v", err)
			}
			log.Printf("lggd: chaos transcript (%d injected events) written to %s",
				len(injector.Transcript()), *chaosTranscript)
		}
		log.Printf("lggd: drained cleanly")
	}
}

// writeTranscript dumps the injector's injected-event log — sorted by
// (route, slot), so byte-comparable across runs of the same
// schedule+seed and workload.
func writeTranscript(in *chaos.Injector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := in.WriteTranscript(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stripScheme reduces a URL-ish endpoint argument to host:port, the form
// chaos route matching uses.
func stripScheme(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	return strings.TrimSuffix(s, "/")
}

// splitURLs parses a comma-separated URL list flag.
func splitURLs(arg string) []string {
	var urls []string
	for _, u := range strings.Split(arg, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// joinLoop registers this worker with one coordinator, then re-registers
// (joins are idempotent) so a restarted coordinator re-learns the fleet
// without operator action — every ~30s when joined, on a shorter cadence
// after a failure. Both cadences are jittered across [d/2, 3d/2): a
// fleet restarted together must not re-join in lockstep and thundering-
// herd the coordinator every interval thereafter.
// Each join re-POST doubles as a heartbeat carrying the worker's
// declared capacity hint, so a re-tuned worker propagates its new rate
// within one cadence.
func joinLoop(httpc *http.Client, coordURL, self string, capacity float64, stop <-chan struct{}) {
	body, _ := json.Marshal(struct {
		URL      string  `json:"url"`
		Capacity float64 `json:"capacity_runs_per_sec,omitempty"`
	}{self, capacity})
	url := strings.TrimRight(coordURL, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url += "/v1/fleet/join"
	joined := false
	for {
		resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			resp.Body.Close()
		}
		switch {
		case ok && !joined:
			log.Printf("lggd: joined fleet at %s as %s", coordURL, self)
			joined = true
		case !ok:
			if err == nil {
				err = fmt.Errorf("coordinator answered %d", resp.StatusCode)
			}
			log.Printf("lggd: fleet join %s: %v (will retry)", coordURL, err)
			joined = false
		}
		delay := 30 * time.Second
		if !joined {
			delay = 3 * time.Second
		}
		delay = delay/2 + time.Duration(rand.Float64()*float64(delay))
		select {
		case <-stop:
			return
		case <-time.After(delay):
		}
	}
}
