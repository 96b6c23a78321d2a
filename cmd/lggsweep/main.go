// Command lggsweep runs a named parameter grid on the parallel sweep
// runner and emits one JSON line per run (plus, optionally, a CSV table,
// per-cell aggregates, a live JSONL event stream and a Prometheus-style
// metrics scrape).
//
// Results are deterministic: each run draws its randomness only from the
// root seed and its grid index, and output is emitted in grid order, so
// the bytes — including the -events stream and the -metrics scrape —
// are identical whether the sweep runs on 1 worker or 64.
//
// A sweep cut short — by -timeout, Ctrl-C or SIGTERM — still writes every
// finished run to its outputs (the deterministic in-order prefix) and then
// exits non-zero so callers know the table is truncated. With -journal the
// prefix is also checkpointed on disk as it is produced, and -resume picks
// a killed sweep up from exactly where the journal ends.
//
// With -remote the sweep is not executed in-process: the job is submitted
// to a running lggd daemon through the hardened API client (retries with
// backoff + jitter, Retry-After honoured, idempotent submission, circuit
// breaker), followed to completion, and the fetched results feed the same
// output flags. Durability then lives server-side: -journal/-resume are
// local-mode flags and are rejected with -remote.
//
// With -adaptive the grid is not enumerated: the sweep becomes a
// frontier search that bisects the named numeric -axis of the grid's
// typed-axis space, per cell group, for the coordinate where the stable
// share crosses -threshold — spending between -min-seeds and -max-seeds
// replicas per probed coordinate, early-stopped on a Wilson confidence
// interval. -out then carries one frontier-result line per group,
// -probes the per-run probe stream, and -journal/-resume checkpoint the
// refinement itself (the journal is created with the adaptive sentinel,
// since the total run count is not known up front). Adaptive output is
// deterministic at any worker count, resume included.
//
// Usage:
//
//	lggsweep -list
//	lggsweep -grid stability [-workers 8] [-seeds 8] [-horizon 3000] \
//	         [-seed 1] [-timeout 10m] [-out runs.jsonl] [-csv runs.csv] \
//	         [-cells cells.jsonl] [-events events.jsonl] [-metrics metrics.prom] \
//	         [-faults 'down@100-200:e=3'] [-journal ckpt.jsonl] [-resume] \
//	         [-retries 2] [-quick] [-shard-workers 1]
//	lggsweep -grid frontier -adaptive -axis rho [-tol 0.05] [-threshold 0.5] \
//	         [-min-seeds 4] [-max-seeds 16] [-out frontier.jsonl] \
//	         [-probes probes.jsonl] [-journal ckpt.jsonl] [-resume]
//	lggsweep -remote 127.0.0.1:8321 -grid stability [-seeds 8] [...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sweep"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list grids and exit")
		grid        = flag.String("grid", "", "grid name to run (see -list)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "stop dispatching new runs after this long (0 = none)")
		out         = flag.String("out", "-", "JSON-lines output path (- = stdout)")
		csvPath     = flag.String("csv", "", "also write results as CSV to this path")
		cellsPath   = flag.String("cells", "", "write per-cell aggregates here (.csv = CSV, otherwise JSONL)")
		eventsPath  = flag.String("events", "", "stream per-run and per-cell JSONL events here (- = stdout)")
		metricsPath = flag.String("metrics", "", "write aggregated Prometheus text metrics here (- = stdout)")
		seed        = flag.Uint64("seed", 1, "root seed")
		seeds       = flag.Int("seeds", 8, "replicas per grid cell")
		horizon     = flag.Int64("horizon", 3000, "steps per run")
		quick       = flag.Bool("quick", false, "reduced workloads (CI sizes)")
		quiet       = flag.Bool("quiet", false, "suppress the progress reporter")
		faultsArg   = flag.String("faults", "", "inject this fault schedule into every run (text, JSON, or @file)")
		shardWk     = flag.Int("shard-workers", 1, "intra-step worker goroutines per engine over its 1024-node blocks (≤1 = inline, recommended — sweeps already parallelize across runs)")
		journalPath = flag.String("journal", "", "checkpoint finished runs to this JSONL journal as the sweep progresses")
		resume      = flag.Bool("resume", false, "resume from the -journal file instead of re-running its prefix")
		retries     = flag.Int("retries", 0, "re-attempts for a run that panics before recording it as failed")
		remote      = flag.String("remote", "", "submit to a running lggd daemon (or federation coordinator) at this address instead of sweeping in-process")
		tenant      = flag.String("tenant", "", "tenant name for remote submission; a federation coordinator applies per-tenant quotas and fair-share dispatch to it")
		adaptive    = flag.Bool("adaptive", false, "bisect -axis for the stability frontier instead of enumerating the grid")
		axis        = flag.String("axis", "", "numeric axis to search with -adaptive (e.g. rho)")
		tol         = flag.Float64("tol", 0.05, "adaptive: bracket-width tolerance on the search axis")
		threshold   = flag.Float64("threshold", 0.5, "adaptive: stable-share level the frontier crosses")
		minSeeds    = flag.Int("min-seeds", 4, "adaptive: first replica batch per probed coordinate")
		maxSeeds    = flag.Int("max-seeds", 16, "adaptive: replica cap per probed coordinate")
		probesPath  = flag.String("probes", "", "adaptive: write the per-run probe stream (JSONL) here")
	)
	flag.Parse()

	if *list {
		for _, g := range experiments.SweepGrids() {
			fmt.Printf("%-12s %s\n", g.Name, g.Desc)
		}
		return
	}
	if *grid == "" {
		fmt.Fprintln(os.Stderr, "lggsweep: -grid is required (try -list)")
		os.Exit(2)
	}
	if *remote != "" {
		if *adaptive {
			fmt.Fprintln(os.Stderr, "lggsweep: -adaptive is a local-mode flag; the daemon runs exhaustive sweeps")
			os.Exit(2)
		}
		if *journalPath != "" || *resume || *eventsPath != "" {
			fmt.Fprintln(os.Stderr, "lggsweep: -journal, -resume and -events are local-mode flags; with -remote the daemon owns durability")
			os.Exit(2)
		}
		rs, err := runRemote(*remote, remoteSpec(*grid, *seed, *seeds, *horizon, *quick, *faultsArg, *timeout, *tenant), *quiet)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		if err := emitOutputs(rs, *grid, *out, *csvPath, *cellsPath, *metricsPath, *seeds); err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tenant != "" {
		fmt.Fprintln(os.Stderr, "lggsweep: -tenant only applies with -remote")
		os.Exit(2)
	}
	g, err := experiments.FindGrid(*grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lggsweep: %v (try -list)\n", err)
		os.Exit(2)
	}

	cfg := experiments.Config{Seed: *seed, Seeds: *seeds, Horizon: *horizon, Quick: *quick}
	if *adaptive {
		if *axis == "" {
			fmt.Fprintln(os.Stderr, "lggsweep: -adaptive needs -axis (the numeric axis to bisect)")
			os.Exit(2)
		}
		if *csvPath != "" || *cellsPath != "" || *eventsPath != "" || *faultsArg != "" {
			fmt.Fprintln(os.Stderr, "lggsweep: -csv, -cells, -events and -faults are exhaustive-mode flags; -adaptive emits frontier results (-out) and probes (-probes)")
			os.Exit(2)
		}
		if g.Space == nil {
			fmt.Fprintf(os.Stderr, "lggsweep: grid %q has no typed-axis space; -adaptive needs one\n", g.Name)
			os.Exit(2)
		}
		runAdaptive(g.Space(cfg), adaptiveFlags{
			axis: *axis, tol: *tol, threshold: *threshold,
			minSeeds: *minSeeds, maxSeeds: *maxSeeds,
			workers: *workers, timeout: *timeout, retries: *retries, quiet: *quiet,
			shardWorkers: *shardWk, journalPath: *journalPath, resume: *resume,
			out: *out, probesPath: *probesPath, metricsPath: *metricsPath,
		})
		return
	}
	jobs := g.Jobs(cfg)
	if *faultsArg != "" {
		if err := experiments.ApplyFaults(jobs, *faultsArg); err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(2)
		}
	}
	for i := range jobs {
		jobs[i].Options.ShardWorkers = *shardWk
	}

	runner := &sweep.Runner{Workers: *workers, Timeout: *timeout, Retries: *retries}
	if !*quiet {
		runner.Progress = sweep.NewReporter(os.Stderr, time.Second)
	}
	var journal *sweep.Journal
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "lggsweep: -resume needs -journal")
		os.Exit(2)
	}
	if *journalPath != "" {
		var err error
		if *resume {
			var prefix []sweep.Result
			journal, prefix, err = sweep.OpenJournalResume(*journalPath, len(jobs))
			if err == nil && len(prefix) > 0 {
				fmt.Fprintf(os.Stderr, "lggsweep: resuming %s: %d/%d runs already done\n",
					*journalPath, len(prefix), len(jobs))
				runner.Resume = prefix
			}
		} else {
			journal, err = sweep.CreateJournal(*journalPath, len(jobs))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		runner.Journal = journal
	}
	var es *sweep.EventStreamer
	var eventsClose func() error
	if *eventsPath != "" {
		w, closeFn, err := openOut(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		eventsClose = closeFn
		es = sweep.NewEventStreamer(w, *seeds)
		runner.OnResult = es.OnResult
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rs, runErr := runner.RunWithContext(ctx, jobs)
	stop()
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: journal: %v\n", err)
			os.Exit(1)
		}
	}
	// A timed-out or signal-interrupted sweep still owns a valid in-order
	// prefix: flush it to every requested output, then exit non-zero below.
	// Any other error (journal write, resume mismatch) is fatal here.
	truncated := errors.Is(runErr, sweep.ErrTimeout) || errors.Is(runErr, context.Canceled) ||
		errors.Is(runErr, context.DeadlineExceeded)
	if runErr != nil && !truncated {
		fmt.Fprintf(os.Stderr, "lggsweep: %v\n", runErr)
		os.Exit(1)
	}
	if es != nil {
		// A partial trailing cell after a timeout is reported, not fatal —
		// the run error below already signals truncation.
		if err := es.Flush(); err != nil && runErr == nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		if err := eventsClose(); err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
	}

	if err := emitOutputs(rs, g.Name, *out, *csvPath, *cellsPath, *metricsPath, *seeds); err != nil {
		fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "lggsweep: sweep truncated, wrote the %d finished runs: %v\n", len(rs), runErr)
		os.Exit(1)
	}
}

// adaptiveFlags bundles the flag values the adaptive mode consumes.
type adaptiveFlags struct {
	axis                           string
	tol, threshold                 float64
	minSeeds, maxSeeds             int
	workers, retries, shardWorkers int
	timeout                        time.Duration
	quiet                          bool
	journalPath                    string
	resume                         bool
	out, probesPath                string
	metricsPath                    string
}

// runAdaptive drives the frontier search: journal/resume wiring with the
// adaptive job-count sentinel, the round-synchronous RunFrontier, and
// the frontier outputs. Exits the process on error; the journal always
// holds the completed prefix, so a killed or failed refinement resumes.
func runAdaptive(space *sweep.Space, f adaptiveFlags) {
	space.Options.ShardWorkers = f.shardWorkers
	runner := &sweep.Runner{Workers: f.workers, Timeout: f.timeout, Retries: f.retries}
	if !f.quiet {
		runner.Progress = sweep.NewReporter(os.Stderr, time.Second)
	}
	if f.resume && f.journalPath == "" {
		fmt.Fprintln(os.Stderr, "lggsweep: -resume needs -journal")
		os.Exit(2)
	}
	var journal *sweep.Journal
	if f.journalPath != "" {
		var err error
		if f.resume {
			var prefix []sweep.Result
			journal, prefix, err = sweep.OpenJournalResume(f.journalPath, sweep.AdaptiveJobs)
			if err == nil && len(prefix) > 0 {
				fmt.Fprintf(os.Stderr, "lggsweep: resuming %s: %d probe runs already done\n",
					f.journalPath, len(prefix))
				runner.Resume = prefix
			}
		} else {
			journal, err = sweep.CreateJournal(f.journalPath, sweep.AdaptiveJobs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
			os.Exit(1)
		}
		runner.Journal = journal
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	report, runErr := sweep.RunFrontier(ctx, space, sweep.FrontierConfig{
		Axis: f.axis, Tol: f.tol, Threshold: f.threshold,
		MinSeeds: f.minSeeds, MaxSeeds: f.maxSeeds,
	}, runner)
	stop()
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: journal: %v\n", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		// Unlike an exhaustive sweep there is no meaningful partial table:
		// a bisection cut short has not located any frontier. The journal
		// (when requested) holds the finished probe prefix for -resume.
		fmt.Fprintf(os.Stderr, "lggsweep: %v\n", runErr)
		os.Exit(1)
	}
	if err := emitFrontier(report, f.out, f.probesPath, f.metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "lggsweep: %v\n", err)
		os.Exit(1)
	}
}

// emitFrontier writes the frontier report to the adaptive outputs: the
// per-group results to out, the probe stream to probesPath, and the
// aggregate metrics scrape (over the probe runs) to metricsPath.
func emitFrontier(report *sweep.FrontierReport, out, probesPath, metricsPath string) error {
	w, closeFn, err := openOut(out)
	if err != nil {
		return err
	}
	err = sweep.WriteFrontierJSONL(w, report.Results)
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if probesPath != "" {
		if err := emitJSONL(probesPath, report.Probes); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := emitMetrics(metricsPath, report.Probes); err != nil {
			return err
		}
	}
	return nil
}

// emitOutputs writes the result set to every requested output.
func emitOutputs(rs []sweep.Result, gridName, out, csvPath, cellsPath, metricsPath string, seeds int) error {
	if err := emitJSONL(out, rs); err != nil {
		return err
	}
	if csvPath != "" {
		if err := emitCSV(csvPath, gridName, rs); err != nil {
			return err
		}
	}
	if cellsPath != "" {
		if err := emitCells(cellsPath, rs, seeds); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := emitMetrics(metricsPath, rs); err != nil {
			return err
		}
	}
	return nil
}

// remoteSpec maps the local sweep flags onto a daemon job spec. An @file
// fault schedule is read here — the daemon never opens client paths —
// and -timeout becomes the job's server-side deadline.
func remoteSpec(grid string, seed uint64, seeds int, horizon int64, quick bool, faultsArg string, timeout time.Duration, tenant string) server.JobSpec {
	if strings.HasPrefix(faultsArg, "@") {
		b, err := os.ReadFile(faultsArg[1:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "lggsweep: faults: %v\n", err)
			os.Exit(2)
		}
		faultsArg = string(b)
	}
	spec := server.JobSpec{
		Grid: grid, Seed: seed, Seeds: seeds, Horizon: horizon,
		Quick: quick, Faults: faultsArg, Tenant: tenant,
	}
	if timeout > 0 {
		spec.TimeoutMS = timeout.Milliseconds()
	}
	return spec
}

// runRemote submits the job through the hardened client and follows its
// results stream, which the daemon serves until the job is terminal
// (through a drain's grace too); one status call then says whether it
// finished. A done job whose stream was cut short is read once more —
// a terminal job's stream is complete. Ctrl-C detaches — the job keeps
// running on the daemon — and prints how to pick it back up.
func runRemote(addr string, spec server.JobSpec, quiet bool) ([]sweep.Result, error) {
	c, err := client.New(client.Config{BaseURL: addr})
	if err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "lggsweep: submitted %s to %s, following its results\n", st.ID, addr)
	}
	rs, err := c.Results(ctx, st.ID)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("interrupted; job %s continues on the daemon (fetch with GET /v1/jobs/%s/results)", st.ID, st.ID)
	}
	if err != nil {
		return nil, err
	}
	if st, err = c.Job(ctx, st.ID); err != nil {
		return nil, err
	}
	switch st.Status {
	case server.StatusDone:
		if len(rs) < st.Done {
			return c.Results(ctx, st.ID)
		}
		return rs, nil
	case server.StatusFailed:
		return nil, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	case server.StatusCancelled:
		return nil, fmt.Errorf("job %s was cancelled", st.ID)
	}
	return nil, fmt.Errorf("job %s is %s after its results stream ended (%d/%d runs); a daemon drain checkpointed it and it resumes on restart (fetch later with GET /v1/jobs/%s/results)",
		st.ID, st.Status, st.Done, st.Total, st.ID)
}

// openOut resolves "-" to stdout (with a no-op closer) and anything else
// to a created file.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// emitCells aggregates complete cells (a timed-out sweep's trailing
// partial cell is dropped, matching the finished-prefix semantics) and
// writes them as CSV or JSONL depending on the extension.
func emitCells(path string, rs []sweep.Result, replicas int) error {
	if replicas <= 0 {
		return fmt.Errorf("-cells needs a positive -seeds, got %d", replicas)
	}
	full := len(rs) - len(rs)%replicas
	cells, err := sweep.AggregateCells(rs[:full], replicas)
	if err != nil {
		return err
	}
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = sweep.WriteCellsCSV(w, cells)
	} else {
		err = sweep.WriteCellsJSONL(w, cells)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

func emitMetrics(path string, rs []sweep.Result) error {
	reg := metrics.NewRegistry()
	sweep.RecordMetrics(reg, rs)
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	err = reg.WriteProm(w)
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

func emitJSONL(path string, rs []sweep.Result) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return sweep.WriteJSONL(w, rs)
}

func emitCSV(path, name string, rs []sweep.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.ResultTable(name, rs).CSV(f)
}
