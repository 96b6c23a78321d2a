// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks every
// output it produced against the repository's determinism oracle, and
// prints a report whose last line is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user sees (set-up
// time, throughput, job latency, memory); with --trace 1 the run is
// split into an untraced and a traced half, and the metrics are the
// per-layer ones measured around the calls the benchmark makes into each
// layer's public API, plus the tracing overhead between the halves.
// Traced runs also write every span and a self-time summary by layer.
//
// Run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen, and
// predictions.json for which layer metric should move which end-to-end
// metric on which workload):
//
//	sweep-small  in-process stability grid batches through sweep.Runner
//	daemon       2 closed-loop clients against one lggd server
//	fleet        the same clients against a coordinator and 2 workers
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config sizes one invocation. main fills it from the flags with the
// production sizes; the tests fill it with toy sizes.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch and report directory
	workers  int    // load-generator width: nproc

	sweepHorizon int64

	jobSeeds   int // replicas per daemon/fleet job
	jobHorizon int64

	// corrupt flips one byte of one checked output before it is
	// checked (tests use it to prove the checks fire).
	corrupt bool
}

func productionConfig() config {
	return config{
		workers:      runtime.NumCPU(),
		sweepHorizon: 3000,
		jobSeeds:     2,
		jobHorizon:   3000,
	}
}

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "steps/s"},
	{"runs_per_s", "runs/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"first_result_p50_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.step_us.p50", "us"},
	{"core.step_us.p99", "us"},
	{"core.plan_share", "share"},
	{"core.active_per_step", "count"},
	{"core.sends_per_step", "count"},
	{"core.allocs_per_step", "count"},
	{"core.bytes_per_step", "B"},
	{"sim.run_ms.p50", "ms"},
	{"sim.run_ms.p99", "ms"},
	{"sim.overhead_share", "share"},
	{"experiments.jobs_ms", "ms"},
	{"experiments.build_us.p50", "us"},
	{"sweep.worker_busy_share", "share"},
	{"sweep.journal_write_ms", "ms"},
	{"sweep.journal_bytes", "B"},
	{"server.submit_ms.p50", "ms"},
	{"server.stream_ms.p50", "ms"},
	{"server.requests_per_job", "count"},
	{"server.status_polls_per_job", "count"},
	{"server.shed_share", "share"},
	{"federation.range_launches_per_job", "count"},
	{"federation.useful_range_share", "share"},
	{"federation.worker_polls_per_range", "count"},
	{"federation.range_rtt_ms.p50", "ms"},
	{"federation.dispatch_ms.p50", "ms"},
	{"federation.merge_tail_ms.p50", "ms"},
	{"runtime.gc_cpu_share", "share"},
	{"host.steal_share", "share"},
	{"bench.trace_overhead_share", "share"},
}

type metricDef struct{ name, unit string }

// report is what a workload hands back.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
	spans     []span
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("CHECK FAILED: "+format, args...)
}

type workloadFunc func(ctx context.Context, cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"sweep-small": runSweepSmall,
	"daemon":      runDaemon,
	"fleet":       runFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := productionConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; job and run seeds derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build/perfbench", "scratch and report directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seconds >0 --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.trace = *traceFlag == 1
	return execute(context.Background(), cfg, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and prints its report. It returns the exit
// code: 0 when every output check passed, 1 when one failed (the result
// line is still printed), 2 when the benchmark could not run at all.
func execute(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	rep := &report{metrics: make(map[string]float64)}
	h0 := sampleHost()
	err := workloads[cfg.workload](ctx, cfg, rep)
	h1 := sampleHost()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	steal := stealShare(h0, h1)
	if cfg.trace {
		rep.metrics["host.steal_share"] = steal
	} else {
		rep.metrics["peak_rss_mb"] = peakRSSMB()
	}

	mode := 0
	defs := endToEnd
	if cfg.trace {
		mode, defs = 1, perLayer
	}
	host := fmt.Sprintf("host: workload=%s seed=%d trace=%d seconds=%g nproc=%d GOMAXPROCS=%d go=%s host.steal_share=%.4f",
		cfg.workload, cfg.seed, mode, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	out := make(map[string]resultMetric, len(defs))
	var idle []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && cfg.trace {
			// A layer this workload does not exercise did no work.
			idle = append(idle, d.name)
			ok = true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s did not produce metric %s\n", cfg.workload, d.name)
			return 2
		}
		out[d.name] = resultMetric{Value: v, Unit: d.unit}
	}

	if cfg.trace {
		dir := filepath.Join(cfg.work, "reports", fmt.Sprintf("%s-seed%d-trace1", cfg.workload, cfg.seed))
		self := selfTimes(rep.spans)
		summary := map[string]any{
			"workload": cfg.workload, "seed": cfg.seed, "host": host,
			"spans": len(rep.spans), "self_time": self,
		}
		if err := writeTrace(dir, rep.spans, summary); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 2
		}
		for _, row := range self {
			rep.notef("self time %-11s %10.1f ms  %5.1f%%", row.Layer, row.SelfMS, 100*row.Share)
		}
		rep.notef("spans and self-time summary: %s", dir)
	}
	if len(idle) > 0 {
		rep.notef("not exercised by %s (reported as 0): %s", cfg.workload, strings.Join(idle, " "))
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	fmt.Fprintln(stdout, "# "+host)
	for _, d := range defs {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", d.name, out[d.name].Value, d.unit)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 || rep.attempted < 1 {
		return 1
	}
	return 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// pass collects one timed loop's jobs: what a user submits and waits
// for — a sweep batch or a daemon job.
type pass struct {
	from, to    time.Duration
	jobs        []interval
	latency     []float64 // s
	first       []float64 // s, start → first result
	runsPerJob  float64
	stepsPerJob float64
}

// begin opens the pass's timed window of length d.
func (p *pass) begin(d time.Duration) {
	p.from = now()
	p.to = p.from + d
}

func (p *pass) add(iv interval, first time.Duration) {
	p.jobs = append(p.jobs, iv)
	p.latency = append(p.latency, (iv.end - iv.start).Seconds())
	p.first = append(p.first, (first - iv.start).Seconds())
}

const rateWindows = 10

func (p *pass) jobsPerS() float64 { return windowRate(p.jobs, p.from, p.to, rateWindows) }

// endToEnd fills the throughput and latency metrics of an untraced pass.
func (p *pass) endToEnd(rep *report) {
	jps := p.jobsPerS()
	rep.metrics["jobs_per_s"] = jps
	rep.metrics["runs_per_s"] = jps * p.runsPerJob
	rep.metrics["steps_per_s"] = jps * p.stepsPerJob
	rep.metrics["job_p50_s"] = median(p.latency)
	rep.metrics["job_p90_s"] = quantile(p.latency, 0.9)
	rep.metrics["first_result_p50_s"] = median(p.first)
	rep.notef("jobs: %d in %.2fs (%d runs, %d steps each)", len(p.jobs), (p.to - p.from).Seconds(),
		int(p.runsPerJob), int(p.stepsPerJob))
	rep.notef("job latency s: %s", tailNote(p.latency))
	rep.notef("first result s: %s", tailNote(p.first))
}

// overhead records the traced pass's throughput loss against the
// untraced pass of the same invocation.
func overhead(rep *report, untraced, traced *pass) {
	u, t := untraced.jobsPerS(), traced.jobsPerS()
	rep.metrics["bench.trace_overhead_share"] = safeDiv(u-t, u)
	rep.notef("tracing overhead: untraced %.4g jobs/s, traced %.4g jobs/s", u, t)
}

// passSeconds splits the measured time: all of it untraced, or half
// untraced and half traced.
func passSeconds(cfg config) time.Duration {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	return d
}

// Set-up is repeated at least minSetups times and until it has taken
// setupBudget in total (at most maxSetups times): a millisecond set-up
// needs many repeats for a steady median, a slow one few.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
)

// timeSetup runs setup repeatedly and records the median as setup_s.
// undo, when set, releases one set-up before the next; it is not timed.
func timeSetup(rep *report, setup func() error, undo func()) error {
	var ds []float64
	var spent time.Duration
	for len(ds) < minSetups || (spent < setupBudget && len(ds) < maxSetups) {
		if len(ds) > 0 && undo != nil {
			undo()
		}
		t := now()
		if err := setup(); err != nil {
			return err
		}
		d := now() - t
		spent += d
		ds = append(ds, d.Seconds())
	}
	rep.metrics["setup_s"] = median(ds)
	rep.notef("setup s: n=%d median=%.6g min=%.6g max=%.6g", len(ds), median(ds), quantile(ds, 0), quantile(ds, 1))
	return nil
}

// deriveSeed maps the workload seed and a purpose to a run or job seed
// (splitmix64), never 0 — 0 means "default" in job specs.
func deriveSeed(seed uint64, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
