// Observability, run-control and harness surface of package repro.
//
// This file re-exports the streaming observability layer
// (internal/metrics), the context-aware run API (internal/sim), the
// sweep harness (internal/sweep + internal/experiments), the trace
// serializers (internal/trace), and the analysis machinery the
// examples/ programs are built on (internal/cutsplit, internal/chain,
// internal/flow, internal/stats, internal/distsim) — so complete
// studies can be written against package repro alone.
package repro

import (
	"context"
	"io"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cutsplit"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Observability types. A StepObserver hangs off an Engine
// (Engine.AddObserver) or a run (Options.Observers) and sees every step;
// the metrics implementations feed a Registry that WriteProm exposes as
// Prometheus text.
type (
	// StepObserver receives every engine step as it completes.
	StepObserver = core.StepObserver
	// ObserverFunc adapts a function to a StepObserver.
	ObserverFunc = core.ObserverFunc
	// Registry holds named counters, gauges and histograms.
	Registry = metrics.Registry
	// Counter is a monotone atomic counter.
	Counter = metrics.Counter
	// Gauge is an atomic last-value (or running-max) instrument.
	Gauge = metrics.Gauge
	// Histogram is a fixed-bucket atomic histogram.
	Histogram = metrics.Histogram
	// StepMetrics feeds the canonical lgg_* metrics from the step path;
	// one instance may be shared by a whole fleet of engines.
	StepMetrics = metrics.StepMetrics
	// DriftObserver tracks the one-step potential change ΔP_t (Lemma 1);
	// use one per engine.
	DriftObserver = metrics.DriftObserver
	// EventWriter streams per-step JSONL events; use one per engine.
	EventWriter = metrics.EventWriter
	// MultiObserver fans one step out to several observers.
	MultiObserver = metrics.Multi
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// NewStepMetrics returns the canonical step-metrics observer bound to r.
func NewStepMetrics(r *Registry) *StepMetrics { return metrics.NewStepMetrics(r) }

// NewDriftObserver returns a per-engine ΔP_t drift observer bound to r.
func NewDriftObserver(r *Registry) *DriftObserver { return metrics.NewDriftObserver(r) }

// NewEventWriter returns a per-engine JSONL step-event streamer.
func NewEventWriter(w io.Writer) *EventWriter { return metrics.NewEventWriter(w) }

// Run-control API.

// EngineFactory builds an engine for one seed of a multi-seed study.
type EngineFactory = sim.EngineFactory

// Series is the recorded per-run time series (P_t, N_t, max queue).
type Series = sim.Series

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes mid-run, the partial Result (verdict Inconclusive) is
// returned promptly.
func RunContext(ctx context.Context, e *Engine, opts Options) *Result {
	return sim.RunContext(ctx, e, opts)
}

// RunSeeds executes one run per seed on a bounded worker pool.
func RunSeeds(build EngineFactory, seeds []uint64, opts Options) []*Result {
	return sim.RunSeeds(build, seeds, opts)
}

// Seeds derives n per-run seeds from a base seed.
func Seeds(base uint64, n int) []uint64 { return sim.Seeds(base, n) }

// Trace serializers.

// RunSummary is the stable JSON summary of one run.
type RunSummary = trace.Summary

// Summarize builds a RunSummary from a finished run.
func Summarize(spec *Spec, routerName string, r *Result) RunSummary {
	return trace.Summarize(spec, routerName, r)
}

// WriteSummaryJSON / ReadSummaryJSON round-trip a RunSummary.
func WriteSummaryJSON(w io.Writer, s RunSummary) error { return trace.WriteJSON(w, s) }
func ReadSummaryJSON(r io.Reader) (RunSummary, error)  { return trace.ReadJSON(r) }

// WriteSeriesCSV streams a run's time series as CSV.
func WriteSeriesCSV(w io.Writer, s *Series) error { return trace.WriteSeriesCSV(w, s) }

// Sweep harness.
type (
	// SweepJob is one run of a sweep.
	SweepJob = sweep.Job
	// SweepDesc identifies a run within its grid.
	SweepDesc = sweep.Desc
	// SweepResult is the per-run summary a sweep emits in grid order.
	SweepResult = sweep.Result
	// SweepRunner executes jobs on a bounded worker pool, deterministically.
	SweepRunner = sweep.Runner
	// CellStats aggregates the replicas of one grid cell.
	CellStats = sweep.CellStats
	// EventStreamer turns a SweepRunner's result callback into JSONL events.
	EventStreamer = sweep.EventStreamer
	// NamedGrid is a registered experiment grid (see SweepGrids).
	NamedGrid = experiments.NamedGrid
	// SweepConfig parameterizes the registered grids.
	SweepConfig = experiments.Config
)

// NewEventStreamer streams sweep events to w; wire its OnResult into a
// SweepRunner. replicas > 0 also emits per-cell aggregates.
func NewEventStreamer(w io.Writer, replicas int) *EventStreamer {
	return sweep.NewEventStreamer(w, replicas)
}

// SweepGrids lists the registered experiment grids; FindGrid looks one
// up by name.
func SweepGrids() []NamedGrid                 { return experiments.SweepGrids() }
func FindGrid(name string) (NamedGrid, error) { return experiments.FindGrid(name) }

// AggregateCells folds an in-order result list into per-cell statistics
// (replicas consecutive runs per cell). It errors when the list is not a
// whole number of cells — trim to len(rs)-len(rs)%replicas first if a
// truncated sweep's complete prefix is what you want aggregated.
func AggregateCells(rs []SweepResult, replicas int) ([]CellStats, error) {
	return sweep.AggregateCells(rs, replicas)
}

// Cell/run writers, byte-stable at any worker count.
func WriteRunsJSONL(w io.Writer, rs []SweepResult) error { return sweep.WriteJSONL(w, rs) }
func WriteCellsJSONL(w io.Writer, cs []CellStats) error  { return sweep.WriteCellsJSONL(w, cs) }
func WriteCellsCSV(w io.Writer, cs []CellStats) error    { return sweep.WriteCellsCSV(w, cs) }

// RecordSweepMetrics folds finished sweep results into reg's sweep_*
// metrics.
func RecordSweepMetrics(reg *Registry, rs []SweepResult) { sweep.RecordMetrics(reg, rs) }

// Sweep checkpoint journal: wire one into SweepRunner.Journal and a
// killed sweep resumes from its on-disk prefix.
type SweepJournal = sweep.Journal

// CreateSweepJournal starts a fresh checkpoint journal for a sweep of
// jobs runs.
func CreateSweepJournal(path string, jobs int) (*SweepJournal, error) {
	return sweep.CreateJournal(path, jobs)
}

// OpenSweepJournalResume reopens a journal, tolerating a torn tail, and
// returns the finished prefix for SweepRunner.Resume.
func OpenSweepJournalResume(path string, jobs int) (*SweepJournal, []SweepResult, error) {
	return sweep.OpenJournalResume(path, jobs)
}

// AdaptiveSweepJobs is the journal job-count sentinel for adaptive
// frontier sweeps, whose total run count is not known up front.
const AdaptiveSweepJobs = sweep.AdaptiveJobs

// Typed-axis sweep spaces and adaptive frontier search.
type (
	// SweepAxis is one named dimension of a sweep space — categorical
	// labels, discrete numeric points, or a continuous range (the latter
	// only searchable adaptively).
	SweepAxis = sweep.Axis
	// SweepAxisValue is one coordinate: an axis name with its value.
	SweepAxisValue = sweep.AxisValue
	// SweepPoint is one full coordinate vector of a space.
	SweepPoint = sweep.Point
	// SweepProbe hands a Space.Build everything about one run: the
	// point, the replica index and the derived seed.
	SweepProbe = sweep.Probe
	// SweepSpace declares a sweep over named typed axes; Jobs()
	// enumerates it exhaustively, RunFrontier searches it adaptively.
	SweepSpace = sweep.Space
	// FrontierConfig tunes an adaptive frontier search.
	FrontierConfig = sweep.FrontierConfig
	// FrontierMetric selects which binary outcome defines the frontier.
	FrontierMetric = sweep.FrontierMetric
	// FrontierResult locates one cell-group's critical point.
	FrontierResult = sweep.FrontierResult
	// FrontierReport is a whole adaptive sweep: per-group results plus
	// every probe run in deterministic emission order.
	FrontierReport = sweep.FrontierReport
)

// Frontier metrics.
const (
	// FrontierStable searches the stable/unstable boundary.
	FrontierStable = sweep.MetricStable
	// FrontierRecovered searches the recovered/degraded boundary of
	// faulted runs.
	FrontierRecovered = sweep.MetricRecovered
)

// RunFrontier bisects cfg.Axis to each cell-group's verdict-flip point,
// early-stopping replicas by confidence interval. Output is byte-stable
// at any worker count; wire base.Journal to make the search resumable.
func RunFrontier(ctx context.Context, s *SweepSpace, cfg FrontierConfig, base *SweepRunner) (*FrontierReport, error) {
	return sweep.RunFrontier(ctx, s, cfg, base)
}

// WriteFrontierJSONL writes one JSON line per frontier result.
func WriteFrontierJSONL(w io.Writer, rs []FrontierResult) error {
	return sweep.WriteFrontierJSONL(w, rs)
}

// WilsonInterval is the Wilson score interval for k successes in n
// trials at normal quantile z — the binomial CI behind CellStats'
// share bounds and the adaptive search's early stopping.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	return stats.WilsonInterval(k, n, z)
}

// HoeffdingInterval is the distribution-free Hoeffding interval for a
// share of k successes in n trials at confidence 1-alpha.
func HoeffdingInterval(k, n int, alpha float64) (lo, hi float64) {
	return stats.HoeffdingInterval(k, n, alpha)
}

// Fault injection (internal/faults): deterministic typed fault schedules
// — link-down windows, Gilbert–Elliott loss bursts, loss ramps, node
// crashes, lying windows, partitions — compiled onto an engine's
// topology/loss/declaration hooks, plus recovery verdicts.
type (
	// FaultSchedule is a typed list of fault events.
	FaultSchedule = faults.Schedule
	// FaultEvent is one fault with its half-open activity window.
	FaultEvent = faults.Event
	// FaultInjector is a schedule compiled against one engine's graph.
	FaultInjector = faults.Injector
	// ChurnConfig parameterizes the stochastic MTBF/MTTR link-churn
	// generator.
	ChurnConfig = faults.GenConfig
	// RecoveryObserver watches a faulted run and issues the post-fault
	// verdict.
	RecoveryObserver = faults.RecoveryObserver
	// Recovery is the observer's full report.
	Recovery = faults.Recovery
)

// Fault kinds.
const (
	FaultLinkDown  = faults.LinkDown
	FaultBurst     = faults.Burst
	FaultRamp      = faults.Ramp
	FaultCrash     = faults.Crash
	FaultLie       = faults.Lie
	FaultPartition = faults.Partition
)

// ParseFaultSchedule parses the text grammar ("down@100-200:e=3"), JSON,
// or an @file indirection to either.
func ParseFaultSchedule(arg string) (FaultSchedule, error) { return faults.Load(arg) }

// FormatFaultSchedule renders the canonical text form of a schedule.
func FormatFaultSchedule(s FaultSchedule) string { return faults.FormatText(s) }

// InjectFaults compiles the schedule against e's graph and installs it;
// all fault randomness derives from seed.
func InjectFaults(e *Engine, s FaultSchedule, seed uint64) (*FaultInjector, error) {
	return faults.Inject(e, s, rng.New(seed))
}

// GenerateChurn samples a link-churn LinkDown schedule (geometric up/down
// phases of mean MTBF/MTTR steps per edge), deterministic in seed.
func GenerateChurn(cfg ChurnConfig, g *Multigraph, seed uint64) (FaultSchedule, error) {
	return faults.Generate(cfg, g, rng.New(seed))
}

// NewRecoveryObserver returns the observer issuing Recovered/Degraded
// verdicts for runs under s; add it to the engine before running.
func NewRecoveryObserver(s FaultSchedule) *RecoveryObserver { return faults.NewRecoveryObserver(s) }

// Analysis machinery used by the examples.

// MaxFlowSolver computes maximum flows; NewMaxFlowSolver returns the
// paper's push-relabel solver.
type MaxFlowSolver = flow.Solver

func NewMaxFlowSolver() MaxFlowSolver { return flow.NewPushRelabel() }

// GomoryHuTree answers all-pairs min-cut queries.
type GomoryHuTree = flow.GomoryHuTree

// GomoryHu builds the Gomory–Hu tree of g.
func GomoryHu(g *Multigraph) *GomoryHuTree { return flow.GomoryHu(g, flow.NewPushRelabel()) }

// Split is the Section V-C decomposition of a network at an interior
// minimum cut into parts B′ and A′.
type Split = cutsplit.Split

// SplitPart is one side of a Split.
type SplitPart = cutsplit.Part

// InductionCase classifies a feasibility analysis into Theorem 2's
// induction cases 1–3; InductionCaseExact additionally reports whether
// the min-cut enumeration (bounded by limit) was exhaustive.
func InductionCase(a *Analysis) int { return cutsplit.InductionCase(a) }
func InductionCaseExact(a *Analysis, limit int) (kase int, exhaustive bool) {
	return cutsplit.InductionCaseExact(a, limit)
}

// FindInteriorCut searches the analysis' minimum cuts for one crossing
// the interior of G (case 3), returning its source-side mask.
func FindInteriorCut(a *Analysis, limit int) (mask []bool, ok bool) {
	return cutsplit.FindInteriorCut(a, limit)
}

// SplitAt decomposes spec at the given source-side mask, granting A′'s
// border nodes the retention constant retentionB (the proof's R_B).
func SplitAt(spec *Spec, sourceSide []bool, retentionB int64) (*Split, error) {
	return cutsplit.At(spec, sourceSide, retentionB)
}

// Exact Markov-chain analysis (small networks).
type (
	// MarkovChain is the enumerated queue process of a small network.
	MarkovChain = chain.Chain
	// ChainOptions bounds the enumeration.
	ChainOptions = chain.Options
	// IIDArrivals is the per-step arrival distribution of the chain.
	IIDArrivals = chain.IIDArrivals
)

// BuildChain enumerates the reachable queue states of spec under LGG.
func BuildChain(spec *Spec, arrivals IIDArrivals, opts ChainOptions) (*MarkovChain, error) {
	return chain.Build(spec, arrivals, opts)
}

// ExactIID is the deterministic arrival distribution (every source
// injects in(v) per step); ThinnedBinomialIID thins it to Binomial(in(v), p).
func ExactIID(spec *Spec) IIDArrivals                      { return chain.Exact(spec) }
func ThinnedBinomialIID(spec *Spec, p float64) IIDArrivals { return chain.ThinnedBinomial(spec, p) }

// BatchMeansCI estimates a mean with a batch-means confidence interval
// (z-quantile half-width) from a correlated series.
func BatchMeansCI(xs []float64, batches int, z float64) (mean, half float64) {
	return stats.BatchMeansCI(xs, batches, z)
}

// Distributed execution.
type (
	// LossModel decides per-transmission packet loss.
	LossModel = core.LossModel
	// DistributedEngine runs LGG as one goroutine per node, exchanging
	// only neighbourhood messages.
	DistributedEngine = distsim.Engine
	// HashLoss is a stateless Bernoulli loss model, safe for concurrent
	// evaluation and identical across central and distributed engines.
	HashLoss = distsim.HashLoss
)

// NewDistributed builds the message-passing engine; Close it when done.
func NewDistributed(spec *Spec, l LossModel) *DistributedEngine { return distsim.New(spec, l) }
