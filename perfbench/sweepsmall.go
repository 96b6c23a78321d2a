package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// sweepSmall is the in-process sweep workload: closed batches of the
// stability grid (unsaturated suite × ρ ∈ {0.5, 0.8, 1.0, 1.25}) through
// sweep.Runner with a file journal, as `lggsweep -grid stability
// -journal` runs them. Every batch repeats the same seed-derived grid,
// so every batch journal must equal the reference journal byte for
// byte.
// sweepReplicas makes a batch 16 runs: short enough that one run holds
// the hundred-odd batches job_p90_s needs.
const sweepReplicas = 1

type sweepSmall struct {
	cfg  config
	jobs []sweep.Job
	dir  string
	ref  []byte // reference journal, untimed and untraced
	n    int    // batches run
}

func runSweepSmall(ctx context.Context, cfg config, rep *report) error {
	grid, err := experiments.FindGrid("stability")
	if err != nil {
		return err
	}
	ecfg := experiments.Config{Seed: deriveSeed(cfg.seed, 1), Seeds: sweepReplicas, Horizon: cfg.sweepHorizon}
	w := &sweepSmall{cfg: cfg}
	if err := timeSetup(rep, func() error {
		w.jobs = grid.Jobs(ecfg)
		return nil
	}, nil); err != nil {
		return err
	}
	// The set-up is the grid enumeration itself.
	rep.metrics["experiments.jobs_ms"] = rep.metrics["setup_s"] * 1e3
	if w.dir, err = scratchDir(cfg, "sweep"); err != nil {
		return err
	}
	defer os.RemoveAll(w.dir)

	// Reference batch: warms caches and fixes the expected journal.
	path, err := w.batch(nil, nil)
	if err != nil {
		return err
	}
	if w.ref, err = os.ReadFile(path); err != nil {
		return err
	}
	w.checkResults(rep, w.ref)

	untraced := w.newPass()
	if err := w.loop(ctx, rep, untraced, nil); err != nil {
		return err
	}
	if !cfg.trace {
		untraced.endToEnd(rep)
		return nil
	}
	t := newSweepTrace(cfg, len(w.jobs))
	traced := w.newPass()
	if err := w.loop(ctx, rep, traced, t); err != nil {
		return err
	}
	overhead(rep, untraced, traced)
	t.metrics(rep)
	return nil
}

func (w *sweepSmall) newPass() *pass {
	return &pass{runsPerJob: float64(len(w.jobs)), stepsPerJob: float64(len(w.jobs)) * float64(w.cfg.sweepHorizon)}
}

// loop runs closed batches until the pass's time is up, then checks each
// batch's journal outside the timed region.
func (w *sweepSmall) loop(ctx context.Context, rep *report, p *pass, t *sweepTrace) error {
	p.begin(passSeconds(w.cfg))
	if t != nil {
		t.h0 = sampleHost()
	}
	var paths []string
	for now() < p.to && ctx.Err() == nil {
		path, err := w.batch(p, t)
		if err != nil {
			return err
		}
		paths = append(paths, path)
	}
	if t != nil {
		t.h1 = sampleHost()
	}
	for _, path := range paths {
		rep.attempted++
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if w.cfg.corrupt {
			got = corruptCopy(got)
		}
		if !bytes.Equal(got, w.ref) {
			rep.fail("sweep-small: journal %s differs from the reference journal", filepath.Base(path))
		}
		w.checkResults(rep, got)
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// batch runs the grid once into a fresh journal. Untraced (t == nil) it
// is exactly what lggsweep does; traced, every job is wrapped by a run
// probe and the journal writes through a timing writer.
func (w *sweepSmall) batch(p *pass, t *sweepTrace) (string, error) {
	w.n++
	path := filepath.Join(w.dir, fmt.Sprintf("batch-%d.jsonl", w.n))
	var first time.Duration
	runner := &sweep.Runner{Workers: w.cfg.workers, Progress: func(pr sweep.Progress) {
		if pr.Done == 1 {
			first = now()
		}
	}}
	jobs := w.jobs
	var f *os.File
	var tw *timedWriter
	var ms0, ms1 runtime.MemStats
	if t != nil {
		jobs = t.wrap(w.jobs)
		tw = &timedWriter{writes: make([]interval, 0, len(jobs)+2)}
		runtime.ReadMemStats(&ms0)
	}
	start := now()
	var journal *sweep.Journal
	var err error
	if t == nil {
		journal, err = sweep.CreateJournal(path, len(jobs))
	} else {
		if f, err = os.Create(path); err == nil {
			tw.w = f
			journal, err = sweep.NewJournal(tw, len(jobs))
		}
	}
	if err != nil {
		return "", err
	}
	runner.Journal = journal
	_, runErr := runner.Run(jobs)
	if t != nil {
		s := now()
		err = f.Sync()
		tw.writes = append(tw.writes, interval{s, now()})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else {
		err = journal.Close()
	}
	end := now()
	if t != nil {
		runtime.ReadMemStats(&ms1)
	}
	if runErr != nil {
		return "", runErr
	}
	if err != nil {
		return "", fmt.Errorf("journal: %w", err)
	}
	iv := interval{start, end}
	if p != nil {
		p.add(iv, first)
	}
	if t != nil {
		t.fold(iv, tw, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return path, nil
}

// checkResults checks every result line of a journal: packets are
// conserved and no router output was rejected as unphysical.
func (w *sweepSmall) checkResults(rep *report, journal []byte) {
	rs, err := decodeResults(journal, true)
	if err != nil {
		rep.fail("sweep-small: %v", err)
		return
	}
	if len(rs) != len(w.jobs) {
		rep.fail("sweep-small: journal has %d results, want %d", len(rs), len(w.jobs))
	}
	for _, r := range rs {
		if err := conserved(r); err != nil {
			rep.fail("sweep-small: %v", err)
		}
	}
}

// sweepTrace is the traced pass's per-layer state for sweep-small.
type sweepTrace struct {
	cfg    config
	probes []*runProbe
	rec    recorder
	core   coreStats
	h0, h1 hostStat

	batches            int
	allocs, bytes      uint64
	busyNS, capacityNS int64
	journalMS          []float64
	journalBytes       int64
}

func newSweepTrace(cfg config, jobs int) *sweepTrace {
	t := &sweepTrace{cfg: cfg}
	for i := 0; i < jobs; i++ {
		t.probes = append(t.probes, newRunProbe(cfg.sweepHorizon))
	}
	return t
}

// wrap returns the batch's jobs with every Build timed and every engine
// decorated by its run probe. Built before the batch so the probes'
// own allocations stay outside the measured window.
func (t *sweepTrace) wrap(jobs []sweep.Job) []sweep.Job {
	out := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		p := t.probes[i]
		p.reset()
		build := j.Build
		j.Build = func(seed uint64) *core.Engine {
			p.buildStart = now()
			e := build(seed)
			p.attach(e)
			p.buildEnd = now()
			return e
		}
		j.Options.Observers = append(append([]core.StepObserver(nil), j.Options.Observers...), p.loopObserver())
		out[i] = j
	}
	return out
}

func (t *sweepTrace) fold(batch interval, tw *timedWriter, mallocs, bytes uint64) {
	t.batches++
	trace := fmt.Sprintf("batch-%d", t.batches)
	root := t.rec.add(span{Trace: trace, Name: "sweep.batch", Layer: "sweep", Start: int64(batch.start), End: int64(batch.end)})
	for i, p := range t.probes {
		run := fmt.Sprintf("%s/run-%d", trace, i)
		t.rec.add(span{Parent: root, Trace: run, Name: "experiments.build", Layer: "experiments",
			Start: int64(p.buildStart), End: int64(p.buildEnd)})
		t.rec.add(p.runSpan(root, run))
		t.core.fold(p)
		t.busyNS += int64(p.lastLoop - p.buildStart)
	}
	var journalNS int64
	for _, wr := range tw.writes {
		t.rec.add(span{Parent: root, Trace: trace, Name: "sweep.journal.write", Layer: "sweep",
			Start: int64(wr.start), End: int64(wr.end)})
		journalNS += int64(wr.end - wr.start)
	}
	t.journalMS = append(t.journalMS, float64(journalNS)/1e6)
	t.journalBytes = tw.n
	t.capacityNS += int64(batch.end-batch.start) * int64(min(t.cfg.workers, len(t.probes)))
	t.allocs += mallocs
	t.bytes += bytes
}

func (t *sweepTrace) metrics(rep *report) {
	m := rep.metrics
	t.core.metrics(m)
	m["core.allocs_per_step"] = safeDiv(float64(t.allocs), float64(t.core.steps))
	m["core.bytes_per_step"] = safeDiv(float64(t.bytes), float64(t.core.steps))
	m["sweep.worker_busy_share"] = safeDiv(float64(t.busyNS), float64(t.capacityNS))
	m["sweep.journal_write_ms"] = median(t.journalMS)
	m["sweep.journal_bytes"] = float64(t.journalBytes)
	m["runtime.gc_cpu_share"] = gcShare(t.h0, t.h1)
	rep.spans = t.rec.spans
	rep.notef("traced batches: %d, steps: %d", t.batches, t.core.steps)
}

// timedWriter times every write the journal makes and counts its bytes.
type timedWriter struct {
	w      *os.File
	writes []interval
	n      int64
}

func (t *timedWriter) Write(b []byte) (int, error) {
	s := now()
	n, err := t.w.Write(b)
	if len(t.writes) < cap(t.writes) {
		t.writes = append(t.writes, interval{s, now()})
	}
	t.n += int64(n)
	return n, err
}
