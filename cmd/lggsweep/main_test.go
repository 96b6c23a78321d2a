package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/sweep"
)

// gatedUnitGrid serves one synthetic grid, "unit": seeds runs of LGG on
// line(5), each held in Build until gate is closed.
func gatedUnitGrid(gate <-chan struct{}) server.GridResolver {
	ng := experiments.NamedGrid{
		Name: "unit",
		Desc: "synthetic test grid",
		Jobs: func(cfg experiments.Config) []sweep.Job {
			spec := core.NewSpec(graph.Line(5)).SetSource(0, 1).SetSink(4, 1)
			jobs, err := (&sweep.Space{
				Name: "unit", BaseSeed: cfg.Seed, Replicas: cfg.Seeds, Horizon: cfg.Horizon,
				Axes: []sweep.Axis{
					{Name: "network", Labels: []string{"line(5)"}},
					{Name: "router", Labels: []string{"lgg"}},
					{Name: "variant", Labels: []string{""}},
				},
				SeedFn: func(sweep.Point, int) uint64 { return cfg.Seed },
				Build: func(sweep.Probe) *core.Engine {
					<-gate
					return core.NewEngine(spec, core.NewLGG())
				},
			}).Jobs()
			if err != nil {
				panic(err)
			}
			return jobs
		},
	}
	return func(name string) (experiments.NamedGrid, error) {
		if name == "unit" {
			return ng, nil
		}
		return experiments.NamedGrid{}, fmt.Errorf("unknown grid %q", name)
	}
}

// TestRunRemoteRidesOutDrain drains the daemon while -remote follows a
// running job: the job finishes within the drain's grace and runRemote
// returns every run, as it would without the drain.
func TestRunRemoteRidesOutDrain(t *testing.T) {
	gate := make(chan struct{})
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Jobs: 1, SweepWorkers: 2, FindGrid: gatedUnitGrid(gate)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type outcome struct {
		rs  []sweep.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := runRemote(ts.URL, remoteSpec("unit", 1, 4, 200, false, "", 0, ""), true)
		done <- outcome{rs, err}
	}()
	for {
		jobs := srv.Jobs()
		if len(jobs) == 1 && jobs[0].Status == server.StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case o := <-done:
		t.Fatalf("runRemote returned while its job ran in the drain's grace: %d results, err %v", len(o.rs), o.err)
	case <-time.After(200 * time.Millisecond):
	}
	close(gate)

	o := <-done
	if o.err != nil {
		t.Fatalf("runRemote: %v", o.err)
	}
	if len(o.rs) != 4 {
		t.Fatalf("runRemote returned %d results, want 4", len(o.rs))
	}
	for i, r := range o.rs {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRunRemoteRereadsCutStreamOfDoneJob: a results stream cut before
// its tail (the daemon's first answer is an empty body, sent once the
// job is done) is read once more instead of returning a short sweep.
func TestRunRemoteRereadsCutStreamOfDoneJob(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Jobs: 1, SweepWorkers: 2, FindGrid: gatedUnitGrid(gate)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	h := srv.Handler()
	var cut atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if path.Base(r.URL.Path) == "results" && cut.CompareAndSwap(false, true) {
			id := path.Base(path.Dir(r.URL.Path))
			for st, _ := srv.Job(id); st.Status != server.StatusDone; st, _ = srv.Job(id) {
				time.Sleep(time.Millisecond)
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rs, err := runRemote(ts.URL, remoteSpec("unit", 1, 4, 200, false, "", 0, ""), true)
	if err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	if !cut.Load() {
		t.Fatal("no results stream was cut")
	}
	if len(rs) != 4 {
		t.Fatalf("runRemote returned %d results, want 4", len(rs))
	}
}
