package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// toyConfig shrinks every workload to a fraction of a second.
func toyConfig(t *testing.T, workload string, trace bool) config {
	cfg := productionConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 3, 0.4, trace
	cfg.work = t.TempDir()
	cfg.sweepHorizon = 200
	cfg.jobSeeds, cfg.jobHorizon = 1, 200
	return cfg
}

// runToy executes one toy invocation and decodes its result line.
func runToy(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := execute(context.Background(), cfg, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result (%v):\n%s\nstderr: %s", cfg.workload, err, out.String(), errb.String())
	}
	return code, res, out.String()
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// Metrics each workload exercises, so must be non-zero when traced.
	exercised := map[string][]string{
		"sweep-small": {"core.step_us.p50", "core.plan_share", "sim.run_ms.p50", "experiments.jobs_ms",
			"experiments.build_us.p50", "sweep.worker_busy_share", "sweep.journal_bytes"},
		"daemon": {"server.submit_ms.p50", "server.stream_ms.p50", "server.requests_per_job"},
		"fleet": {"server.status_polls_per_job", "federation.range_launches_per_job",
			"federation.useful_range_share", "federation.range_rtt_ms.p50"},
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := toyConfig(t, name, trace)
			code, res, out := runToy(t, cfg)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", name, trace, code, res, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				for _, n := range exercised[name] {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
			if !strings.Contains(out, "nproc=") || !strings.Contains(out, "host.steal_share=") {
				t.Errorf("%s: report lacks the host context:\n%s", name, out)
			}
		}
	}
}

func TestCorruptedOutputFailsTheCheck(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := toyConfig(t, name, false)
		cfg.corrupt = true
		code, res, out := runToy(t, cfg)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted output passed: exit %d, result %+v\n%s", name, code, res, out)
		}
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	cfg := toyConfig(t, "sweep-small", true)
	if code, _, out := runToy(t, cfg); code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	dir := cfg.work + "/reports/sweep-small-seed3-trace1/"
	spans, err := os.ReadFile(dir + "spans.jsonl")
	if err != nil || !bytes.Contains(spans, []byte(`"name":"sim.run"`)) {
		t.Fatalf("spans.jsonl: %v\n%.300s", err, spans)
	}
	var summary struct {
		SelfTime []layerSelf `json:"self_time"`
	}
	b, err := os.ReadFile(dir + "selftime.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &summary); err != nil {
		t.Fatal(err)
	}
	var layers []string
	for _, row := range summary.SelfTime {
		layers = append(layers, row.Layer)
	}
	slices.Sort(layers)
	if want := []string{"core", "experiments", "sim", "sweep"}; !slices.Equal(layers, want) {
		t.Errorf("self-time layers %v, want %v", layers, want)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "daemon", "--seed", "1", "--seconds", "1", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the metric tables of
// this program and predictions.json in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)

	var pred struct {
		Workloads map[string]string
		Rows      []struct {
			ID, Metric string
			Also       []string
			Moves      []string
			On         []string
		}
	}
	b, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &pred); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if pred.Workloads[n] == "" {
			t.Errorf("predictions.json does not describe workload %s", n)
		}
	}
	covered := map[string]bool{}
	for _, r := range pred.Rows {
		for _, m := range append([]string{r.Metric}, r.Also...) {
			covered[m] = true
		}
		for _, m := range r.Moves {
			if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == m }) {
				t.Errorf("row %s moves unknown end-to-end metric %s", r.ID, m)
			}
		}
		for _, w := range r.On {
			if !slices.Contains(names, w) {
				t.Errorf("row %s names unknown workload %s", r.ID, w)
			}
		}
	}
	for _, d := range perLayer {
		if !covered[d.name] {
			t.Errorf("per-layer metric %s has no prediction row", d.name)
		}
	}
}

func TestWindowRateSplitsJobsAcrossWindows(t *testing.T) {
	s := time.Second
	// One job per second, offset by half a second: every 1 s window gets
	// half of two jobs.
	var jobs []interval
	for i := 0; i < 10; i++ {
		jobs = append(jobs, interval{time.Duration(i)*s + s/2, time.Duration(i+1)*s + s/2})
	}
	if got := windowRate(jobs, s, 10*s, 9); got < 0.999 || got > 1.001 {
		t.Errorf("windowRate = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "server", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "server", Start: 40, End: 80, Inner: map[string]int64{"core": 15}},
	}
	got := map[string]float64{}
	for _, row := range selfTimes(spans) {
		got[row.Layer] = row.SelfMS * 1e6
	}
	// bench: 100 - |[10,80)| = 30; server: 50 + (40-15) = 75; core: 15.
	want := map[string]float64{"bench": 30, "server": 75, "core": 15}
	for k, v := range want {
		if d := got[k] - v; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s self = %v ns, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	var h logHist
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 1000)
	}
	if got := h.quantile(0.5); got < 490e3 || got > 510e3 {
		t.Errorf("histogram median = %v, want about 500e3", got)
	}
}
