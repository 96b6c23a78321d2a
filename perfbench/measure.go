package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not
// modified. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailNote states a timing's sample count and the highest percentile
// that still has at least ten samples beyond it, as the report rule asks.
func tailNote(xs []float64) string {
	n := len(xs)
	if n < 11 {
		return fmt.Sprintf("n=%d (no percentile has 10 samples beyond it)", n)
	}
	q := 1 - 10/float64(n)
	return fmt.Sprintf("n=%d p50=%.6g p%.1f=%.6g (10 samples beyond)", n, median(xs), 100*q, quantile(xs, q))
}

// interval is one timed unit of work on the benchmark clock.
type interval struct{ start, end time.Duration }

// windowRate is the throughput rule for every workload: split [from,
// to) into windows, credit each job's work to the windows its interval
// overlaps in proportion to the overlap, and report the median of the
// per-window rates. A steal burst then moves one window, not the
// result; a job straddling a window edge is split, not rounded.
func windowRate(jobs []interval, from, to time.Duration, windows int) float64 {
	if windows < 1 || to <= from {
		return 0
	}
	w := (to - from) / time.Duration(windows)
	rates := make([]float64, windows)
	for i := range rates {
		ws, we := from+time.Duration(i)*w, from+time.Duration(i+1)*w
		var credit float64
		for _, j := range jobs {
			d := j.end - j.start
			if d <= 0 {
				continue
			}
			lo, hi := max(ws, j.start), min(we, j.end)
			if hi > lo {
				credit += float64(hi-lo) / float64(d)
			}
		}
		rates[i] = credit / w.Seconds()
	}
	return median(rates)
}

// hostStat samples the host counters a report needs to be interpreted:
// steal time from /proc/stat and the runtime's GC CPU accounting.
type hostStat struct {
	steal, total    uint64 // jiffies
	gcCPU, totalCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleHost() hostStat {
	var h hostStat
	h.steal, h.total = procStatCPU()
	s := slices.Clone(cpuMetrics)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.totalCPU = s[1].Value.Float64()
	}
	return h
}

// stealShare is the share of all host CPU jiffies stolen by the
// hypervisor between a and b (0 where /proc/stat is unavailable).
func stealShare(a, b hostStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// gcShare is the runtime's GC CPU time as a share of its total CPU time
// between a and b.
func gcShare(a, b hostStat) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// procStatCPU reads the aggregate "cpu" line of /proc/stat and returns
// the steal column and the sum of all columns.
func procStatCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// logHist is a log-bucketed histogram of positive durations (ns) with
// 1% bucket width, for percentiles over millions of samples without
// keeping them.
type logHist struct {
	counts map[int]int64
	n      int64
}

const histBase = 1.01

func (h *logHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	h.counts[int(math.Log(float64(ns))/math.Log(histBase))]++
	h.n++
}

// quantile returns the q-quantile in ns, at bucket resolution.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= rank {
			// bucket midpoint
			return math.Pow(histBase, float64(k)+0.5)
		}
	}
	return math.Pow(histBase, float64(keys[len(keys)-1])+0.5)
}
