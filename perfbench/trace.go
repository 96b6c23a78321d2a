package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// clockBase anchors the benchmark clock; now() is monotonic.
var clockBase = time.Now()

func now() time.Duration { return time.Since(clockBase) }

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public API. Spans of one run or job share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Inner is busy time of finer layers inside this span kept as a sum
	// rather than as spans — one span per engine step would be millions
	// per run. Keyed by layer, in ns.
	Inner map[string]int64 `json:"inner_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id (ids start at 1; 0 = no parent).
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// layerSelf is one row of the self-time summary.
type layerSelf struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes attributes every span's self time — its duration minus the
// part its child spans cover, minus its Inner sums — to its layer, and
// each Inner sum to the layer it names. Shares are of the total self
// time, which exceeds wall time where layers run in parallel.
func selfTimes(spans []span) []layerSelf {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		own := s.End - s.Start - covered(s, children[s.ID])
		for layer, ns := range s.Inner {
			own -= ns
			self[layer] += ns
		}
		self[s.Layer] += own
	}
	var total int64
	for _, ns := range self {
		total += ns
	}
	out := make([]layerSelf, 0, len(self))
	for layer, ns := range self {
		out = append(out, layerSelf{Layer: layer, SelfMS: float64(ns) / 1e6, Share: safeDiv(float64(ns), float64(total))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes spans.jsonl and selftime.json into dir.
func writeTrace(dir string, spans []span, summary any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "selftime.json"), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write self-time summary: %w", err)
	}
	return nil
}
