package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/sweep"
)

// decodeResults parses JSONL sweep results; header skips a journal's
// first line.
func decodeResults(b []byte, header bool) ([]sweep.Result, error) {
	var out []sweep.Result
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 0; sc.Scan(); line++ {
		if header && line == 0 {
			continue
		}
		var r sweep.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("result line %d: %w", line+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// conserved checks one run's packet accounting: every injected packet
// was lost, extracted or is still queued, and the engine rejected no
// router output as unphysical.
func conserved(r sweep.Result) error {
	return checkTotals(fmt.Sprintf("run %d", r.Index), core.Totals{
		Injected: r.Injected, Lost: r.Lost, Extracted: r.Extracted,
		FinalQueued: r.FinalQueued, Violations: r.Violations,
	}, r.Failed)
}

func checkTotals(what string, t core.Totals, failed bool) error {
	switch {
	case failed:
		return fmt.Errorf("%s failed", what)
	case t.Injected-t.Lost-t.Extracted != t.FinalQueued:
		return fmt.Errorf("%s does not conserve packets: injected %d - lost %d - extracted %d != queued %d",
			what, t.Injected, t.Lost, t.Extracted, t.FinalQueued)
	case t.Violations != 0:
		return fmt.Errorf("%s has %d violations", what, t.Violations)
	}
	return nil
}

// corruptCopy returns b with one byte of its last line changed — the
// deliberate defect the benchmark's tests feed to the output checks.
func corruptCopy(b []byte) []byte {
	c := bytes.Clone(b)
	if i := bytes.LastIndex(c, []byte(`"seed":`)); i >= 0 {
		c[i+len(`"seed":`)] ^= 1
	} else if len(c) > 0 {
		c[len(c)-1] ^= 1
	}
	return c
}

// scratchDir makes a fresh directory for one workload's files.
func scratchDir(cfg config, name string) (string, error) {
	base := filepath.Join(cfg.work, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
