package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
)

// writeInstance materializes paper instance 1 in METIS format.
func writeInstance(t *testing.T, dir string) string {
	t.Helper()
	inst, err := gen.PaperInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "e1.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteMETIS(f, inst.G); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// gpConfig is the constrained-GP baseline most tests start from.
func gpConfig(gpath string) config {
	return config{graphPath: gpath, format: "metis", k: 4, bmax: 16, rmax: 165,
		algo: "gp", seed: 1, cycles: 16, quiet: true}
}

func TestRunGPEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gpath := writeInstance(t, dir)
	cfg := gpConfig(gpath)
	cfg.outPath = filepath.Join(dir, "e1.part")
	cfg.dotPath = filepath.Join(dir, "e1.dot")
	cfg.svgPath = filepath.Join(dir, "e1.svg")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.outPath, cfg.dotPath, cfg.svgPath} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Fatalf("artifact %s missing or empty: %v", p, err)
		}
	}
	// Evaluate the partition we just wrote.
	eval := gpConfig(gpath)
	eval.evalPath = cfg.outPath
	if err := run(eval); err != nil {
		t.Fatalf("eval mode: %v", err)
	}
}

func TestRunGPWithTimeoutBestEffort(t *testing.T) {
	dir := t.TempDir()
	cfg := gpConfig(writeInstance(t, dir))
	cfg.timeout = time.Nanosecond // expired before GP starts: best-effort partition
	// The partition is still reported, but the expiry surfaces as a typed
	// error so main can exit with the distinct timeout code.
	err := run(cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run with expired timeout = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunBaseline(t *testing.T) {
	dir := t.TempDir()
	cfg := gpConfig(writeInstance(t, dir))
	cfg.algo, cfg.bmax, cfg.rmax = "baseline", 0, 0
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	gpath := writeInstance(t, dir)
	cfg := gpConfig("")
	if err := run(cfg); err == nil {
		t.Fatal("missing -graph accepted")
	}
	cfg = gpConfig(gpath)
	cfg.format = "nope"
	if err := run(cfg); err == nil {
		t.Fatal("bad format accepted")
	}
	cfg = gpConfig(gpath)
	cfg.algo = "nope"
	if err := run(cfg); err == nil {
		t.Fatal("bad algorithm accepted")
	}
	if err := run(gpConfig(filepath.Join(dir, "absent"))); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestPartitionFileParsing drives -eval through the shared partition
// reader (graph.ReadPartition, whose format cases graph's own tests
// cover): a valid file evaluates, a bad or absent one fails the run.
func TestPartitionFileParsing(t *testing.T) {
	dir := t.TempDir()
	gpath := writeInstance(t, dir)
	parts := make([]int, 12) // paper instance 1 has 12 processes
	for u := range parts {
		parts[u] = u % 4
	}
	var good strings.Builder
	if err := graph.WritePartition(&good, parts); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		content string
		ok      bool
	}{
		"good":      {"# comment\n" + good.String(), true},
		"malformed": {"x y\n", false},
		"missing":   {"0 0\n", false},
	} {
		p := filepath.Join(dir, name+".part")
		if err := os.WriteFile(p, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := gpConfig(gpath)
		cfg.evalPath = p
		if err := run(cfg); (err == nil) != tc.ok {
			t.Errorf("case %s: run error %v, want ok=%v", name, err, tc.ok)
		}
	}
	cfg := gpConfig(gpath)
	cfg.evalPath = filepath.Join(dir, "absent")
	if err := run(cfg); err == nil {
		t.Error("absent file accepted")
	}
}

func TestRunStatsMode(t *testing.T) {
	dir := t.TempDir()
	cfg := gpConfig(writeInstance(t, dir))
	cfg.stats = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}
