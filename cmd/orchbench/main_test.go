package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-exp", "table1", "-n", "400"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, errw.String())
	}
	if got := strings.Count(out.String(), "\nTAPER"); got != 3 {
		t.Errorf("table1 printed %d TAPER rows, want 3:\n%s", got, out.String())
	}
}

func TestRunAllPrintsEverySection(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-exp", "all", "-n", "256"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, errw.String())
	}
	for _, banner := range []string{
		"=== Figure 6:", "=== Table 1:", "=== Table 2:",
		"=== Loop schedulers", "=== Ablations ===",
	} {
		if !strings.Contains(out.String(), banner) {
			t.Errorf("-exp all output lacks the %q section", banner)
		}
	}
}

// The wall-clock sweeps and their flags are gone (bench/ measures wall
// clock), and so is the K-timestep unroll; asking for one is a usage
// error, not a silent no-op.
func TestRunRejectsUnknownExperimentsAndFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "native"},
		{"-exp", "nope"},
		{"-exp", "iterated"},
		{"-modes", "all"},
	} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
		if errw.Len() == 0 {
			t.Errorf("%v: nothing on stderr", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

const expAllGolden = "testdata/exp_all.golden"

// TestExpAllGolden pins every table orchbench prints at its default
// sizes and seed, byte for byte: the simulator is deterministic, so a
// moved cell is a changed schedule or cost rule, and this file's diff
// lists it. Regenerate with `go test ./cmd/orchbench -run
// ExpAllGolden -update` only after an intentional change.
func TestExpAllGolden(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-exp", "all"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, errw.String())
	}
	if *update {
		if err := os.WriteFile(expAllGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expAllGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("orchbench -exp all moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
