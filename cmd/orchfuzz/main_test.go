package main

import (
	"os"
	"strings"
	"testing"

	"orchestra/internal/dist"
	"orchestra/internal/fuzz"
)

// TestMain routes dist worker forks: the dist rung re-executes this
// test binary as its worker processes.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

func TestRungCampaigns(t *testing.T) {
	for _, rung := range fuzz.Rungs {
		t.Run(rung, func(t *testing.T) {
			if rung == fuzz.Dist && testing.Short() {
				t.Skip("forks worker processes per configuration")
			}
			var out, errw strings.Builder
			if code := run([]string{"-rung", rung, "-seed", "1", "-count", "3"}, &out, &errw); code != 0 {
				t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), "3 programs: 3 checked, 0 skipped, 0 diverged\n  kernels ") {
				t.Errorf("stdout %q should end in the campaign summary", out.String())
			}
		})
	}
}

func TestFixedFaultSelectsFaultsRung(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-fault", "crash:1@0", "-seed", "1", "-count", "2", "-v"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errw.String())
	}
	for _, want := range []string{"seed 1 under crash:1@0: ok", "seed 2 under crash:1@0: ok", "2 programs: 2 checked, 0 skipped, 0 diverged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout should contain %q:\n%s", want, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-rung", "nope"}, `unknown rung "nope" (have base, dist, faults, nested)`},
		{[]string{"-rung", "search"}, `unknown rung "search" (have base, dist, faults, nested)`},
		{[]string{"-rung", "nested", "-minimize", "3"}, "-minimize shrinks program text"},
		{[]string{"-rung", "dist", "-fault", "crash:1@0"}, "-fault selects the faults rung"},
		{[]string{"-fault", "explode:3"}, "explode"},
		{[]string{"-faults"}, "flag provided but not defined"},
	} {
		var out, errw strings.Builder
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", tc.args, code)
		}
		if !strings.Contains(errw.String(), tc.want) {
			t.Errorf("%v: stderr %q should contain %q", tc.args, errw.String(), tc.want)
		}
	}
}

func TestMinimizeCleanSeed(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-rung", "faults", "-minimize", "1"}, &out, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if want := "seed 1 does not diverge on rung faults"; !strings.Contains(errw.String(), want) {
		t.Errorf("stderr %q should contain %q", errw.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("stdout %q should be empty", out.String())
	}
}
