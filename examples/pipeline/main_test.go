package main

import (
	"fmt"
	"strings"
	"testing"
)

// The example's claim is an ordering; hold it on the lines it prints.
func TestRunPrintsPipelinedBelowPlainBelowBarriered(t *testing.T) {
	var out, errw strings.Builder
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, errw.String())
	}
	makespan := func(label string) float64 {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), label); ok {
				var m float64
				if _, err := fmt.Sscanf(rest, " makespan %f", &m); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				return m
			}
		}
		t.Fatalf("no %q line in:\n%s", label, out.String())
		return 0
	}
	piped, plain, barrier := makespan("pipelined edge"), makespan("plain edge"), makespan("barriered TAPER")
	if !(piped < plain && plain < barrier) {
		t.Errorf("want pipelined < plain < barriered, got %v, %v, %v", piped, plain, barrier)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-p", "0"}, {"-m", "32"}} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
		if errw.Len() == 0 || out.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, out.String(), errw.String())
		}
	}
}
