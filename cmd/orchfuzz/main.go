// Command orchfuzz runs the differential conformance fuzzer: it
// generates random mini-Fortran programs, compiles each one, and runs
// it through the reference interpreter, the lowered sequential
// baseline, and then a table of backend configurations — the rows of
// the rung named by -rung — diffing final memory bitwise and checking
// the simulator's dispatch order against the dataflow graph. Any
// disagreement is a bug in the compiler, the lowering, or an
// orchestration backend.
//
// Usage:
//
//	orchfuzz -seed 1 -count 1000          # base-rung campaign over seeds 1..1000
//	orchfuzz -seed 14 -v                  # one seed, print the program
//	orchfuzz -rung faults -count 200      # campaign on another rung
//	orchfuzz -fault crash:1@0 -count 200  # faults rung under one exact plan
//	orchfuzz -rung dist -minimize 14 -out repro.f  # shrink seed 14's divergence on that rung
//	orchfuzz -seed 14 -trace-dir traces   # export diverging schedules
//
// The rungs (internal/fuzz.Rows lists each one's rows; DESIGN.md,
// "Differential testing", has the table):
//
//	base    simulator and native runtime × processor counts × modes
//	dist    base plus forked worker processes (this binary, re-executed)
//	faults  both backends under a seed-derived survivable fault plan, or
//	        under the exact plan -fault gives: faults may cost time,
//	        never values
//	search  the profile-searched graph (internal/search) in place of the
//	        lowered one: the search may only change the schedule
//	nested  random recursive dataflow graphs instead of mini-Fortran,
//	        each against its statically unrolled (internal/compile) twin
//
// Every diverging row is re-executed once with event tracing; with
// -trace-dir its schedule is written as a Chrome trace-event file
// (seed<N>-<config>.json) into the directory, for inspection in
// Perfetto alongside the divergence report.
//
// The exit status is 1 when any checked program diverged (or, with
// -minimize, when there was nothing to minimize) and 2 on a usage
// error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/cliflag"
	"orchestra/internal/dist"
	"orchestra/internal/fuzz"
	"orchestra/internal/obs"
	"orchestra/internal/source"
)

func main() {
	// The dist rung's coordinator forks this binary as its workers;
	// divert those forks before touching flags.
	dist.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive
// the full flag-to-execution path and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orchfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "first generator seed")
	count := fs.Int("count", 1, "number of programs to check")
	verbose := fs.Bool("v", false, "print each program and verdict")
	rung := fs.String("rung", fuzz.Base, "oracle rung to check on: "+strings.Join(fuzz.Rungs, ", "))
	fixedFault := cliflag.Fault(fs, "fault", "check on the faults rung under this exact plan (internal/fault syntax) instead of random ones")
	minimize := fs.Uint64("minimize", 0, "minimize the divergence this seed shows on the rung and exit")
	out := fs.String("out", "", "write the minimized reproducer here instead of stdout")
	traceDir := fs.String("trace-dir", "", "write Chrome traces of diverging configurations into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(fuzz.Rungs, *rung) {
		fmt.Fprintf(stderr, "orchfuzz: unknown rung %q (have %s)\n", *rung, strings.Join(fuzz.Rungs, ", "))
		return 2
	}
	if fixedFault.Plan() != nil {
		if *rung != fuzz.Base && *rung != fuzz.Faults {
			fmt.Fprintf(stderr, "orchfuzz: -fault selects the faults rung, not %s\n", *rung)
			return 2
		}
		*rung = fuzz.Faults
	}
	if *minimize != 0 && *rung == fuzz.Nested {
		fmt.Fprintln(stderr, "orchfuzz: -minimize shrinks program text; a nested case is its seed")
		return 2
	}
	cfg := fuzz.DefaultGenConfig()

	if *minimize != 0 {
		rep, c := fuzz.CheckSeed(*minimize, cfg, *rung, fixedFault.Plan())
		return runMinimize(rep, c, *rung, *out, *traceDir, stdout, stderr)
	}

	skips := 0
	failed := 0
	kindTotals := map[string]int{}
	for s := *seed; s < *seed+uint64(*count); s++ {
		rep, c := fuzz.CheckSeed(s, cfg, *rung, fixedFault.Plan())
		label := ""
		if c.Plan != nil {
			label = " under " + c.Plan.String()
		}
		for k, n := range rep.Kinds {
			kindTotals[k] += n
		}
		switch {
		case rep.Skip != "":
			skips++
			if *verbose {
				fmt.Fprintf(stdout, "seed %d: skip: %s\n", s, rep.Skip)
			}
		case rep.Failed():
			failed++
			fmt.Fprintf(stdout, "seed %d%s: %s", s, label, rep)
			fmt.Fprintf(stdout, "--- program (seed %d) ---\n%s---\n", s, c)
			writeTraces(*traceDir, s, rep, stdout, stderr)
		case *verbose:
			fmt.Fprintf(stdout, "seed %d%s: ok\n%s", s, label, c)
		}
	}
	fmt.Fprintf(stdout, "%d programs: %d checked, %d skipped, %d diverged\n",
		*count, *count-skips, skips, failed)
	var kinds []string
	for k := range kindTotals {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "  kernels %-10s %d\n", k, kindTotals[k])
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeTraces exports each diverging configuration's captured schedule
// as a Chrome trace-event file under dir, if one was named.
func writeTraces(dir string, seed uint64, rep *fuzz.Report, stdout, stderr io.Writer) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "orchfuzz:", err)
		return
	}
	seen := map[string]bool{}
	for _, d := range rep.Divs {
		if d.Trace == nil || seen[d.Config] {
			continue
		}
		seen[d.Config] = true
		path := filepath.Join(dir, fmt.Sprintf("seed%d-%s.json", seed,
			strings.NewReplacer("/", "_", "=", "").Replace(d.Config)))
		var buf bytes.Buffer
		err := obs.WriteChromeTrace(&buf, d.Trace)
		if err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "orchfuzz:", err)
			continue
		}
		fmt.Fprintf(stdout, "wrote trace %s\n", path)
	}
}

// runMinimize shrinks a case that diverged on the named rung, keeping
// any divergence on that rung alive (not necessarily the original one:
// a smaller program that trips a different row or layer is still a
// reproducer).
func runMinimize(rep *fuzz.Report, c *fuzz.Case, rung, out, traceDir string, stdout, stderr io.Writer) int {
	if rep.Skip != "" {
		fmt.Fprintf(stderr, "seed %d was skipped (%s); nothing to minimize\n", c.Seed, rep.Skip)
		return 1
	}
	if !rep.Failed() {
		fmt.Fprintf(stderr, "seed %d does not diverge on rung %s; nothing to minimize\n", c.Seed, rung)
		return 1
	}
	fmt.Fprintf(stderr, "seed %d: %s", c.Seed, rep)
	recheck := func(p *source.Program) *fuzz.Report {
		return fuzz.Check(&fuzz.Case{Seed: c.Seed, Prog: p, Plan: c.Plan}, rung)
	}
	min := fuzz.Minimize(c.Prog, func(p *source.Program) bool { return recheck(p).Failed() })
	final := recheck(min)
	writeTraces(traceDir, c.Seed, final, stdout, stderr)
	text := source.Format(min)
	fmt.Fprintf(stderr, "minimized to %d bytes; still: %s", len(text), final)
	if out != "" {
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", out)
		return 0
	}
	fmt.Fprint(stdout, text)
	return 0
}
