package fuzz

import (
	"testing"

	"orchestra/internal/compile"
	"orchestra/internal/interp"
	"orchestra/internal/source"
)

// campaigns is the smoke table, keyed by test name: a small slice of
// each rung's campaign — generator programs (under generator plans, on
// the faults rung), the exact path `orchfuzz -rung R` takes — on every
// `go test`. The full campaigns live in cmd/orchfuzz and the CI fuzz
// jobs; this keeps a canary in the ordinary test run without making it
// slow.
var campaigns = map[string]struct {
	rung  string
	seeds uint64
	short uint64 // seeds under -short; 0 skips
}{
	"TestCampaignSmoke":      {rung: Base, seeds: 25},
	"TestFaultCampaignShort": {rung: Faults, seeds: 12, short: 4},
}

func campaignSmoke(t *testing.T) {
	row := campaigns[t.Name()]
	n := row.seeds
	if testing.Short() {
		if n = row.short; n == 0 {
			t.Skip("campaign smoke is not short")
		}
	}
	for seed := uint64(1); seed <= n; seed++ {
		rep, c := CheckSeed(seed, DefaultGenConfig(), row.rung, nil)
		if rep.Failed() {
			t.Fatalf("seed %d diverged on rung %s:\n%s\nprogram:\n%s", seed, row.rung, rep, c)
		}
	}
}

func TestCampaignSmoke(t *testing.T)      { campaignSmoke(t) }
func TestFaultCampaignShort(t *testing.T) { campaignSmoke(t) }

// FuzzPipeline drives the full differential ladder — reference
// interpreter, compiled-program interpreter, lowered sequential run,
// and the whole simulator/native backend matrix — from a single seed.
// The seed determines both the generated program and its initial
// memory image, so every crasher is replayable with
// `orchfuzz -seed N` and minimizable with `orchfuzz -minimize N`.
func FuzzPipeline(f *testing.F) {
	// Seeds whose generated programs historically exercised real bugs
	// (see testdata/fuzz-corpus), plus a spread of ordinary ones.
	for _, seed := range []uint64{1, 2, 3, 7, 14, 18, 42, 100} {
		f.Add(seed)
	}
	cfg := DefaultGenConfig()
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep, c := CheckSeed(seed, cfg, Base, nil)
		if rep.Failed() {
			t.Fatalf("seed %d diverged:\n%s\nprogram:\n%s", seed, rep, c)
		}
	})
}

// FuzzSplitEquivalence checks only the source-to-source layer: the
// compiled (decomposed/split/pipelined) program must compute the same
// observable state as the original under the reference interpreter.
// It is much cheaper per execution than FuzzPipeline, so it explores
// far more programs per second, and it isolates the transformation
// pipeline from scheduling: a failure here is a compile bug by
// construction, never a runtime one.
func FuzzSplitEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 14, 18, 42, 100} {
		f.Add(seed)
	}
	cfg := DefaultGenConfig()
	f.Fuzz(func(t *testing.T, seed uint64) {
		prog := NewGen(seed, cfg).Program()
		img, err := buildImage(prog, seed)
		if err != nil {
			t.Skip(err)
		}
		arrays, scalars := observed(prog)

		refSt, err := img.state(prog)
		if err != nil {
			t.Skip(err)
		}
		if err := interp.Run(source.CloneProgram(prog), refSt); err != nil {
			t.Skip(err)
		}

		out, err := compile.Compile(source.CloneProgram(prog), compile.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: compile: %v\nprogram:\n%s", seed, err, source.Format(prog))
		}
		transSt, err := img.state(out.Program)
		if err != nil {
			t.Skip(err)
		}
		if err := interp.Run(out.Program, transSt); err != nil {
			t.Fatalf("seed %d: transformed program faulted: %v\nprogram:\n%s", seed, err, source.Format(prog))
		}
		if d := diffFinal(interpFinal{refSt}, interpFinal{transSt}, arrays, scalars, false); d != "" {
			t.Fatalf("seed %d: transformed program diverged: %s\nprogram:\n%s", seed, d, source.Format(prog))
		}
	})
}
