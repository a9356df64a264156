package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/dist"
	"orchestra/internal/fault"
	"orchestra/internal/source"
)

// TestMain routes dist worker forks: the dist rung re-executes this
// test binary as its worker processes.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

var (
	corpusSeedRe  = regexp.MustCompile(`!\s*seed:\s*(\d+)`)
	corpusFaultRe = regexp.MustCompile(`!\s*fault:\s*(\S+)`)
)

// corpusCases loads one corpus directory under testdata. A *.f file is
// a program the oracle once flagged — minimized while the divergence
// still reproduced — under a header comment recording the bug, the
// generator seed ('! seed: N' fixes the initial memory image) and, in
// the fault corpus, the plan that provoked it ('! fault: spec', in
// fault.Parse syntax). A seeds.txt pins nested-rung programs, which
// their seed determines fully: one seed per line, '#' starts a comment.
func corpusCases(t *testing.T, dir string) map[string]*Case {
	t.Helper()
	cases := map[string]*Case{}
	files, err := filepath.Glob(filepath.Join("testdata", dir, "*.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m := corpusSeedRe.FindSubmatch(text)
		if m == nil {
			t.Fatalf("%s: no '! seed: N' header", f)
		}
		c := &Case{}
		if c.Seed, err = strconv.ParseUint(string(m[1]), 10, 64); err != nil {
			t.Fatalf("%s: bad seed: %v", f, err)
		}
		if m := corpusFaultRe.FindSubmatch(text); m != nil {
			if c.Plan, err = fault.Parse(string(m[1])); err != nil {
				t.Fatalf("%s: bad fault spec: %v", f, err)
			}
		}
		if c.Prog, err = source.Parse(string(text)); err != nil {
			t.Fatalf("%s: parse: %v", f, err)
		}
		cases[filepath.Base(f)] = c
	}
	seeds, err := os.ReadFile(filepath.Join("testdata", dir, "seeds.txt"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(seeds), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		seed, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("%s/seeds.txt line %d: %v", dir, i+1, err)
		}
		cases[fmt.Sprintf("seed%d", seed)] = GenNested(seed)
	}
	return cases
}

// corpora is the replay table, keyed by test name so that `go test -run
// TestFaultCorpus` keeps selecting one corpus: each committed corpus,
// the rung it replays on, and how many entries it must at least hold.
var corpora = map[string]struct {
	dir, rung string
	min       int
	forks     bool // forks worker processes per row: not under -short
}{
	"TestCorpusReproducers":       {dir: "fuzz-corpus", rung: Base, min: 5},
	"TestCorpusReproducersDist":   {dir: "fuzz-corpus", rung: Dist, min: 5, forks: true},
	"TestFaultCorpus":             {dir: "fault-corpus", rung: Faults, min: 5},
	"TestSearchCorpusReproducers": {dir: "search-corpus", rung: Search, min: 1},
	"TestNestedCorpusReproducers": {dir: "nested-corpus", rung: Nested, min: 1},
}

// replayCorpus replays the calling test's row of corpora. Every entry
// diverged once under a bug a campaign surfaced (or, for the nested
// corpus, pins a structurally extreme program); one failing again is a
// regression on that rung, and the entry's header names the original
// defect.
func replayCorpus(t *testing.T) {
	row := corpora[t.Name()]
	if row.forks && testing.Short() {
		t.Skip("forks worker processes per configuration")
	}
	cases := corpusCases(t, row.dir)
	if len(cases) < row.min {
		t.Fatalf("%s has %d entries, want at least %d", row.dir, len(cases), row.min)
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if row.rung == Faults && c.Plan == nil {
				t.Fatal("no '! fault: spec' header")
			}
			rep := Check(c, row.rung)
			if rep.Skip != "" {
				t.Fatalf("reproducer no longer checkable: %s", rep.Skip)
			}
			if rep.Failed() {
				t.Fatalf("%s regression:\n%s\n--- case ---\n%s", row.rung, rep, c)
			}
		})
	}
}

func TestCorpusReproducers(t *testing.T)       { replayCorpus(t) }
func TestCorpusReproducersDist(t *testing.T)   { replayCorpus(t) }
func TestFaultCorpus(t *testing.T)             { replayCorpus(t) }
func TestSearchCorpusReproducers(t *testing.T) { replayCorpus(t) }
func TestNestedCorpusReproducers(t *testing.T) { replayCorpus(t) }
