package compile_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/analysis"
	"orchestra/internal/compile"
	"orchestra/internal/descriptor"
	"orchestra/internal/fuzz"
	"orchestra/internal/source"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	corpusGoldenFile         = "testdata/corpus_pinned.txt"
	corpusProgramsGoldenFile = "testdata/corpus_programs.txt"
)

// corpusProgram is one program of the pinned corpus, as source text.
type corpusProgram struct {
	name string
	text string
}

// pinnedCorpus is what TestCorpusPinned compiles: the paper's running
// example, every program the fuzzer's corpora keep, and 160 generator
// programs in four size classes, drawn the way bench/compile_cold.go's
// sized draws them (generator seeds from 1, cut to exactly that many
// top-level statements).
func pinnedCorpus(t testing.TB) []corpusProgram {
	t.Helper()
	files, err := filepath.Glob("../fuzz/testdata/*/*.f")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var progs []corpusProgram
	for _, f := range append([]string{"../../examples/figure1.f"}, files...) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, corpusProgram{name: filepath.ToSlash(f), text: string(text)})
	}
	genSeed := uint64(1)
	for _, stmts := range []int{3, 10, 40, 60} {
		for k := 0; k < 40; k++ {
			progs = append(progs, corpusProgram{
				name: fmt.Sprintf("gen/%d/%d", stmts, k),
				text: source.Format(sized(&genSeed, stmts)),
			})
		}
	}
	return progs
}

// sized draws programs from the generator until one has at least stmts
// top-level statements, and cuts it to exactly that many.
func sized(genSeed *uint64, stmts int) *source.Program {
	for {
		p := fuzz.NewGen(*genSeed, fuzz.GenConfig{MaxTopLoops: 2 * stmts}).Program()
		*genSeed++
		if len(p.Body) >= stmts {
			p.Body = p.Body[:stmts]
			return p
		}
	}
}

func compileText(t testing.TB, p corpusProgram) *compile.Output {
	t.Helper()
	prog, err := source.Parse(p.text)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.name, err)
	}
	out, err := compile.Compile(prog, compile.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: compile: %v", p.name, err)
	}
	return out
}

// TestCorpusPinned holds the compiler's output still: one sha256 per
// corpus program over the encoded graph and every unit's name and role.
// The golden file was recorded before the symbolic domain changed
// representation; a compiler change that is meant to leave behaviour
// alone leaves the file alone.
func TestCorpusPinned(t *testing.T) {
	var got strings.Builder
	for _, p := range pinnedCorpus(t) {
		out := compileText(t, p)
		h := sha256.New()
		h.Write([]byte(out.Graph.Encode()))
		for _, u := range out.Units {
			fmt.Fprintf(h, "%s\x00%s\n", u.Name, u.Role)
		}
		fmt.Fprintf(&got, "%x %s\n", h.Sum(nil), p.name)
	}
	checkGolden(t, corpusGoldenFile, got.String())
}

// TestCorpusProgramsPinned holds the transformed program still, which
// TestCorpusPinned's hash does not cover: one sha256 per corpus program
// over its formatted source, so a renamed or reordered replica, init or
// merge shows even where the graph and the unit roles stay the same.
func TestCorpusProgramsPinned(t *testing.T) {
	var got strings.Builder
	for _, p := range pinnedCorpus(t) {
		out := compileText(t, p)
		fmt.Fprintf(&got, "%x %s\n", sha256.Sum256([]byte(source.Format(out.Program))), p.name)
	}
	checkGolden(t, corpusProgramsGoldenFile, got.String())
}

// checkGolden compares one line per corpus program with file, or
// rewrites file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d programs, %s pins %d", len(gotLines)-1, file, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("compiler output changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// corpusTriples collects every triple the analysis and the compiler
// produce for one program: each statement's descriptor at every nesting
// level, each loop's iteration descriptor, and each output unit's.
func corpusTriples(t testing.TB, p corpusProgram) []descriptor.Triple {
	var ts []descriptor.Triple
	add := func(d descriptor.Descriptor) {
		ts = append(ts, d.Reads...)
		ts = append(ts, d.Writes...)
	}
	for _, u := range compileText(t, p).Units {
		add(u.Desc)
	}
	prog, err := source.Parse(p.text)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.name, err)
	}
	r := analysis.Analyze(prog)
	source.WalkStmts(prog.Body, func(s source.Stmt) {
		add(r.DescribeStmt(s))
		if loop, ok := s.(*source.Do); ok {
			iter, _ := r.DescribeIteration(loop)
			add(iter)
		}
	})
	return ts
}

// TestTripleEqualMatchesRendering checks descriptor.Triple.Equal
// against the criterion it replaced in analysis.dedupe: two triples
// were the same when they rendered the same.
func TestTripleEqualMatchesRendering(t *testing.T) {
	pairs := 0
	for _, p := range pinnedCorpus(t) {
		ts := corpusTriples(t, p)
		text := make([]string, len(ts))
		for i, x := range ts {
			text[i] = x.String()
		}
		for i := range ts {
			for j := range ts {
				pairs++
				if got, want := ts[i].Equal(ts[j]), text[i] == text[j]; got != want {
					t.Fatalf("%s: (%s).Equal(%s) = %v, rendering says %v", p.name, text[i], text[j], got, want)
				}
			}
		}
	}
	t.Logf("%d pairs", pairs)
}

// BenchmarkCompileCorpus is the compiler's standing layer entry: parse
// and compile, per size class of the repository benchmark's
// compile-cold corpus (3, 10 and 40 top-level statements). One op is
// the class's sixteen generator programs, so a fixed -benchtime Nx
// compiles the same programs on both sides of a comparison.
func BenchmarkCompileCorpus(b *testing.B) {
	genSeed := uint64(1)
	for _, class := range []struct {
		name  string
		stmts int
	}{{"small", 3}, {"medium", 10}, {"large", 40}} {
		texts := make([]string, 16)
		for i := range texts {
			texts[i] = source.Format(sized(&genSeed, class.stmts))
		}
		b.Run(class.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, text := range texts {
					compileText(b, corpusProgram{name: class.name, text: text})
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(texts)), "us/program")
		})
	}
}
