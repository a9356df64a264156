package compile_test

import (
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/source"
)

// FuzzCompile drives the program text a daemon submission or orchc's
// file argument carries. Parse and Compile must never panic; a program
// they accept must give a graph that encodes, decodes and validates;
// and compiling the same text twice must give the same graph text and
// the same transformed program, so nothing the compiler remembers
// makes its output depend on the order it asks questions in. The seeds
// are examples/*.f and the fuzzer's kept programs. Run the seeds alone
// with `go test ./internal/compile -run FuzzCompile`; explore with
// `go test ./internal/compile -run XXX -fuzz FuzzCompile`.
func FuzzCompile(f *testing.F) {
	var seeds []string
	for _, pat := range []string{"../../examples/*.f", "../fuzz/testdata/*/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m...)
	}
	if len(seeds) == 0 {
		f.Fatal("no programs to seed from")
	}
	for _, path := range seeds {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		compileOnce := func() (graph, program string, ok bool) {
			prog, err := source.Parse(text)
			if err != nil {
				return "", "", false
			}
			out, err := compile.Compile(prog, compile.DefaultOptions())
			if err != nil {
				return "", "", false
			}
			return out.Graph.Encode(), source.Format(out.Program), true
		}
		graph, program, ok := compileOnce()
		if !ok {
			return
		}
		g, err := delirium.Decode(graph)
		if err != nil {
			t.Fatalf("the compiled graph does not decode: %v\n%s", err, graph)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("the compiled graph does not validate: %v\n%s", err, graph)
		}
		graph2, program2, ok := compileOnce()
		if !ok || graph2 != graph || program2 != program {
			t.Fatalf("a second compile of the same text differs:\n%s\n%s\nthen:\n%s\n%s", graph, program, graph2, program2)
		}
	})
}
