// Package core is the top-level API of the reproduction: the paper's
// primary contribution is the *combination* of compile-time split and
// adaptive runtime orchestration, and this package is where the
// compiler meets the registered runtimes.
//
// The typical flow mirrors the paper's toolchain:
//
//	out, err := core.CompileSource(text, core.DefaultOptions())          // §3: analysis + split
//	be, err := rts.OpenBackend("sim")
//	bound, err := rts.Bind(out.Graph, rts.NamedBinding("lognormal", params))
//	res, err := be.Run(out.Graph, bound, rts.RunOpts{Processors: 512, Mode: rts.ModeSplit}) // §4
//
// CompileSource runs the symbolic analysis pipeline, applies split and
// pipelining, and returns the transformed program plus the Delirium
// dataflow graph.
//
// Importing core registers every backend ("sim", "native", "dist") and
// the built-in kernel families, so rts.OpenBackend and rts.Bind work
// by name.
package core

import (
	"orchestra/internal/compile"
	_ "orchestra/internal/dist"   // register the "dist" backend
	_ "orchestra/internal/native" // register the "native" backend and its kernel families
	"orchestra/internal/source"
)

// Options re-exports the compiler options.
type Options = compile.Options

// Output re-exports the compilation result.
type Output = compile.Output

// DefaultOptions enables split and pipelining.
func DefaultOptions() Options { return compile.DefaultOptions() }

// CompileSource parses and compiles a mini-Fortran program.
func CompileSource(text string, opts Options) (*Output, error) {
	prog, err := source.Parse(text)
	if err != nil {
		return nil, err
	}
	return compile.Compile(prog, opts)
}
