// Command orchc is the compiler driver: it parses a mini-Fortran
// program, runs the symbolic analysis, applies the split and pipelining
// transformations, and writes the two outputs the paper's compiler
// produces — the transformed program and a Delirium dataflow graph.
//
// Usage:
//
//	orchc [-no-split] [-no-pipeline] [-depth n] [-descriptors] [-o prefix] file.f
//
// With -o prefix, the transformed program goes to prefix.f and the
// graph to prefix.graph; otherwise both print to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"orchestra/internal/analysis"
	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/source"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status, 2 for bad
// usage and 1 for a failed compile or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orchc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fuse := fs.Bool("fuse", false, "fuse legal adjacent loops before splitting")
	noSplit := fs.Bool("no-split", false, "disable the split transformation")
	noPipe := fs.Bool("no-pipeline", false, "disable the pipelining transformation")
	depth := fs.Int("depth", 1, "pipelining depth")
	descriptors := fs.Bool("descriptors", false, "print symbolic data descriptors for each top-level computation")
	dot := fs.Bool("dot", false, "also emit the dataflow graph in Graphviz DOT form")
	out := fs.String("o", "", "output file prefix (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: orchc [flags] file.f")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "orchc:", err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	prog, err := source.Parse(string(src))
	if err != nil {
		return fatal(err)
	}

	if *descriptors {
		r := analysis.Analyze(prog)
		fmt.Fprintln(stdout, "symbolic data descriptors:")
		for i, s := range prog.Body {
			d := r.DescribeStmt(s)
			fmt.Fprintf(stdout, "-- computation %d (%T):\n%s\n", i+1, s, d)
		}
		if len(r.Calls) > 0 {
			fmt.Fprintln(stdout, "\ncall-site groups (hot sites grouped by aliasing and constants):")
			for _, k := range analysis.GroupKeys(r.Calls) {
				fmt.Fprintf(stdout, "  %s: %d site(s)\n", k, analysis.Groups(r.Calls)[k])
			}
		}
		fmt.Fprintln(stdout)
	}

	opts := compile.DefaultOptions()
	opts.EnableFusion = *fuse
	opts.EnableSplit = !*noSplit
	opts.EnablePipeline = !*noPipe
	opts.PipelineDepth = *depth

	res, err := compile.Compile(prog, opts)
	if err != nil {
		return fatal(err)
	}
	for _, line := range res.Report {
		fmt.Fprintln(stderr, "orchc:", line)
	}
	if st, err := res.Graph.Summarize(); err == nil {
		fmt.Fprintln(stderr, "orchc: graph:", st)
	}
	// Unit-weight critical path = the residual serialization depth.
	w := delirium.Weights{}
	for _, n := range res.Graph.Nodes {
		w[n.Name] = 1
	}
	if path, depth, err := res.Graph.CriticalPath(w); err == nil {
		fmt.Fprintf(stderr, "orchc: critical path (depth %.0f): %v\n", depth, path)
	}

	program := source.Format(res.Program)
	graph := res.Graph.Encode()
	if *out == "" {
		fmt.Fprintln(stdout, "! ---- transformed program ----")
		fmt.Fprint(stdout, program)
		fmt.Fprintln(stdout, "! ---- dataflow graph ----")
		fmt.Fprint(stdout, graph)
		if *dot {
			fmt.Fprintln(stdout, "// ---- graphviz ----")
			fmt.Fprint(stdout, res.Graph.ToDot())
		}
		return 0
	}
	if *out+".f" == fs.Arg(0) {
		return fatal(fmt.Errorf("output %s.f would overwrite the input", *out))
	}
	if err := os.WriteFile(*out+".f", []byte(program), 0o644); err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(*out+".graph", []byte(graph), 0o644); err != nil {
		return fatal(err)
	}
	if *dot {
		if err := os.WriteFile(*out+".dot", []byte(res.Graph.ToDot()), 0o644); err != nil {
			return fatal(err)
		}
	}
	fmt.Fprintf(stderr, "orchc: wrote %s.f and %s.graph\n", *out, *out)
	return 0
}
