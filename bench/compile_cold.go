package main

import (
	"fmt"
	"time"

	"orchestra/internal/analysis"
	"orchestra/internal/compile"
	"orchestra/internal/core"
	"orchestra/internal/delirium"
	"orchestra/internal/fuzz"
	"orchestra/internal/source"
	"orchestra/internal/stats"
)

// The corpus: three size classes of sixteen programs, by number of
// top-level statements (about 4, 12 and 50 graph nodes). The programs
// come from the fuzzer's generator at fixed generator seeds; -seed
// chooses the order in which each class is visited. The programs
// themselves do not vary with -seed because a percentile over 48 random
// programs moves by more than its bound from one draw to the next
// (measured: op_p50_ms 1.34–1.74 ms over ten draws).
const (
	corpusSeed     = 7
	corpusPerClass = 16
)

var corpusClasses = []struct {
	metric string
	stmts  int
}{
	{"compile.small_us", 3},
	{"compile.medium_us", 10},
	{"compile.large_us", 40},
}

type corpusProgram struct {
	text  string
	class int
	want  string // the encoded graph set-up produced
}

// compileCold is the paper's first half: parse, analysis, split and
// lowering do all the work and no engine runs.
type compileCold struct {
	progs []corpusProgram
	// order[k] is the program the k-th op of a round compiles: classes
	// in turn, each class in the seed's order.
	order  []int
	next   int
	counts map[string]float64
	fig1   string
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

func setupCompileCold(cfg config) (*instance, error) {
	fig1, err := figure1()
	if err != nil {
		return nil, err
	}
	w := &compileCold{fig1: fig1, counts: map[string]float64{}}
	genSeed := uint64(corpusSeed)
	for class, c := range corpusClasses {
		for k := 0; k < corpusPerClass; k++ {
			text := fig1
			if class != 0 || k != 0 {
				text = source.Format(sized(&genSeed, c.stmts))
			}
			w.progs = append(w.progs, corpusProgram{text: text, class: class})
		}
	}
	for i := range w.progs {
		p := &w.progs[i]
		out, err := core.CompileSource(p.text, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("corpus program %d: %w", i, err)
		}
		p.want = out.Graph.Encode()
		w.counts["compile.units"] += float64(len(out.Units))
		for _, u := range out.Units {
			if u.Role != "" {
				w.counts["compile.split_units"]++
			}
		}
		w.counts["compile.graph_nodes"] += float64(len(out.Graph.Nodes))
		for _, e := range out.Graph.Edges {
			if e.Pipelined {
				w.counts["compile.pipelined_edges"]++
			}
			if e.Chain {
				w.counts["compile.chain_edges"]++
			}
		}
		if cfg.corrupt {
			p.want += "corrupt"
		}
	}
	rng := stats.NewRNG(cfg.seed)
	perms := make([][]int, len(corpusClasses))
	for class := range perms {
		perms[class] = rng.Perm(corpusPerClass)
	}
	for k := 0; k < corpusPerClass; k++ {
		for class := range corpusClasses {
			w.order = append(w.order, class*corpusPerClass+perms[class][k])
		}
	}
	return &instance{
		clients: 1,
		op: func(tr *tracer, _ int) (time.Duration, error) {
			p := &w.progs[w.order[w.next%len(w.order)]]
			w.next++
			root := tr.begin("op", -1)
			defer tr.end(root)
			return compileOne(tr, root, p)
		},
		layers: w.layers,
		close:  func() {},
	}, nil
}

// compileOne does what orchc does for one program and compares the
// graph text with the one set-up produced.
func compileOne(tr *tracer, parent int, p *corpusProgram) (time.Duration, error) {
	t0 := time.Now()
	s := tr.begin("core.CompileSource", parent)
	out, err := core.CompileSource(p.text, core.DefaultOptions())
	tr.end(s)
	if err != nil {
		return time.Since(t0), err
	}
	s = tr.begin("delirium.Encode", parent)
	text := out.Graph.Encode()
	tr.end(s)
	lat := time.Since(t0)
	if text != p.want {
		return lat, fmt.Errorf("compile: graph text differs from the one set-up produced (%d bytes, want %d)", len(text), len(p.want))
	}
	return lat, nil
}

// layers times the compiler's stages one by one over the corpus, in the
// op order, until the budget is spent (and over one program of each
// class at least).
func (w *compileCold) layers(tr *tracer, budget time.Duration, m metrics) error {
	var parse, analyze, comp, encode, decode, fingerprint []float64
	perClass := make([][]float64, len(corpusClasses))
	timed := func(name string, into *[]float64, fn func() error) error {
		s := tr.begin(name, -1)
		t0 := time.Now()
		err := fn()
		*into = append(*into, us(time.Since(t0)))
		tr.end(s)
		return err
	}
	deadline := time.Now().Add(budget)
	for k := 0; k < len(corpusClasses) || time.Now().Before(deadline); k++ {
		p := &w.progs[w.order[k%len(w.order)]]
		var prog *source.Program
		var out *compile.Output
		var text string
		steps := []struct {
			name string
			into *[]float64
			fn   func() (err error)
		}{
			{"core.CompileSource", &perClass[p.class], func() error { _, err := compileOne(nil, -1, p); return err }},
			{"source.Parse", &parse, func() (err error) { prog, err = source.Parse(p.text); return }},
			{"analysis.Analyze", &analyze, func() error { analysis.Analyze(prog); return nil }},
			// Compile gets a tree of its own, whatever Analyze did to
			// the first.
			{"source.Parse", &parse, func() (err error) { prog, err = source.Parse(p.text); return }},
			{"compile.Compile", &comp, func() (err error) { out, err = compile.Compile(prog, core.DefaultOptions()); return }},
			{"delirium.Encode", &encode, func() error { text = out.Graph.Encode(); return nil }},
			{"delirium.Decode", &decode, func() error { _, err := delirium.Decode(text); return err }},
			{"compile.Fingerprint", &fingerprint, func() error { compile.Fingerprint(w.fig1, core.DefaultOptions()); return nil }},
		}
		for _, st := range steps {
			if err := timed(st.name, st.into, st.fn); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
		}
	}
	m.set("source.parse_us", median(parse))
	m.set("analysis.analyze_us", median(analyze))
	m.set("compile.compile_us", median(comp))
	// Compile runs the analysis itself; what is left is its own.
	m.set("compile.self_us", median(comp)-median(analyze))
	m.set("delirium.encode_us", median(encode))
	m.set("delirium.decode_us", median(decode))
	m.set("compile.fingerprint_us", median(fingerprint))
	for class, c := range corpusClasses {
		m.set(c.metric, median(perClass[class]))
	}
	for _, name := range []string{"compile.units", "compile.split_units", "compile.pipelined_edges", "compile.chain_edges", "compile.graph_nodes"} {
		m.set(name, w.counts[name])
	}
	return nil
}
