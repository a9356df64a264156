package fuzz

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/compile"
	"orchestra/internal/delirium"
	"orchestra/internal/dist"
	"orchestra/internal/fault"
	"orchestra/internal/interp"
	"orchestra/internal/machine"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/source"
	"orchestra/internal/stats"
)

// The differential oracle. One program, one seed-derived initial
// memory image, and a ladder of executions whose disagreements
// localize a bug to a layer:
//
//	ref   = interpreter on the original program        (ground truth)
//	trans = interpreter on the transformed program     (≠ ref ⇒ compiler bug)
//	gseq  = lowered kernels, sequential, once each     (≠ trans ⇒ lowering bug)
//	sim/native under every config                      (≠ gseq ⇒ orchestration bug)
//
// ref-vs-trans uses a small relative tolerance (the transformations
// may legally reassociate only where bitwise identity is impossible to
// promise); everything below is compared bitwise, because the lowered
// kernels replay the interpreter's arithmetic exactly and the backends
// execute those same kernels — any drift at all is a real ordering or
// gating defect. Every engine calls each kernel body exactly once, so
// the simulator's value diff means what native's does: a task released
// too early reads unwritten elements. The simulator's ModeSplit runs
// additionally carry the execution-order oracle (see
// Instance.checkSim), which names the edge whose gate was broken.
type Divergence struct {
	Config string // which rung/config disagreed
	Kind   string // divergence taxonomy key (see DESIGN.md)
	Detail string
	// Trace, when non-nil, is an event trace of a re-execution of the
	// diverging backend configuration — chunk spans, steals, TAPER
	// decisions and gate advances — captured so the schedule that
	// produced a divergence can be inspected (orchfuzz -trace-dir
	// exports it as a Chrome trace). Re-execution is not replay: a
	// nondeterministic native divergence may not recur in the traced
	// run, but the gating/ordering structure is usually the same.
	Trace *obs.Trace
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Config, d.Kind, d.Detail)
}

// Report is the oracle's verdict on one program.
type Report struct {
	// Skip explains why the program was not checked (invalid under the
	// reference interpreter, or outside the lowering's supported shape).
	Skip string
	Divs []Divergence
	// Kinds counts lowered kernels by classification, for campaign
	// coverage statistics.
	Kinds map[string]int
}

// Failed reports whether any rung diverged.
func (r *Report) Failed() bool { return len(r.Divs) > 0 }

func (r *Report) String() string {
	if r.Skip != "" {
		return "skip: " + r.Skip
	}
	if !r.Failed() {
		return "ok"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d divergences:\n", len(r.Divs))
	for _, d := range r.Divs {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// memImage is the seed-derived initial memory shared by every rung.
type memImage struct {
	scalars map[string]float64
	arrays  map[string][]float64
	dims    map[string][]int
}

// buildImage derives concrete initial memory for a program's
// declarations from the seed: small extents (the oracle wants many
// programs, not big ones), a split point strictly inside [2, n-1], a
// mixed mask, and smooth real data.
func buildImage(p *source.Program, seed uint64) (*memImage, error) {
	rng := stats.NewRNG(seed ^ 0xd1b54a32d192ed03)
	img := &memImage{
		scalars: map[string]float64{},
		arrays:  map[string][]float64{},
		dims:    map[string][]int{},
	}
	n := 8 + rng.Intn(9) // 8..16
	for _, d := range p.Decls {
		if d.IsArray() {
			continue
		}
		switch d.Name {
		case "n":
			img.scalars["n"] = float64(n)
		case "a":
			img.scalars["a"] = float64(3 + rng.Intn(n-5))
		default:
			if d.Type == source.Integer {
				img.scalars[d.Name] = float64(rng.Intn(5))
			} else {
				img.scalars[d.Name] = math.Floor(rng.Uniform(-2, 2)*64) / 64
			}
		}
	}
	for _, d := range p.Decls {
		if !d.IsArray() {
			continue
		}
		size := 1
		var dims []int
		for _, de := range d.Dims {
			v, ok := constEval(de, img.scalars)
			iv := int(math.Round(v))
			if !ok || iv < 1 || iv > maxKernelTasks {
				return nil, fmt.Errorf("declaration %s has non-constant extent", d.Name)
			}
			dims = append(dims, iv)
			size *= iv
			if size > 1<<22 {
				return nil, fmt.Errorf("declaration %s too large", d.Name)
			}
		}
		buf := make([]float64, size)
		for i := range buf {
			if d.Name == "mask" {
				if rng.Bernoulli(0.6) {
					buf[i] = 1
				}
			} else if d.Type == source.Integer {
				buf[i] = float64(rng.Intn(4))
			} else {
				// Dyadic rationals keep arithmetic exact-ish without
				// hiding real rounding differences downstream.
				buf[i] = math.Floor(rng.Uniform(-2, 2)*64) / 64
			}
		}
		img.arrays[d.Name] = buf
		img.dims[d.Name] = dims
	}
	return img, nil
}

// state builds an interpreter state over a (possibly transformed)
// program's declarations: image-backed where the image knows the name,
// zero-initialized for compiler-introduced temporaries.
func (img *memImage) state(p *source.Program) (*interp.State, error) {
	st := interp.NewState()
	for k, v := range img.scalars {
		st.Scalars[k] = v
	}
	for _, d := range p.Decls {
		if !d.IsArray() {
			if _, ok := st.Scalars[d.Name]; !ok {
				st.Scalars[d.Name] = 0
			}
			continue
		}
		if buf, ok := img.arrays[d.Name]; ok {
			st.Arrays[d.Name] = append([]float64(nil), buf...)
			st.Dims[d.Name] = append([]int(nil), img.dims[d.Name]...)
			continue
		}
		var dims []int
		size := 1
		for _, de := range d.Dims {
			v, ok := constEval(de, img.scalars)
			iv := int(math.Round(v))
			if !ok || iv < 1 {
				return nil, fmt.Errorf("temporary %s has non-constant extent", d.Name)
			}
			dims = append(dims, iv)
			size *= iv
		}
		st.Arrays[d.Name] = make([]float64, size)
		st.Dims[d.Name] = dims
	}
	return st, nil
}

const refTolerance = 1e-9

// valueEqual compares two values under the rung's comparison policy.
func valueEqual(a, b float64, bitwise bool) bool {
	if bitwise {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= refTolerance*m
}

// observed lists the original program's variables, the only state the
// rungs are compared on (transformation temporaries are private).
func observed(p *source.Program) (arrays, scalars []string) {
	for _, d := range p.Decls {
		if d.IsArray() {
			arrays = append(arrays, d.Name)
		} else {
			scalars = append(scalars, d.Name)
		}
	}
	sort.Strings(arrays)
	sort.Strings(scalars)
	return
}

type finalState interface {
	array(name string) []float64
	scalar(name string) float64
}

type interpFinal struct{ st *interp.State }

func (f interpFinal) array(name string) []float64 { return f.st.Arrays[name] }
func (f interpFinal) scalar(name string) float64  { return f.st.Scalars[name] }

type instFinal struct{ in *Instance }

func (f instFinal) array(name string) []float64 { return f.in.FinalArray(name) }
func (f instFinal) scalar(name string) float64  { return f.in.FinalScalar(name) }

// diffFinal compares two final states over the observed variables and
// describes the first difference, or returns "".
func diffFinal(a, b finalState, arrays, scalars []string, bitwise bool) string {
	for _, name := range scalars {
		va, vb := a.scalar(name), b.scalar(name)
		if !valueEqual(va, vb, bitwise) {
			return fmt.Sprintf("scalar %s: %v (%#x) vs %v (%#x)",
				name, va, math.Float64bits(va), vb, math.Float64bits(vb))
		}
	}
	for _, name := range arrays {
		ba, bb := a.array(name), b.array(name)
		if len(ba) != len(bb) {
			return fmt.Sprintf("array %s: length %d vs %d", name, len(ba), len(bb))
		}
		for i := range ba {
			if !valueEqual(ba[i], bb[i], bitwise) {
				return fmt.Sprintf("array %s[%d]: %v (%#x) vs %v (%#x)",
					name, i, ba[i], math.Float64bits(ba[i]), bb[i], math.Float64bits(bb[i]))
			}
		}
	}
	return ""
}

// runBaseline executes rungs 0–2 (reference interpreter, transformed
// interpreter, sequential lowered run) on a mini-Fortran case and
// returns the scheduled rungs' subject — the lowered graph, with the
// sequential final state as reference — or nil when the report is
// already decided: skipped (invalid/unsupported input) or diverged
// before any scheduling ran.
func runBaseline(c *Case, rep *Report) *subject {
	prog, seed := c.Prog, c.Seed
	skip := func(why string) *subject {
		rep.Skip = why
		return nil
	}
	diverged := func(config, kind, detail string) *subject {
		rep.Divs = append(rep.Divs, Divergence{Config: config, Kind: kind, Detail: detail})
		return nil
	}
	img, err := buildImage(prog, seed)
	if err != nil {
		return skip(err.Error())
	}
	arrays, scalars := observed(prog)

	// Rung 0: the reference interpreter. A program the reference
	// rejects (bad subscripts, division by zero, runaway loops) is
	// invalid input, not a bug.
	refSt, err := img.state(prog)
	if err != nil {
		return skip(err.Error())
	}
	if err := interp.Run(source.CloneProgram(prog), refSt); err != nil {
		return skip(fmt.Sprintf("reference interpreter: %v", err))
	}

	// Rung 1: compile, and interpret the transformed program.
	out, err := compile.Compile(source.CloneProgram(prog), compile.DefaultOptions())
	if err != nil {
		return diverged("compile", "compile-error", err.Error())
	}
	transSt, err := img.state(out.Program)
	if err != nil {
		return skip(err.Error())
	}
	if err := interp.Run(out.Program, transSt); err != nil {
		return diverged("interp/transformed", "transform-invalid", err.Error())
	}
	trans := interpFinal{transSt}
	if d := diffFinal(interpFinal{refSt}, trans, arrays, scalars, false); d != "" {
		return diverged("interp/transformed", "transform-value", d)
	}

	// Rung 2: lower and run the sequential lowered baseline.
	low, err := Lower(out, img.scalars, img.arrays)
	if err != nil {
		return skip(err.Error())
	}
	rep.Kinds = low.Kinds()
	gseqIn := low.NewInstance(false)
	if err := gseqIn.RunSequential(); err != nil {
		return diverged("lowered/seq", "lowering-runtime", err.Error())
	}
	gseq := instFinal{gseqIn}
	if d := diffFinal(trans, gseq, arrays, scalars, true); d != "" {
		return diverged("lowered/seq", "lowering-value", d)
	}
	return &subject{
		graph: low.Graph,
		bind: func(cfg Config) (*rts.Bound, instance, error) {
			if !cfg.ByName {
				in := low.NewInstance(cfg.CheckSim)
				return rts.BindClosure(in.Binder()), in, nil
			}
			// The program text ships through the registry binding; the
			// instance is the coordinator's local image (the dist backend
			// itself verified every worker's digest against it).
			bound, err := rts.Bind(low.Graph, FuzzBinding(prog, seed))
			return bound, InstanceOf(bound), err
		},
		diff: func(in instance) string {
			return diffFinal(gseq, instFinal{in.(*Instance)}, arrays, scalars, true)
		},
	}
}

// The scheduled rungs: a graph runs under a table of backend
// configurations, and every row must reproduce the reference bitwise.
// A rung is its rows (Rows) plus a subject — reference, graph and
// comparison — and every row of every rung goes through subject.run.
const (
	Base   = "base"   // simulator and native runtime over processors × modes
	Dist   = "dist"   // Base plus forked worker processes, bound by name
	Faults = "faults" // both backends under the case's fault plan
	Nested = "nested" // recursive dataflow graphs against their static unrolling
)

// Rungs lists the rung names Check accepts.
var Rungs = []string{Base, Dist, Faults, Nested}

// Case is one input to the oracle: a mini-Fortran program or, for the
// nested rung, a recursive dataflow graph. Seed fixes the program's
// initial memory image, respectively the graph's expansion rules.
type Case struct {
	Seed  uint64
	Prog  *source.Program
	Graph *delirium.Graph
	Plan  *fault.Plan // what the faults rung's rows run under
}

// String renders the case as text: program source, or the top-level
// graph in codec form (its sub-graphs are implied by the seed).
func (c *Case) String() string {
	if c.Graph != nil {
		return c.Graph.Encode()
	}
	return source.Format(c.Prog)
}

// Config is one row of a rung's table: a backend configuration the
// rung's graph runs under.
type Config struct {
	Name    string
	Backend rts.Backend
	Opts    rts.RunOpts
	// CheckSim runs the row on an instance that keeps the
	// execution-order ledger (see Instance.checkSim).
	CheckSim bool
	// ByName marks an out-of-process backend: the run is bound by kernel
	// name through the registry (FuzzBinding), not by an in-process
	// closure.
	ByName bool
	// Flat has the loop statically unroll the graph (compile.Unroll)
	// before running it: the nested rung's flat twins.
	Flat bool
}

// sim is the simulated machine with p processors.
func sim(p int) rts.Backend { return rts.NewSimBackend(machine.DefaultConfig(p)) }

// Rows returns a rung's table; plan is the faults rung's fault plan.
func Rows(rung string, plan *fault.Plan) []Config {
	if rung != Faults {
		plan = nil
	}
	nat := native.Backend{}
	static, taper, split := rts.ModeStatic, rts.ModeTaper, rts.ModeSplit
	modes := []rts.Mode{static, taper, split}
	var rows []Config
	// add names a row after what it runs. The order ledger is exact only
	// on the simulator's undisturbed split runs.
	add := func(be rts.Backend, p int, m rts.Mode) {
		name := fmt.Sprintf("%s/p=%d/%s", be.Name(), p, m)
		if plan != nil {
			name += fmt.Sprintf("/fault=%s", plan)
		}
		_, isSim := be.(*rts.SimBackend)
		rows = append(rows, Config{
			Name:     name,
			Backend:  be,
			Opts:     rts.RunOpts{Processors: p, Mode: m, Fault: plan},
			CheckSim: isSim && m == split && plan == nil,
		})
	}
	switch rung {
	case Base:
		for _, p := range []int{1, 3, 8} {
			for _, m := range modes {
				add(sim(p), p, m)
			}
		}
		for _, p := range []int{1, 2, 4} {
			for _, m := range modes {
				add(nat, p, m)
			}
		}
	case Dist:
		// Every row forks its worker set — orders of magnitude costlier
		// than an in-process run, hence a rung of its own.
		for _, m := range modes {
			add(dist.Backend{}, 3, m)
			rows[len(rows)-1].ByName = true
		}
	case Faults:
		for _, be := range []rts.Backend{sim(faultWorkers), nat} {
			for _, m := range modes {
				add(be, faultWorkers, m)
			}
		}
	case Nested:
		opts := func(p int, m rts.Mode) rts.RunOpts { return rts.RunOpts{Processors: p, Mode: m} }
		rows = []Config{
			{Name: "flat-native/p=4/split", Backend: nat, Opts: opts(4, split), Flat: true},
			{Name: "sim/p=1/split", Backend: sim(1), Opts: opts(1, split)},
			{Name: "sim/p=8/split", Backend: sim(8), Opts: opts(8, split)},
			{Name: "sim/p=4/static", Backend: sim(4), Opts: opts(4, static)},
			{Name: "native/p=2/split", Backend: nat, Opts: opts(2, split)},
			{Name: "native/p=4/split", Backend: nat, Opts: opts(4, split)},
			{Name: "native/p=2/taper", Backend: nat, Opts: opts(2, taper)},
		}
	}
	return rows
}

// instance is a finished run's memory as the loop sees it: the first
// task runtime error, and what the order ledger recorded if one was
// kept.
type instance interface {
	Failure() string
	Violations() []string
}

// subject is what a rung hands the loop besides its rows.
type subject struct {
	// graph is what the rows run: the lowered graph or a nested case's
	// top-level graph.
	graph *delirium.Graph
	// bind builds a fresh single-use instance for one row and binds the
	// graph's operators to it.
	bind func(cfg Config) (*rts.Bound, instance, error)
	// diff describes the first difference between a finished instance
	// and the reference, or returns "". It is nil only while the
	// reference itself is being run.
	diff func(instance) string
}

// run executes one row on a fresh instance and classifies the outcome.
// This is the only place a backend runs on behalf of the oracle.
func (s *subject) run(cfg Config, sink obs.Sink) (instance, []Divergence) {
	div := func(kind, detail string) Divergence {
		return Divergence{Config: cfg.Name, Kind: kind, Detail: detail}
	}
	g := s.graph
	bound, in, err := s.bind(cfg)
	if err == nil && cfg.Flat {
		var flat rts.Binder
		g, flat, err = compile.Unroll(g, bound.Binder())
		bound = rts.BindClosure(flat)
	}
	if err == nil {
		opts := cfg.Opts
		opts.Sink = sink
		_, err = cfg.Backend.Run(g, bound, opts)
	}
	if err != nil {
		return nil, []Divergence{div("backend-error", err.Error())}
	}
	if f := in.Failure(); f != "" {
		return in, []Divergence{div("backend-runtime", f)}
	}
	var divs []Divergence
	for _, v := range in.Violations() {
		divs = append(divs, div("order-violation", v))
	}
	if s.diff != nil {
		if d := s.diff(in); d != "" {
			divs = append(divs, div("backend-value", d))
		}
	}
	return in, divs
}

// check runs one row and reports whether it conformed. A diverging row
// is re-executed once with a trace sink, so that the report carries the
// schedule.
func (s *subject) check(cfg Config, rep *Report) (instance, bool) {
	in, divs := s.run(cfg, nil)
	if len(divs) == 0 {
		return in, true
	}
	var col obs.Collector
	s.run(cfg, &col)
	for i := range divs {
		divs[i].Trace = col.Trace
	}
	rep.Divs = append(rep.Divs, divs...)
	return in, false
}

// Check runs the differential ladder on one case, up to and including
// the named rung. The report distinguishes invalid/unsupported inputs
// (Skip) from real divergences. A binary checking the Dist rung must
// call dist.MaybeWorker first thing in main (or TestMain): the dist
// backend re-executes it.
func Check(c *Case, rung string) *Report {
	rep := &Report{}
	if !slices.Contains(Rungs, rung) || (rung == Nested) != (c.Graph != nil) {
		rep.Skip = fmt.Sprintf("rung %q does not apply to this case", rung)
		return rep
	}
	var s *subject
	if rung == Nested {
		s = nestedSubject(c, rep)
	} else {
		s = runBaseline(c, rep)
	}
	if s == nil {
		return rep
	}
	rows := Rows(rung, c.Plan)
	if rung == Dist {
		// The dist rung extends the base table rather than replacing it.
		rows = append(Rows(Base, nil), rows...)
	}
	for _, cfg := range rows {
		s.check(cfg, rep)
	}
	return rep
}

// CheckSeed generates case #seed for the rung and checks it: a random
// recursive graph on the nested rung, else a random program — on the
// faults rung under plan or, if that is nil, under seed's random plan.
func CheckSeed(seed uint64, cfg GenConfig, rung string, plan *fault.Plan) (*Report, *Case) {
	if rung == Nested {
		c := GenNested(seed)
		return Check(c, rung), c
	}
	c := &Case{Seed: seed, Prog: NewGen(seed, cfg).Program(), Plan: plan}
	if rung == Faults && plan == nil {
		c.Plan = fault.Random(seed, faultWorkers)
	}
	return Check(c, rung), c
}
