package fuzz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"orchestra/internal/compile"
	"orchestra/internal/dist"
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
	Seed uint64
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

// initFor adapts the image to Lower's inputs for a transformed
// program (temporaries default to zero inside Lower).
func (img *memImage) initFor() (map[string]float64, map[string][]float64) {
	return img.scalars, img.arrays
}

const refTolerance = 1e-9

// diffKind compares two values under the rung's comparison policy.
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

// backendConfig is one cell of the differential matrix.
type backendConfig struct {
	name     string
	backend  rts.Backend
	opts     rts.RunOpts
	checkSim bool
	// dist marks the fourth rung: the run executes on forked worker
	// processes, bound by name through the registry rather than through
	// an in-process closure.
	dist bool
}

// matrix builds the standard configuration matrix: the simulator over
// {1,3,8} processors × {static, TAPER, split}, and the native runtime
// over {1,2,4} workers × {static, TAPER, split} with an extra tight
// and loose TAPER ω sweep on split mode.
func matrix() []backendConfig {
	var cfgs []backendConfig
	modes := []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit}
	for _, p := range []int{1, 3, 8} {
		for _, m := range modes {
			cfgs = append(cfgs, backendConfig{
				name:     fmt.Sprintf("sim/p=%d/%s", p, m),
				backend:  rts.NewSimBackend(machine.DefaultConfig(p)),
				opts:     rts.RunOpts{Processors: p, Mode: m},
				checkSim: m == rts.ModeSplit,
			})
		}
	}
	for _, p := range []int{1, 2, 4} {
		for _, m := range modes {
			cfgs = append(cfgs, backendConfig{
				name:    fmt.Sprintf("native/p=%d/%s", p, m),
				backend: native.Backend{},
				opts:    rts.RunOpts{Processors: p, Mode: m},
			})
		}
	}
	for _, omega := range []float64{0.5, 3} {
		cfgs = append(cfgs, backendConfig{
			name:    fmt.Sprintf("native/p=4/%s/omega=%g", rts.ModeSplit, omega),
			backend: native.Backend{},
			opts:    rts.RunOpts{Processors: 4, Mode: rts.ModeSplit, Omega: omega},
		})
	}
	return cfgs
}

// distMatrix is the fourth oracle rung: the same program on real
// forked worker processes. It is opt-in (CheckProgramDist) because
// every cell forks its worker set — orders of magnitude costlier than
// an in-process run.
func distMatrix() []backendConfig {
	var cfgs []backendConfig
	for _, m := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
		cfgs = append(cfgs, backendConfig{
			name:    fmt.Sprintf("dist/p=3/%s", m),
			backend: dist.Backend{},
			opts:    rts.RunOpts{Processors: 3, Mode: m},
			dist:    true,
		})
	}
	return cfgs
}

// baseline is the outcome of the ladder's first three rungs — the
// lowered program plus the sequential final state every scheduled
// configuration is compared against.
type baseline struct {
	low     *Lowered
	gseq    finalState
	arrays  []string
	scalars []string
}

// runBaseline executes rungs 0–2 (reference interpreter, transformed
// interpreter, sequential lowered run) and returns the lowered
// baseline, or nil when the report is already decided — either skipped
// (invalid/unsupported input) or diverged before any scheduling ran.
func runBaseline(prog *source.Program, seed uint64, rep *Report) *baseline {
	img, err := buildImage(prog, seed)
	if err != nil {
		rep.Skip = err.Error()
		return nil
	}
	arrays, scalars := observed(prog)

	// Rung 0: the reference interpreter. A program the reference
	// rejects (bad subscripts, division by zero, runaway loops) is
	// invalid input, not a bug.
	refSt, err := img.state(prog)
	if err != nil {
		rep.Skip = err.Error()
		return nil
	}
	if err := interp.Run(source.CloneProgram(prog), refSt); err != nil {
		rep.Skip = fmt.Sprintf("reference interpreter: %v", err)
		return nil
	}
	ref := interpFinal{refSt}

	// Rung 1: compile, and interpret the transformed program.
	out, err := compile.Compile(source.CloneProgram(prog), compile.DefaultOptions())
	if err != nil {
		rep.Divs = append(rep.Divs, Divergence{Config: "compile", Kind: "compile-error", Detail: err.Error()})
		return nil
	}
	transSt, err := img.state(out.Program)
	if err != nil {
		rep.Skip = err.Error()
		return nil
	}
	if err := interp.Run(out.Program, transSt); err != nil {
		rep.Divs = append(rep.Divs, Divergence{Config: "interp/transformed", Kind: "transform-invalid", Detail: err.Error()})
		return nil
	}
	trans := interpFinal{transSt}
	if d := diffFinal(ref, trans, arrays, scalars, false); d != "" {
		rep.Divs = append(rep.Divs, Divergence{Config: "interp/transformed", Kind: "transform-value", Detail: d})
		return nil
	}

	// Rung 2: lower and run the sequential lowered baseline.
	initS, initA := img.initFor()
	low, err := Lower(out, initS, initA)
	if err != nil {
		rep.Skip = err.Error()
		return nil
	}
	rep.Kinds = low.Kinds()
	gseqIn := low.NewInstance(false)
	if err := gseqIn.RunSequential(); err != nil {
		rep.Divs = append(rep.Divs, Divergence{Config: "lowered/seq", Kind: "lowering-runtime", Detail: err.Error()})
		return nil
	}
	gseq := instFinal{gseqIn}
	if d := diffFinal(trans, gseq, arrays, scalars, true); d != "" {
		rep.Divs = append(rep.Divs, Divergence{Config: "lowered/seq", Kind: "lowering-value", Detail: d})
		return nil
	}
	return &baseline{low: low, gseq: gseq, arrays: arrays, scalars: scalars}
}

// CheckProgram runs the full differential ladder on one program with
// the seed-derived initial image. The returned report distinguishes
// invalid/unsupported programs (Skip) from real divergences.
func CheckProgram(prog *source.Program, seed uint64) *Report {
	return checkProgram(prog, seed, false)
}

// CheckProgramDist runs the ladder plus the fourth rung: the dist
// backend on forked worker processes, bound by name through the
// registry. The calling binary must invoke dist.MaybeWorker first
// thing in main (or TestMain) — the dist backend re-executes it.
func CheckProgramDist(prog *source.Program, seed uint64) *Report {
	return checkProgram(prog, seed, true)
}

func checkProgram(prog *source.Program, seed uint64, withDist bool) *Report {
	rep := &Report{Seed: seed}
	base := runBaseline(prog, seed, rep)
	if base == nil {
		return rep
	}
	low, gseq, arrays, scalars := base.low, base.gseq, base.arrays, base.scalars

	// Rung 3: every backend configuration, compared bitwise against the
	// lowered baseline.
	cfgs := matrix()
	if withDist {
		cfgs = append(cfgs, distMatrix()...)
	}
	for _, cfg := range cfgs {
		before := len(rep.Divs)
		in, err := runConfig(prog, seed, low, cfg, nil)
		if err != nil {
			rep.Divs = append(rep.Divs, Divergence{Config: cfg.name, Kind: "backend-error", Detail: err.Error()})
			continue
		}
		if f := in.Failure(); f != "" {
			rep.Divs = append(rep.Divs, Divergence{Config: cfg.name, Kind: "backend-runtime", Detail: f})
		} else {
			for _, v := range in.Violations() {
				rep.Divs = append(rep.Divs, Divergence{Config: cfg.name, Kind: "order-violation", Detail: v})
			}
			if d := diffFinal(gseq, instFinal{in}, arrays, scalars, true); d != "" {
				rep.Divs = append(rep.Divs, Divergence{Config: cfg.name, Kind: "backend-value", Detail: d})
			}
		}
		if len(rep.Divs) > before {
			// Re-execute the diverging configuration with tracing so the
			// divergence report carries the schedule.
			if t := captureTrace(prog, seed, low, cfg); t != nil {
				for i := before; i < len(rep.Divs); i++ {
					rep.Divs[i].Trace = t
				}
			}
		}
	}
	return rep
}

// runConfig executes one matrix cell and returns the instance holding
// its final memory. In-process cells bind the instance's closure; dist
// cells ship the program text through the registry binding, and the
// returned instance is the coordinator's local image (every worker's
// digest was already verified against it by the dist backend itself).
func runConfig(prog *source.Program, seed uint64, low *Lowered, cfg backendConfig, sink obs.Sink) (*Instance, error) {
	opts := cfg.opts
	opts.Sink = sink
	if !cfg.dist {
		in := low.NewInstance(cfg.checkSim)
		_, err := cfg.backend.Run(low.Graph, rts.BindClosure(in.Binder()), opts)
		return in, err
	}
	bound, err := rts.Bind(low.Graph, FuzzBinding(prog, seed))
	if err != nil {
		return nil, err
	}
	if _, err := cfg.backend.Run(low.Graph, bound, opts); err != nil {
		return nil, err
	}
	return InstanceOf(bound), nil
}

// captureTrace re-runs one matrix configuration with an event sink
// attached and returns the collected trace (nil if the re-run errors).
func captureTrace(prog *source.Program, seed uint64, low *Lowered, cfg backendConfig) *obs.Trace {
	var col obs.Collector
	if _, err := runConfig(prog, seed, low, cfg, &col); err != nil {
		return nil
	}
	return col.Trace
}

// CheckSeed generates program #seed and checks it.
func CheckSeed(seed uint64, cfg GenConfig) (*Report, *source.Program) {
	prog := NewGen(seed, cfg).Program()
	return CheckProgram(prog, seed), prog
}

// CheckSeedDist generates program #seed and checks it including the
// dist rung.
func CheckSeedDist(seed uint64, cfg GenConfig) (*Report, *source.Program) {
	prog := NewGen(seed, cfg).Program()
	return CheckProgramDist(prog, seed), prog
}
