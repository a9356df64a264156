// Package interp is a reference interpreter for the mini-Fortran
// language: it executes programs directly over concrete memory. Its
// purpose is validation — the split and pipelining transformations must
// preserve sequential semantics, so the test suite runs original and
// transformed programs on identical inputs and compares the final
// memory states.
//
// Arrays are stored column-major with 1-based subscripts, as in
// Fortran. External functions resolve through a registry; unregistered
// functions default to a deterministic pure function of their
// arguments, so transformed programs that duplicate call sites remain
// comparable.
package interp

import (
	"fmt"
	"math"

	"orchestra/internal/source"
)

// Func is an external pure function.
type Func func(args []float64) float64

// Memory is the storage a program is evaluated over: named scalars,
// and array elements addressed by their evaluated 1-based subscripts.
// State is the plain implementation; the differential fuzzer's
// versioned image (internal/fuzz) is the other. Load and Store resolve
// subscripts with Offset, which raises the bounds failures, and must
// not retain idx past the call.
type Memory interface {
	Scalar(name string) (v float64, bound bool)
	SetScalar(name string, v float64)
	Load(array string, idx []int64) float64
	Store(array string, idx []int64, v float64)
}

// State is the interpreter's memory.
type State struct {
	Scalars map[string]float64
	Arrays  map[string][]float64
	Dims    map[string][]int
	Funcs   map[string]Func

	// Steps counts executed statements (a safety valve against runaway
	// loops in malformed inputs).
	Steps    int
	MaxSteps int

	// OnLoad and OnStore, when non-nil, observe every array element
	// access (1-based indices, valid for the duration of the call). The
	// soundness tests use them to record ground-truth access sets.
	OnLoad  func(array string, idx []int64)
	OnStore func(array string, idx []int64)
}

// NewState prepares empty memory.
func NewState() *State {
	return &State{
		Scalars:  map[string]float64{},
		Arrays:   map[string][]float64{},
		Dims:     map[string][]int{},
		Funcs:    map[string]Func{},
		MaxSteps: 50_000_000,
	}
}

// DefaultFunc is the deterministic stand-in for unregistered external
// functions: a smooth, argument-dependent value.
func DefaultFunc(args []float64) float64 {
	v := 0.5
	for i, a := range args {
		v += math.Sin(a+float64(i)) * 0.5
	}
	return v
}

// Alloc declares an array with the given extents and zero contents.
func (st *State) Alloc(name string, dims ...int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	st.Arrays[name] = make([]float64, n)
	st.Dims[name] = append([]int{}, dims...)
}

// Scalar implements Memory.
func (st *State) Scalar(name string) (float64, bool) {
	v, ok := st.Scalars[name]
	return v, ok
}

// SetScalar implements Memory.
func (st *State) SetScalar(name string, v float64) { st.Scalars[name] = v }

// Load implements Memory.
func (st *State) Load(array string, idx []int64) float64 {
	if st.OnLoad != nil {
		st.OnLoad(array, idx)
	}
	return st.Arrays[array][Offset(array, st.Dims[array], idx)]
}

// Store implements Memory.
func (st *State) Store(array string, idx []int64, v float64) {
	if st.OnStore != nil {
		st.OnStore(array, idx)
	}
	st.Arrays[array][Offset(array, st.Dims[array], idx)] = v
}

// Offset computes the column-major flat index of 1-based subscripts
// idx into an array of extents dims (nil for an undeclared array). A
// Memory calls it from Load and Store; a bad reference fails the
// evaluation in progress, which Exec or Value then return as an error.
func Offset(array string, dims []int, idx []int64) int {
	if dims == nil {
		fail("undeclared array %s", array)
	}
	if len(idx) != len(dims) {
		fail("array %s: %d subscripts for %d dims", array, len(idx), len(dims))
	}
	off := 0
	stride := 1
	for k, i := range idx {
		if i < 1 || i > int64(dims[k]) {
			fail("array %s: subscript %d = %d out of [1,%d]", array, k+1, i, dims[k])
		}
		off += (int(i) - 1) * stride
		stride *= dims[k]
	}
	return off
}

// runtimeError is raised through panic/recover inside the evaluator.
type runtimeError struct{ err error }

func fail(format string, args ...interface{}) {
	panic(runtimeError{fmt.Errorf(format, args...)})
}

// caught, deferred by Exec and Value, turns the evaluation failure in
// flight, if any, into their error result.
func caught(err *error) {
	if r := recover(); r != nil {
		re, ok := r.(runtimeError)
		if !ok {
			panic(r)
		}
		*err = re.err
	}
}

// Run executes the program. The caller must have declared scalars (via
// Scalars) and arrays (via Alloc) for the program's declarations; Run
// verifies array declarations match the allocated dimensionality.
func Run(p *source.Program, st *State) error {
	for _, d := range p.Decls {
		if d.IsArray() {
			dims, ok := st.Dims[d.Name]
			if !ok {
				return fmt.Errorf("array %s not allocated", d.Name)
			}
			if len(dims) != len(d.Dims) {
				return fmt.Errorf("array %s allocated with %d dims, declared with %d",
					d.Name, len(dims), len(d.Dims))
			}
		} else if _, ok := st.Scalars[d.Name]; !ok {
			st.Scalars[d.Name] = 0
		}
	}
	ev := Eval{Mem: st, Funcs: st.Funcs, Steps: st.Steps, MaxSteps: st.MaxSteps}
	err := ev.Exec(p.Body)
	st.Steps = ev.Steps
	return err
}

// Eval evaluates statements and expressions over a Memory: the one
// definition of the language's dynamic semantics. The zero value with
// Mem set is ready to use.
type Eval struct {
	Mem Memory
	// Funcs resolves external functions; unregistered ones evaluate to
	// DefaultFunc.
	Funcs map[string]Func
	// Steps counts executed statements and loop iterations; exceeding a
	// positive MaxSteps fails the evaluation.
	Steps    int
	MaxSteps int

	// env holds the induction variables of the do-loops in progress (and
	// Bind's variables). They shadow Mem's scalars of the same name for
	// the loop's extent and never reach Mem, so a completed loop leaks no
	// iteration state into comparisons of final memory (the analysis
	// likewise treats the post-loop value as opaque).
	env map[string]float64
	// idx is the stack of subscripts under evaluation; a subscript may
	// itself contain array references.
	idx []int64
}

// Bind sets a variable in the evaluator's own scope, as an enclosing
// do-loop would its induction variable.
func (ev *Eval) Bind(name string, v float64) {
	if ev.env == nil {
		ev.env = map[string]float64{}
	}
	ev.env[name] = v
}

// Exec executes the statements in order. A runtime failure (a bad
// subscript, division by zero, the step limit) stops it and is
// returned.
func (ev *Eval) Exec(body []source.Stmt) (err error) {
	defer caught(&err)
	ev.execStmts(body)
	return nil
}

// Value evaluates one expression.
func (ev *Eval) Value(e source.Expr) (v float64, err error) {
	defer caught(&err)
	return ev.eval(e), nil
}

func (ev *Eval) step() {
	ev.Steps++
	if ev.MaxSteps > 0 && ev.Steps > ev.MaxSteps {
		fail("step limit exceeded (%d)", ev.MaxSteps)
	}
}

func (ev *Eval) execStmts(body []source.Stmt) {
	for _, s := range body {
		ev.execStmt(s)
	}
}

func (ev *Eval) execStmt(s source.Stmt) {
	ev.step()
	switch s := s.(type) {
	case *source.Assign:
		v := ev.eval(s.RHS)
		switch lhs := s.LHS.(type) {
		case *source.Ident:
			if _, ok := ev.env[lhs.Name]; ok {
				ev.env[lhs.Name] = v
			} else {
				ev.Mem.SetScalar(lhs.Name, v)
			}
		case *source.ArrayRef:
			base := ev.subscripts(lhs)
			ev.Mem.Store(lhs.Name, ev.idx[base:], v)
			ev.idx = ev.idx[:base]
		default:
			fail("bad assignment target %T", s.LHS)
		}
	case *source.Do:
		ev.execDo(s)
	case *source.If:
		if truthy(ev.eval(s.Cond)) {
			ev.execStmts(s.Then)
		} else {
			ev.execStmts(s.Else)
		}
	case *source.CallStmt:
		// Subroutines are modelled as no-ops with argument evaluation;
		// programs under equivalence testing avoid them.
		for _, a := range s.Args {
			ev.eval(a)
		}
	default:
		fail("unknown statement %T", s)
	}
}

func (ev *Eval) execDo(d *source.Do) {
	outer, hadOuter := ev.env[d.Var]
	for _, r := range d.Ranges {
		lo := int(math.Round(ev.eval(r.Lo)))
		hi := int(math.Round(ev.eval(r.Hi)))
		stepBy := 1
		if r.Step != nil {
			stepBy = int(math.Round(ev.eval(r.Step)))
			if stepBy < 1 {
				fail("non-positive do step %d", stepBy)
			}
		}
		for i := lo; i <= hi; i += stepBy {
			ev.step()
			ev.Bind(d.Var, float64(i))
			if d.Where != nil && !truthy(ev.eval(d.Where)) {
				continue
			}
			ev.execStmts(d.Body)
		}
	}
	if hadOuter {
		ev.env[d.Var] = outer
	} else {
		delete(ev.env, d.Var)
	}
}

func truthy(v float64) bool { return v != 0 }

// subscripts evaluates a reference's subscripts onto the idx stack and
// returns where they start; the caller pops them.
func (ev *Eval) subscripts(ref *source.ArrayRef) int {
	base := len(ev.idx)
	for _, ix := range ref.Index {
		ev.idx = append(ev.idx, int64(math.Round(ev.eval(ix))))
	}
	return base
}

// NumValue is the value of a numeric literal.
func NumValue(n *source.Num) float64 {
	if n.IsReal {
		var v float64
		fmt.Sscanf(n.Text, "%g", &v)
		return v
	}
	return float64(n.Int)
}

func (ev *Eval) eval(e source.Expr) float64 {
	switch e := e.(type) {
	case *source.Num:
		return NumValue(e)
	case *source.Ident:
		if v, ok := ev.env[e.Name]; ok {
			return v
		}
		v, ok := ev.Mem.Scalar(e.Name)
		if !ok {
			fail("unbound scalar %s", e.Name)
		}
		return v
	case *source.ArrayRef:
		base := ev.subscripts(e)
		v := ev.Mem.Load(e.Name, ev.idx[base:])
		ev.idx = ev.idx[:base]
		return v
	case *source.FuncCall:
		args := make([]float64, len(e.Args))
		for i, a := range e.Args {
			args[i] = ev.eval(a)
		}
		if f, ok := ev.Funcs[e.Name]; ok {
			return f(args)
		}
		return DefaultFunc(args)
	case *source.Un:
		if e.Op == "-" {
			return -ev.eval(e.X)
		}
		fail("unknown unary %q", e.Op)
	case *source.Bin:
		switch e.Op {
		case "&&":
			return b2f(truthy(ev.eval(e.L)) && truthy(ev.eval(e.R)))
		case "||":
			return b2f(truthy(ev.eval(e.L)) || truthy(ev.eval(e.R)))
		}
		l, r := ev.eval(e.L), ev.eval(e.R)
		switch e.Op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			if r == 0 {
				fail("division by zero")
			}
			return l / r
		case "==":
			return b2f(l == r)
		case "!=":
			return b2f(l != r)
		case "<":
			return b2f(l < r)
		case "<=":
			return b2f(l <= r)
		case ">":
			return b2f(l > r)
		case ">=":
			return b2f(l >= r)
		}
		fail("unknown operator %q", e.Op)
	}
	fail("unknown expression %T", e)
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
