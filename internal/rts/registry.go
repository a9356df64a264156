package rts

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"orchestra/internal/delirium"
)

// This file is the kernel registry: the named, serializable successor
// to the closure-only Binder. A Binder is a Go closure and therefore
// cannot cross a process boundary; the distributed backend forks
// worker processes that must rebuild the exact same executable kernels
// from data alone. The redesign splits a binding into two halves:
//
//   - Binding: pure data — a default kernel name, an optional
//     per-operator override table (graph op → kernel name), and
//     string-keyed parameters. A Binding marshals to JSON and ships to
//     a worker process unchanged.
//   - KernelFunc: code — a named constructor registered once per
//     process (typically from an init function) that turns (graph,
//     params) into the executable OpSpec of one operator.
//
// Bind joins the halves: it resolves every graph node through the
// registry eagerly and returns a Bound, the value Backend.Run now
// consumes. Both sides of a socket resolve the same Binding against
// the same registry (the dist backend re-executes its own binary, so
// the registries are identical by construction), which is what makes
// "ship the name, not the closure" sound.

// KernelParams is the serializable parameter set of a Binding: string
// keys to string values, with typed accessors. Strings keep the wire
// format trivial and diff-friendly; kernels parse what they need and
// fall back to defaults for absent keys.
type KernelParams map[string]string

// Int returns the integer value of key, or def when absent/invalid.
func (p KernelParams) Int(key string, def int) int {
	if v, ok := p[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// Uint64 returns the uint64 value of key, or def when absent/invalid.
func (p KernelParams) Uint64(key string, def uint64) uint64 {
	if v, ok := p[key]; ok {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Float returns the float value of key, or def when absent/invalid.
func (p KernelParams) Float(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// Str returns the string value of key, or def when absent.
func (p KernelParams) Str(key, def string) string {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// SetInt stores an integer parameter.
func (p KernelParams) SetInt(key string, v int) { p[key] = strconv.Itoa(v) }

// SetUint64 stores a uint64 parameter.
func (p KernelParams) SetUint64(key string, v uint64) { p[key] = strconv.FormatUint(v, 10) }

// SetFloat stores a float parameter.
func (p KernelParams) SetFloat(key string, v float64) {
	p[key] = strconv.FormatFloat(v, 'g', -1, 64)
}

// Binding names a run's kernels in serializable form: every graph op
// binds to the registered kernel Kernel, instantiated with Params. The
// zero Binding is invalid.
type Binding struct {
	// Kernel is the kernel name for every operator.
	Kernel string `json:"kernel"`
	// Params parameterizes the kernels (problem size, seed, work).
	Params KernelParams `json:"params,omitempty"`
}

// NamedBinding builds a Binding of one kernel for every operator.
func NamedBinding(kernel string, params KernelParams) Binding {
	return Binding{Kernel: kernel, Params: params}
}

// BindEnv is the instantiation context a run's kernels share: the
// graph, the binding parameters, and a memo space for state that spans
// operators (a kernel family that exchanges data through a common
// memory image builds that image once under a memo key). One BindEnv
// belongs to exactly one Bound, and a Bound runs one execution at a
// time: every execution begins from the state Bind leaves, in a fresh
// binding or in one whose registered reset restored it (SetReset).
type BindEnv struct {
	Graph  *delirium.Graph
	Params KernelParams

	mu     sync.Mutex
	memo   map[string]any
	digest func() string
	reset  func()
}

// Memo returns the value under key, building it on first use. Kernel
// constructors use it for whole-graph shared state. The build function
// runs without the environment lock held, so it may call SetDigest;
// Bind resolves operators from one goroutine, which is what bounds the
// build to once per environment.
func (e *BindEnv) Memo(key string, build func() (any, error)) (any, error) {
	e.mu.Lock()
	if v, ok := e.memo[key]; ok {
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()
	v, err := build()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.memo[key]; ok {
		// A concurrent caller raced the build; keep the first value so
		// every operator shares one state.
		return prior, nil
	}
	if e.memo == nil {
		e.memo = map[string]any{}
	}
	e.memo[key] = v
	return v, nil
}

// SetDigest registers the run's result-digest function: a fingerprint
// of the kernels' final memory image, comparable bitwise across
// backends. Kernels whose tasks produce durable data call it from
// their constructor.
func (e *BindEnv) SetDigest(fn func() string) {
	e.mu.Lock()
	e.digest = fn
	e.mu.Unlock()
}

// Digest evaluates the registered digest function. ok is false when
// the bound kernels produce no digestible state (synthetic timing
// kernels).
func (e *BindEnv) Digest() (d string, ok bool) {
	e.mu.Lock()
	fn := e.digest
	e.mu.Unlock()
	if fn == nil {
		return "", false
	}
	return fn(), true
}

// SetReset registers how the kernels' state returns to what Bind left,
// so that one Bound can serve execution after execution. Kernels whose
// state a run only reads register a no-op; kernels that register
// nothing are never reused, and every execution binds them afresh.
func (e *BindEnv) SetReset(fn func()) {
	e.mu.Lock()
	e.reset = fn
	e.mu.Unlock()
}

// KernelFunc constructs the executable OpSpec of one graph operator.
// The environment carries the graph, the binding parameters, and the
// run's shared state; op is the graph node name. Constructors are
// called once per operator at Bind time, in topological order.
type KernelFunc func(env *BindEnv, op string) (OpSpec, error)

// KernelRegistry maps kernel names to constructors. Registration
// happens at package init time (each kernel family registers itself),
// resolution at Bind time; both sides of a dist socket see the same
// registry because worker processes re-execute the same binary.
type KernelRegistry struct {
	mu sync.RWMutex
	m  map[string]KernelFunc
}

// NewKernelRegistry returns an empty registry.
func NewKernelRegistry() *KernelRegistry {
	return &KernelRegistry{m: map[string]KernelFunc{}}
}

// Register adds a named kernel constructor. Empty names and duplicate
// registrations are errors — a duplicate almost always means two
// packages fighting over a name, which would make Binding resolution
// binary-order dependent.
func (r *KernelRegistry) Register(name string, fn KernelFunc) error {
	if name == "" {
		return fmt.Errorf("rts: kernel registration with empty name")
	}
	if fn == nil {
		return fmt.Errorf("rts: kernel %q registered with nil constructor", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("rts: kernel %q registered twice", name)
	}
	r.m[name] = fn
	return nil
}

// MustRegister is Register for init functions: it panics on error.
func (r *KernelRegistry) MustRegister(name string, fn KernelFunc) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Resolve returns the constructor registered under name.
func (r *KernelRegistry) Resolve(name string) (KernelFunc, error) {
	r.mu.RLock()
	fn, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rts: unknown kernel %q (registered: %v)", name, r.Names())
	}
	return fn, nil
}

// Names lists the registered kernel names, sorted.
func (r *KernelRegistry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Kernels is the process-wide kernel registry every kernel family
// registers into and Bind resolves against.
var Kernels = NewKernelRegistry()

// Bound is an instantiated binding: the serializable Binding (what can
// cross a process boundary) plus the resolved in-process kernels (what
// an engine executes). Backends consume Bound — shared-memory backends
// use the resolved specs, the dist backend ships the Binding and lets
// each worker re-resolve it.
type Bound struct {
	// Binding is the name-level form. Zero (empty Kernel) for closure
	// bindings, which cannot be shipped.
	Binding Binding
	// Env is the kernels' shared instantiation context; nil for
	// closure bindings.
	Env *BindEnv

	specs   map[string]OpSpec
	closure Binder
}

// Spec resolves one operator, exactly like the legacy Binder call.
func (b *Bound) Spec(op string) OpSpec {
	if b.closure != nil {
		return b.closure(op)
	}
	return b.specs[op]
}

// Binder adapts the Bound back to the closure form the execution
// engines consume.
func (b *Bound) Binder() Binder { return b.Spec }

// Shippable reports whether the binding can cross a process boundary:
// true for registry-named bindings, false for BindClosure values.
func (b *Bound) Shippable() bool { return b.closure == nil }

// Digest evaluates the bound kernels' result digest, if any.
func (b *Bound) Digest() (string, bool) {
	if b.Env == nil {
		return "", false
	}
	return b.Env.Digest()
}

// Reset restores the bound kernels' state to what Bind left, through
// the reset their constructors registered (BindEnv.SetReset). It
// reports false, touching nothing, when none is registered: the caller
// then binds afresh. The caller must own the Bound: no execution may
// be running on it.
func (b *Bound) Reset() bool {
	if b.Env == nil {
		return false
	}
	b.Env.mu.Lock()
	fn := b.Env.reset
	b.Env.mu.Unlock()
	if fn == nil {
		return false
	}
	fn()
	return true
}

// BindWith instantiates binding against g using registry r: every
// graph node's kernel is resolved and constructed eagerly, so unknown
// names and invalid parameters fail here rather than mid-execution.
func BindWith(r *KernelRegistry, g *delirium.Graph, binding Binding) (*Bound, error) {
	if binding.Kernel == "" {
		return nil, fmt.Errorf("rts: empty binding (no kernel name)")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	fn, err := r.Resolve(binding.Kernel)
	if err != nil {
		return nil, err
	}
	env := &BindEnv{Graph: g, Params: binding.Params}
	specs := make(map[string]OpSpec, len(order))
	for _, nd := range order {
		spec, err := fn(env, nd.Name)
		if err != nil {
			return nil, fmt.Errorf("rts: kernel %q for op %q: %w", binding.Kernel, nd.Name, err)
		}
		specs[nd.Name] = spec
	}
	return &Bound{Binding: binding, Env: env, specs: specs}, nil
}

// Bind instantiates binding against the process-wide registry.
func Bind(g *delirium.Graph, binding Binding) (*Bound, error) {
	return BindWith(Kernels, g, binding)
}

// BindClosure wraps a raw Binder closure as a Bound for engine-level
// tests and in-process harnesses. The result is not Shippable: the
// dist backend rejects it, because a closure cannot be rebuilt inside
// a worker process.
func BindClosure(bind Binder) *Bound {
	return &Bound{closure: bind}
}
