package rts

import (
	"strings"
	"testing"

	"orchestra/internal/delirium"
)

func twoNodeGraph(t *testing.T) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("t")
	for _, n := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b"})
	return g
}

// TestKernelRegistryRegistration pins the registry contract: empty
// names, nil constructors and duplicates are refused (a duplicate
// would make Binding resolution depend on package init order).
func TestKernelRegistryRegistration(t *testing.T) {
	r := NewKernelRegistry()
	fn := func(*BindEnv, string) (OpSpec, error) { return OpSpec{}, nil }
	if err := r.Register("k", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("k", fn); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register("", fn); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register("nil", nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "k" {
		t.Fatalf("names %v, want [k]", names)
	}
}

// TestBindUnknownKernel checks Bind fails eagerly — at bind time, with
// the unknown name and the registered alternatives in the message —
// rather than mid-execution.
func TestBindUnknownKernel(t *testing.T) {
	r := NewKernelRegistry()
	r.MustRegister("real", func(*BindEnv, string) (OpSpec, error) { return OpSpec{}, nil })
	g := twoNodeGraph(t)
	_, err := BindWith(r, g, NamedBinding("ghost", nil))
	if err == nil {
		t.Fatal("unknown kernel bound")
	}
	if !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "real") {
		t.Fatalf("error %q should name the unknown kernel and the registered set", err)
	}
	if _, err := BindWith(r, g, Binding{}); err == nil {
		t.Fatal("empty binding accepted")
	}
	// A registry binding, unlike a closure, can cross a socket.
	if b, err := BindWith(r, g, NamedBinding("real", nil)); err != nil || !b.Shippable() {
		t.Fatalf("registry binding: err %v, shippable %v", err, err == nil && b.Shippable())
	}
}

// TestBindClosureNotShippable pins the one asymmetry of the redesign:
// a closure binding executes locally but can never cross a socket.
func TestBindClosureNotShippable(t *testing.T) {
	b := BindClosure(func(string) OpSpec { return OpSpec{Mu: 7} })
	if b.Shippable() {
		t.Fatal("closure binding claims to be shippable")
	}
	if b.Spec("anything").Mu != 7 {
		t.Fatal("closure not consulted")
	}
	if _, ok := b.Digest(); ok {
		t.Fatal("closure binding has no digest source")
	}
}

// TestBindEnvMemoAndDigest checks the shared-state path kernels use:
// one build per key, and SetDigest callable from inside the build
// (the build runs without the environment lock held).
func TestBindEnvMemoAndDigest(t *testing.T) {
	env := &BindEnv{Params: KernelParams{}}
	builds := 0
	for i := 0; i < 3; i++ {
		v, err := env.Memo("k", func() (any, error) {
			builds++
			env.SetDigest(func() string { return "d" })
			return 42, nil
		})
		if err != nil || v.(int) != 42 {
			t.Fatalf("memo: %v, %v", v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want once", builds)
	}
	if d, ok := env.Digest(); !ok || d != "d" {
		t.Fatalf("digest %q, %v", d, ok)
	}
}

// TestBoundReset pins the reset contract: Reset runs what the kernels
// registered and reports true, and reports false when they registered
// nothing or the Bound wraps a closure.
func TestBoundReset(t *testing.T) {
	r := NewKernelRegistry()
	resets := 0
	r.MustRegister("resettable", func(env *BindEnv, op string) (OpSpec, error) {
		env.SetReset(func() { resets++ })
		return OpSpec{}, nil
	})
	r.MustRegister("plain", func(env *BindEnv, op string) (OpSpec, error) { return OpSpec{}, nil })
	g := twoNodeGraph(t)
	b, err := BindWith(r, g, NamedBinding("resettable", nil))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reset() || resets != 1 {
		t.Errorf("registered reset: Reset ran it %d times", resets)
	}
	plain, err := BindWith(r, g, NamedBinding("plain", nil))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Reset() {
		t.Error("Reset reports true with no reset registered")
	}
	if BindClosure(func(string) OpSpec { return OpSpec{} }).Reset() {
		t.Error("Reset reports true on a closure binding")
	}
}

// TestKernelParamsRoundTrip checks the typed accessors and setters
// agree, and defaults apply on absent or malformed values.
func TestKernelParamsRoundTrip(t *testing.T) {
	p := KernelParams{}
	p.SetInt("n", 1024)
	p.SetUint64("seed", 1<<40)
	p.SetFloat("cv", 1.5)
	if p.Int("n", 0) != 1024 || p.Uint64("seed", 0) != 1<<40 || p.Float("cv", 0) != 1.5 {
		t.Fatalf("round trip failed: %v", p)
	}
	if p.Int("missing", 7) != 7 || p.Float("n", 0) != 1024 {
		t.Fatal("defaults or cross-type reads wrong")
	}
	p["bad"] = "zzz"
	if p.Int("bad", 3) != 3 {
		t.Fatal("malformed value should fall back to the default")
	}
	if p.Str("bad", "") != "zzz" {
		t.Fatal("Str should return the raw value")
	}
}

// TestBackendRegistryNames checks the global registry holds exactly
// the compiled-in backends that registered from this package (sim) —
// native and dist register from their own packages, so from inside
// rts only sim is visible, which keeps the test hermetic.
func TestBackendRegistryNames(t *testing.T) {
	names := BackendNames()
	found := false
	for _, n := range names {
		if n == "sim" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sim not registered: %v", names)
	}
	info, ok := LookupBackend("sim")
	if !ok || info.Measured {
		t.Fatalf("sim info wrong: %+v ok=%v", info, ok)
	}
	if _, err := OpenBackend("no-such-backend"); err == nil ||
		!strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("unknown backend error should name it, got %v", err)
	}
	be, err := OpenBackend("sim")
	if err != nil || be.Name() != "sim" {
		t.Fatalf("open sim: %v, %v", be, err)
	}
}
