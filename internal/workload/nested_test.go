package workload_test

import (
	"testing"

	"orchestra/internal/compile"
	"orchestra/internal/machine"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// nestedCfg exercises three expansion levels: 200 → 67 → 23 → 8-element
// leaves at Branch=3, Leaf=16.
var nestedCfg = workload.NestedConfig{N: 200, Branch: 3, Leaf: 16, Cells: 6, Threshold: 0.5}

// runResult executes one fresh instance on the named backend.
// Instances are single-use (arrays start zeroed exactly once), so
// every call site builds a fresh one.
func runResult(t *testing.T, backend string, in *workload.NestedInstance, mode rts.Mode, p int) trace.Result {
	t.Helper()
	var be rts.Backend
	switch backend {
	case "sim":
		be = rts.NewSimBackend(machine.DefaultConfig(p))
	case "native":
		be = native.Backend{}
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	r, err := be.Run(in.Graph, rts.BindClosure(in.Binder()), rts.RunOpts{Processors: p, Mode: mode})
	if err != nil {
		t.Fatalf("%s run: %v", backend, err)
	}
	return r
}

// runInstance executes one fresh instance and returns its digest.
func runInstance(t *testing.T, backend string, in *workload.NestedInstance, mode rts.Mode, p int) string {
	t.Helper()
	runResult(t, backend, in, mode, p)
	return in.Digest()
}

// unrolledDC statically unrolls a fresh DC instance into its flat
// reference graph and binder.
func unrolledDC(t *testing.T, cfg workload.NestedConfig) *workload.NestedInstance {
	t.Helper()
	in, err := workload.NewDC(cfg)
	if err != nil {
		t.Fatalf("NewDC: %v", err)
	}
	fg, fb, err := compile.Unroll(in.Graph, in.Binder())
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	in.Graph = fg
	in.SetBinder(fb)
	return in
}

func TestNestedDCDigestParity(t *testing.T) {
	for _, backend := range []string{"sim", "native"} {
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
			for _, p := range []int{1, 2, 4} {
				t.Run(backend+"/"+mode.String()+"/p"+string(rune('0'+p)), func(t *testing.T) {
					nested, err := workload.NewDC(nestedCfg)
					if err != nil {
						t.Fatalf("NewDC: %v", err)
					}
					got := runInstance(t, backend, nested, mode, p)
					flat := unrolledDC(t, nestedCfg)
					want := runInstance(t, backend, flat, mode, p)
					if got != want {
						t.Fatalf("nested digest %s != flat digest %s", got, want)
					}
				})
			}
		}
	}
}

// TestNestedVortexDigestParity compares runtime expansion with the
// statically flattened graph of the same refinement. Digests must
// match in every cell. On the simulator in split mode the schedules
// must coincide too — the spliced sub-tasks feed the same deques, so
// expansion costs nothing: equal makespan and equal steals. (Static and
// TAPER put barriers between operators, so the two graph shapes are
// scheduled differently there and their makespans differ slightly.)
func TestNestedVortexDigestParity(t *testing.T) {
	for _, backend := range []string{"sim", "native"} {
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
			for _, p := range []int{1, 2, 4} {
				t.Run(backend+"/"+mode.String()+"/p"+string(rune('0'+p)), func(t *testing.T) {
					nested, err := workload.NewVortex(nestedCfg)
					if err != nil {
						t.Fatalf("NewVortex: %v", err)
					}
					got := runResult(t, backend, nested, mode, p)
					flat, err := workload.VortexFlat(nestedCfg)
					if err != nil {
						t.Fatalf("VortexFlat: %v", err)
					}
					want := runResult(t, backend, flat, mode, p)
					if nested.Digest() != flat.Digest() {
						t.Fatalf("nested digest %s != flat digest %s", nested.Digest(), flat.Digest())
					}
					if backend == "sim" && mode == rts.ModeSplit &&
						(got.Makespan != want.Makespan || got.Steals != want.Steals) {
						t.Fatalf("nested makespan %v steals %d != flat makespan %v steals %d",
							got.Makespan, got.Steals, want.Makespan, want.Steals)
					}
				})
			}
		}
	}
}

// TestNestedBaseCase covers the fork-join degenerate case: the whole
// range fits one leaf, the expansion returns nil, and the operator
// keeps only its join task. Nested and unrolled digests still match.
func TestNestedBaseCase(t *testing.T) {
	cfg := workload.NestedConfig{N: 16, Branch: 3, Leaf: 32, Cells: 2, Threshold: 0.5}
	for _, backend := range []string{"sim", "native"} {
		t.Run(backend, func(t *testing.T) {
			nested, err := workload.NewDC(cfg)
			if err != nil {
				t.Fatalf("NewDC: %v", err)
			}
			got := runInstance(t, backend, nested, rts.ModeSplit, 2)
			flat := unrolledDC(t, cfg)
			want := runInstance(t, backend, flat, rts.ModeSplit, 2)
			if got != want {
				t.Fatalf("nested digest %s != flat digest %s", got, want)
			}
		})
	}
}

// TestNestedRegistryKernel binds the DC graph through the "nested"
// registry family and checks the bound digest matches a closure run.
func TestNestedRegistryKernel(t *testing.T) {
	ref, err := workload.NewDC(nestedCfg)
	if err != nil {
		t.Fatalf("NewDC: %v", err)
	}
	want := runInstance(t, "native", ref, rts.ModeSplit, 4)

	inst, err := workload.NewDC(nestedCfg)
	if err != nil {
		t.Fatalf("NewDC: %v", err)
	}
	params := rts.KernelParams{}
	params.SetInt("n", nestedCfg.N)
	params.SetInt("branch", nestedCfg.Branch)
	params.SetInt("leaf", nestedCfg.Leaf)
	params.SetInt("cells", nestedCfg.Cells)
	params.SetFloat("threshold", nestedCfg.Threshold)
	bound, err := rts.Bind(inst.Graph, rts.NamedBinding("nested", params))
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if _, err := (native.Backend{}).Run(inst.Graph, bound, rts.RunOpts{Processors: 4, Mode: rts.ModeSplit}); err != nil {
		t.Fatalf("native run: %v", err)
	}
	got, ok := bound.Digest()
	if !ok {
		t.Fatal("bound kernels produced no digest")
	}
	if got != want {
		t.Fatalf("registry digest %s != closure digest %s", got, want)
	}
}
