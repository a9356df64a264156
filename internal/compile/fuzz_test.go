package compile

import (
	"fmt"
	"strings"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/source"
	"orchestra/internal/stats"
)

// Randomized end-to-end correctness: generate random well-formed
// programs, compile them with every transformation enabled, and check
// the transformed program computes exactly what the original does.
// The generator produces the constructs the transformations act on —
// masked loops, affine subscripts, reductions, adjacent phases over
// shared arrays — while keeping subscripts provably in bounds.

// progGen builds a random program over a fixed set of declarations.
type progGen struct {
	rng    *stats.RNG
	arrays []string // 1-D real arrays
	mats   []string // 2-D real arrays
	sums   []string // reduction scalars
	nextID int
}

func newProgGen(rng *stats.RNG) *progGen {
	return &progGen{
		rng:    rng,
		arrays: []string{"u", "v", "w"},
		mats:   []string{"q", "r"},
		sums:   []string{"s1", "s2"},
	}
}

func (g *progGen) decls() string {
	return `  integer n
  integer mask(n)
  real ` + strings.Join(g.arrays, "(n), ") + `(n)
  real ` + strings.Join(g.mats, "(n, n), ") + `(n, n)
  real ` + strings.Join(g.sums, ", ")
}

// subscript yields an in-bounds index expression for induction var iv
// ranging over [2, n-1].
func (g *progGen) subscript(iv string) string {
	switch g.rng.Intn(4) {
	case 0:
		return iv
	case 1:
		return iv + " - 1"
	case 2:
		return iv + " + 1"
	default:
		return fmt.Sprintf("%d", 1+g.rng.Intn(3))
	}
}

// valueExpr yields a RHS reading from the arrays.
func (g *progGen) valueExpr(iv string) string {
	terms := []string{}
	for k := 0; k < 1+g.rng.Intn(2); k++ {
		switch g.rng.Intn(3) {
		case 0:
			terms = append(terms, fmt.Sprintf("%s(%s)",
				g.arrays[g.rng.Intn(len(g.arrays))], g.subscript(iv)))
		case 1:
			terms = append(terms, fmt.Sprintf("%s(%s, %s)",
				g.mats[g.rng.Intn(len(g.mats))], g.subscript(iv), g.subscript(iv)))
		default:
			terms = append(terms, fmt.Sprintf("%d", 1+g.rng.Intn(5)))
		}
	}
	return strings.Join(terms, " + ")
}

// loop yields one random top-level loop.
func (g *progGen) loop() string {
	g.nextID++
	iv := fmt.Sprintf("i%d", g.nextID)
	guard := ""
	if g.rng.Bernoulli(0.4) {
		op := "!="
		if g.rng.Bernoulli(0.5) {
			op = "=="
		}
		guard = fmt.Sprintf(" where (mask(%s) %s 0)", iv, op)
	}
	var body string
	switch g.rng.Intn(4) {
	case 0: // 1-D update
		body = fmt.Sprintf("    %s(%s) = %s\n",
			g.arrays[g.rng.Intn(len(g.arrays))], iv, g.valueExpr(iv))
	case 1: // column update of a matrix
		g.nextID++
		jv := fmt.Sprintf("i%d", g.nextID)
		body = fmt.Sprintf("    do %s = 2, n - 1\n      %s(%s, %s) = %s\n    end do\n",
			jv, g.mats[g.rng.Intn(len(g.mats))], jv, iv, g.valueExpr(jv))
	case 2: // reduction
		body = fmt.Sprintf("    %s = %s + %s\n",
			g.sums[g.rng.Intn(len(g.sums))], g.sums[g.rng.Intn(len(g.sums))], g.valueExpr(iv))
		// Ensure a well-formed self-update (s = s + e).
		s := g.sums[g.rng.Intn(len(g.sums))]
		body = fmt.Sprintf("    %s = %s + %s\n", s, s, g.valueExpr(iv))
	default: // conditional update
		body = fmt.Sprintf("    if (%s > 3) then\n      %s(%s) = 1\n    else\n      %s(%s) = 2\n    end if\n",
			iv, g.arrays[g.rng.Intn(len(g.arrays))], iv,
			g.arrays[g.rng.Intn(len(g.arrays))], iv)
	}
	return fmt.Sprintf("  do %s = 2, n - 1%s\n%s  end do\n", iv, guard, body)
}

// phasePair yields a masked producer updating one matrix column per
// iteration followed by a consumer reading the matrix — the shape the
// split transformation acts on (Figures 1–2).
func (g *progGen) phasePair() string {
	mat := g.mats[g.rng.Intn(len(g.mats))]
	dst := g.arrays[g.rng.Intn(len(g.arrays))]
	g.nextID++
	cv := fmt.Sprintf("i%d", g.nextID)
	g.nextID++
	rv := fmt.Sprintf("i%d", g.nextID)
	g.nextID++
	kv := fmt.Sprintf("i%d", g.nextID)
	op := "!="
	if g.rng.Bernoulli(0.5) {
		op = "=="
	}
	producer := fmt.Sprintf(
		"  do %s = 2, n - 1 where (mask(%s) %s 0)\n    do %s = 2, n - 1\n      %s(%s, %s) = %s\n    end do\n  end do\n",
		cv, cv, op, rv, mat, rv, cv, g.valueExpr(rv))
	consumer := fmt.Sprintf(
		"  do %s = 2, n - 1\n    %s(%s) = %s(2, %s) + %s(%s, %s)\n  end do\n",
		kv, dst, kv, mat, kv, mat, kv, kv)
	return producer + consumer
}

func (g *progGen) program(loops int) string {
	var b strings.Builder
	b.WriteString("program fuzz\n")
	b.WriteString(g.decls())
	b.WriteString("\n")
	// At least one split-friendly producer/consumer pair, then filler.
	b.WriteString(g.phasePair())
	for i := 0; i < loops; i++ {
		if g.rng.Bernoulli(0.35) {
			b.WriteString(g.phasePair())
		} else {
			b.WriteString(g.loop())
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func TestFuzzEquivalence(t *testing.T) {
	const trials = 60
	transforms := 0
	for trial := 0; trial < trials; trial++ {
		rng := stats.NewRNG(uint64(trial) * 7919)
		gen := newProgGen(rng)
		src := gen.program(2 + rng.Intn(3))

		if _, err := source.Parse(src); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v\n%s", trial, err, src)
		}
		// Observed variables: everything the original program declares.
		arrays := append(append([]string{}, gen.arrays...), gen.mats...)
		arrays = append(arrays, "mask")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v\n%s", trial, r, src)
				}
			}()
			out := checkEquivalent(t, src, 9, uint64(trial), DefaultOptions(), arrays, gen.sums)
			transforms += len(out.Report)
		}()
		if t.Failed() {
			t.Fatalf("trial %d failed; program:\n%s", trial, src)
		}
	}
	// The fuzz must actually exercise the transformations, not just
	// pass programs through.
	if transforms < trials/3 {
		t.Fatalf("only %d transformations across %d trials; fuzz too tame", transforms, trials)
	}
}

func TestFuzzWithFusion(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableFusion = true
	for trial := 0; trial < 30; trial++ {
		rng := stats.NewRNG(uint64(trial)*104729 + 5)
		gen := newProgGen(rng)
		src := gen.program(3)
		arrays := append(append([]string{}, gen.arrays...), gen.mats...)
		checkEquivalent(t, src, 8, uint64(trial), opts, arrays, gen.sums)
		if t.Failed() {
			t.Fatalf("trial %d failed; program:\n%s", trial, src)
		}
	}
}

func TestFuzzGraphsExecute(t *testing.T) {
	// Tier 2: the compiled dataflow graphs of random programs must
	// validate and execute to completion on the simulated machine.
	for trial := 0; trial < 12; trial++ {
		rng := stats.NewRNG(uint64(trial)*31337 + 11)
		gen := newProgGen(rng)
		srcText := gen.program(2 + rng.Intn(2))
		out := compileSrc(t, srcText, DefaultOptions())
		if err := out.Graph.Validate(); err != nil {
			t.Fatalf("trial %d: invalid graph: %v", trial, err)
		}
		bind := func(string) rts.OpSpec {
			spec := rts.OpSpec{Op: sched.Op{
				N: 256, Bytes: 16,
				Time: func(int) float64 { return 1 },
				Hint: func(int) float64 { return 1 },
			}}
			spec.SampleStats(16)
			return spec
		}
		r, err := rts.RunGraph(machine.DefaultConfig(32), out.Graph, bind, rts.RunOpts{Processors: 32, Mode: rts.ModeSplit})
		if err != nil {
			t.Fatalf("trial %d: execution: %v\ngraph:\n%s", trial, err, out.Graph.Encode())
		}
		if r.Makespan <= 0 {
			t.Fatalf("trial %d: empty result", trial)
		}
	}
}
