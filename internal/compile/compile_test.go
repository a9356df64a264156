package compile

import (
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/source"
)

const figure1 = `
program sample
  integer n
  integer mask(n)
  real result(n), q(n, n), output(n, n), w(n)

  do col = 1, n where (mask(col) != 0)
    do i = 1, n
      result(i) = 0
      do j = 1, n
        result(i) = result(i) + q(j, i) * w(j)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do

  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end
`

func compileSrc(t *testing.T, src string, opts Options) *Output {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return out
}

func TestCompileFigure1Full(t *testing.T) {
	out := compileSrc(t, figure1, DefaultOptions())
	// Loop A pipelines (AI/AD/AM); loop B splits (BI/BD).
	names := map[string]bool{}
	for _, u := range out.Units {
		names[u.Role] = true
	}
	for _, role := range []string{"AI", "AD", "AM", "CI", "CD"} {
		if !names[role] {
			t.Errorf("missing %s unit; report: %v", role, out.Report)
		}
	}
	// The graph validates and has the carried self-edge on AD.
	carried := false
	for _, e := range out.Graph.Edges {
		if e.Carried && e.From == e.To {
			carried = true
		}
	}
	if !carried {
		t.Fatal("no carried dependence recorded for the pipelined loop")
	}
	// The transformed program re-parses.
	text := source.Format(out.Program)
	if _, err := source.Parse(text); err != nil {
		t.Fatalf("transformed program does not parse: %v\n%s", err, text)
	}
	// The split output contains the mask-complement guard.
	if !strings.Contains(text, "mask(i) == 0") {
		t.Fatalf("BI guard missing:\n%s", text)
	}
}

func TestCompileGraphConcurrency(t *testing.T) {
	out := compileSrc(t, figure1, DefaultOptions())
	// BI must be concurrent with the pipelined A units: no path from
	// any A unit to the CI unit.
	var ci string
	for _, u := range out.Units {
		if u.Role == "CI" {
			ci = u.Name
		}
	}
	if ci == "" {
		t.Fatal("no CI unit")
	}
	if len(out.Graph.Preds(ci)) != 0 {
		t.Fatalf("CI has predecessors %v; should be independent", out.Graph.Preds(ci))
	}
}

func TestCompileNoTransforms(t *testing.T) {
	opts := Options{}
	out := compileSrc(t, figure1, opts)
	if len(out.Report) != 0 {
		t.Fatalf("transforms applied with options off: %v", out.Report)
	}
	// One unit per top-level computation, chained.
	if len(out.Units) != 2 {
		t.Fatalf("units = %d", len(out.Units))
	}
	order, err := out.Graph.TopoOrder()
	if err != nil || len(order) != 2 {
		t.Fatalf("graph order: %v %v", order, err)
	}
}

func TestCompileIndependentPrograms(t *testing.T) {
	out := compileSrc(t, `
program indep
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = 1
  end do
  do i = 1, n
    b(i) = 2
  end do
end
`, DefaultOptions())
	// No interference: no split; the two loops have no edges.
	levels, err := out.Graph.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || len(levels[0]) != 2 {
		t.Fatalf("independent loops should share a level: %v", levels)
	}
}

func TestCompileFigure4Reduction(t *testing.T) {
	out := compileSrc(t, `
program fig4
  integer n, a
  real x(n, n), y(n), sum

  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do

  do i = 1, n
    do j = 1, n
      sum = sum + x(i, j)
    end do
  end do
end
`, Options{EnableSplit: true, Split: DefaultOptions().Split})
	text := source.Format(out.Program)
	// Reduction replication and merge appear.
	if !strings.Contains(text, "sum = sum + sum_") && !strings.Contains(text, "sum = (sum + sum_") {
		t.Fatalf("reduction merge missing:\n%s", text)
	}
	// New declarations for the replicated scalars.
	if len(out.Program.Decls) < 6 {
		t.Fatalf("replicated decls missing: %d", len(out.Program.Decls))
	}
	// The CM unit exists and depends on both halves.
	var cm string
	for _, u := range out.Units {
		if u.Role == "CM" {
			cm = u.Name
		}
	}
	if cm == "" {
		t.Fatal("no merge unit")
	}
	if len(out.Graph.Preds(cm)) < 2 {
		t.Fatalf("merge preds = %v", out.Graph.Preds(cm))
	}
}

// TestCompileReductionOrder: a split loop carrying several reductions
// must compile to one program, its replicas numbered in the order the
// loop body first assigns the reduced scalars — not in the order a map
// of the loop's SSA names happens to iterate.
func TestCompileReductionOrder(t *testing.T) {
	const src = `
program fig4
  integer n, a
  real x(n, n), y(n), sum, prod, cnt

  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do

  do i = 1, n
    do j = 1, n
      sum = sum + x(i, j)
      prod = prod * x(i, j)
      cnt = cnt + 1
    end do
  end do
end
`
	first := compileSrc(t, src, DefaultOptions())
	want := source.Format(first.Program)
	var replicas []string
	for _, d := range first.Program.Decls {
		if strings.Contains(d.Name, "_") {
			replicas = append(replicas, d.Name)
		}
	}
	if got, pin := strings.Join(replicas, ", "), "sum_i1, sum_d1, prod_i2, prod_d2, cnt_i3, cnt_d3"; got != pin {
		t.Fatalf("replicated scalars %s, want %s\n%s", got, pin, want)
	}
	for k := 1; k < 50; k++ {
		if got := source.Format(compileSrc(t, src, DefaultOptions()).Program); got != want {
			t.Fatalf("compile %d differs from the first:\n%s\nfirst:\n%s", k, got, want)
		}
	}
}

func TestCompileGraphEncodes(t *testing.T) {
	out := compileSrc(t, figure1, DefaultOptions())
	text := out.Graph.Encode()
	g2, err := delirium.Decode(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if len(g2.Nodes) != len(out.Graph.Nodes) {
		t.Fatal("round trip lost nodes")
	}
}

func TestCompileWithFusion(t *testing.T) {
	src := `
program f
  integer n
  real a(n), b(n), c(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 1, n
    b(i) = a(i)
  end do
  do i = 1, n
    c(i) = 7
  end do
end
`
	opts := DefaultOptions()
	opts.EnableFusion = true
	out := compileSrc(t, src, opts)
	found := false
	for _, line := range out.Report {
		if strings.Contains(line, "fused") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fusion not reported: %v", out.Report)
	}
	// The fused program still parses and has fewer top-level loops.
	text := source.Format(out.Program)
	if strings.Count(text, "do i") >= 3+3 { // headers appear once per loop
		t.Fatalf("no loops fused:\n%s", text)
	}
}

func TestTripCountAnnotations(t *testing.T) {
	out := compileSrc(t, `
program p
  integer n
  real a(n), b(n)
  do i = 2, n - 1
    a(i) = i
  end do
  do i = 1, n
    b(i) = a(2)
  end do
end
`, DefaultOptions())
	want := map[string]string{}
	for _, nd := range out.Graph.Nodes {
		want[nd.Name] = nd.Tasks
	}
	foundTrip := false
	for _, tasks := range want {
		if tasks == "n-2" {
			foundTrip = true
		}
	}
	if !foundTrip {
		t.Fatalf("no n-2 trip count: %v", want)
	}
	// The annotated graph must round-trip through the textual format.
	g2, err := delirium.Decode(out.Graph.Encode())
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, out.Graph.Encode())
	}
	if g2.Encode() != out.Graph.Encode() {
		t.Fatal("encode not stable")
	}
}
