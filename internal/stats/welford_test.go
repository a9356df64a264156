package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, 32/7.
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 || w.N() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single observation: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) + 2
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		var all Welford
		for _, x := range xs {
			all.Add(x)
		}
		var a, b Welford
		for i, x := range xs {
			if i < n/2 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEq(a.Mean(), all.Mean(), 1e-9) &&
			almostEq(a.Variance(), all.Variance(), 1e-6) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Fatal("merge with empty changed accumulator")
	}
	var c Welford
	c.Merge(a) // merging into empty copies
	if c != a {
		t.Fatal("merge into empty did not copy")
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset with tiny variance: naive sum-of-squares would lose
	// all precision here.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		w.Add(x)
	}
	if !almostEq(w.Variance(), 1, 1e-6) {
		t.Fatalf("Variance = %v, want 1", w.Variance())
	}
}

func TestDistMeans(t *testing.T) {
	r := NewRNG(21)
	dists := []Dist{
		Constant{V: 4},
		UniformDist{Lo: 2, Hi: 6},
		NormalDist{Mu: 10, Sigma: 1, Floor: 0},
		LogNormalDist{Mu: 1, Sigma: 0.5},
		Bimodal{PA: 0.25, A: Constant{V: 1}, B: Constant{V: 9}},
		Scaled{K: 2, D: Constant{V: 3}},
	}
	for _, d := range dists {
		var w Welford
		for i := 0; i < 200000; i++ {
			w.Add(d.Sample(r))
		}
		tol := 0.03 * (d.Mean() + 1)
		if math.Abs(w.Mean()-d.Mean()) > tol {
			t.Errorf("%T: sample mean %v vs analytic %v", d, w.Mean(), d.Mean())
		}
	}
}

func TestNormalDistFloor(t *testing.T) {
	r := NewRNG(22)
	d := NormalDist{Mu: 1, Sigma: 5, Floor: 0.5}
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 0.5 {
			t.Fatalf("sample %v below floor", v)
		}
	}
}

func TestBimodalExtremes(t *testing.T) {
	r := NewRNG(23)
	alwaysA := Bimodal{PA: 1, A: Constant{V: 1}, B: Constant{V: 9}}
	for i := 0; i < 100; i++ {
		if alwaysA.Sample(r) != 1 {
			t.Fatal("PA=1 must always sample A")
		}
	}
	neverA := Bimodal{PA: 0, A: Constant{V: 1}, B: Constant{V: 9}}
	for i := 0; i < 100; i++ {
		if neverA.Sample(r) != 9 {
			t.Fatal("PA=0 must always sample B")
		}
	}
}

// TestAddChunkMatchesRepeatedAdd: folding an aggregate of k samples at
// mean m must be indistinguishable from adding m k times — count, mean,
// spread, and extrema. This is the contract ObserveChunk relies on for
// exact global means under amortized timing.
func TestAddChunkMatchesRepeatedAdd(t *testing.T) {
	prop := func(kRaw uint8, mRaw int16) bool {
		k := int(kRaw%50) + 1
		m := float64(mRaw) / 128
		var chunked, flat Welford
		chunked.AddChunk(k, m)
		for i := 0; i < k; i++ {
			flat.Add(m)
		}
		return chunked.N() == flat.N() &&
			almostEq(chunked.Mean(), flat.Mean(), 1e-12) &&
			almostEq(chunked.Variance(), flat.Variance(), 1e-12) &&
			chunked.Min() == flat.Min() && chunked.Max() == flat.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAddChunkInterleaved: arbitrary interleavings of Add and AddChunk
// must track the statistics of the expanded sample stream (each chunk
// expanded to k copies of its mean) exactly.
func TestAddChunkInterleaved(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		var w, ref Welford
		for i := 0; i < 40; i++ {
			x := math.Floor(r.Uniform(-4, 4)*16) / 16
			if r.Bernoulli(0.5) {
				k := 1 + int(r.Uint64()%9)
				w.AddChunk(k, x)
				for j := 0; j < k; j++ {
					ref.Add(x)
				}
			} else {
				w.Add(x)
				ref.Add(x)
			}
		}
		return w.N() == ref.N() &&
			almostEq(w.Mean(), ref.Mean(), 1e-9*(1+math.Abs(ref.Mean()))) &&
			almostEq(w.Variance(), ref.Variance(), 1e-9*(1+ref.Variance())) &&
			w.Min() == ref.Min() && w.Max() == ref.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAddChunkDegenerate pins the edge cases: non-positive counts are
// no-ops, a single-task chunk is exactly Add, and zero-duration chunks
// (mean 0) are legitimate observations, not errors.
func TestAddChunkDegenerate(t *testing.T) {
	var w Welford
	w.AddChunk(0, 5)
	w.AddChunk(-3, 5)
	if w.N() != 0 {
		t.Fatalf("non-positive chunk recorded: N = %d", w.N())
	}
	var a, b Welford
	a.AddChunk(1, 2.5)
	b.Add(2.5)
	if a != b {
		t.Fatalf("AddChunk(1, x) = %+v, Add(x) = %+v", a, b)
	}
	var z Welford
	z.AddChunk(4, 0)
	if z.N() != 4 || z.Mean() != 0 || z.Variance() != 0 || z.Min() != 0 || z.Max() != 0 {
		t.Fatalf("zero-duration chunk mishandled: %+v", z)
	}
}
