package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// The state must be mixed; a run of identical outputs would indicate
	// a degenerate all-zero state.
	prev := r.Uint64()
	distinct := 0
	for i := 0; i < 64; i++ {
		v := r.Uint64()
		if v != prev {
			distinct++
		}
		prev = v
	}
	if distinct < 60 {
		t.Fatalf("zero seed produced near-constant output (%d distinct)", distinct)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if m := w.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Normal(10, 2))
	}
	if math.Abs(w.Mean()-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", w.Mean())
	}
	if math.Abs(w.StdDev()-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", w.StdDev())
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split generators produced %d identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) = %v out of range", v)
		}
	}
}
