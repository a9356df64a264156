package native

import (
	"fmt"
	"math"
	"testing"

	"orchestra/internal/interp"
)

// goldenArray fills n elements with a fixed bit-pattern stream (a
// splitmix64 walk keyed by the length) and plants the values a sloppy
// encoder would fold together — −0 against +0, NaNs that differ only in
// payload or sign, ±Inf, subnormals — at the front, where even the
// one-element array meets one, and again around the 4 KiB block seam
// (element 512).
func goldenArray(n int) []float64 {
	specials := []uint64{
		0x8000000000000000, // −0
		0x0000000000000000, // +0
		0x7ff8000000000001, // quiet NaN, payload 1
		0x7ff0000000000001, // signalling NaN, payload 1
		0xfff8dead0000beef, // negative NaN, wide payload
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		0x0000000000000001, // smallest subnormal
	}
	a := make([]float64, n)
	x := uint64(n)*0x9e3779b97f4a7c15 + 1
	for i := range a {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		a[i] = math.Float64frombits(z ^ (z >> 31))
	}
	for i, bits := range specials {
		for _, at := range []int{i, 508 + i} {
			if at < n {
				a[at] = math.Float64frombits(bits)
			}
		}
	}
	return a
}

// TestStateDigestGolden pins StateDigest's byte stream: the constants
// were recorded from the implementation that fed SHA-256 eight bytes per
// Write, so any blocking of the encoder must reproduce that stream bit
// for bit — across the empty array, one element, one element either side
// of a full block, many blocks, and several arrays in name order.
func TestStateDigestGolden(t *testing.T) {
	lengths := []int{0, 1, 511, 512, 513, 5000}
	want := map[int]string{
		0:    "487c551dc5b6edcd75bad04ec1d77e82cd5c6d7c9f16feee02a998680a3b156a",
		1:    "303d33bf41e6c0f92634ff34833647e1214c24a04c26d073f8c2c17267b62446",
		511:  "4d7045d97d200e73ac3f17077afedb791fdb245b7b66626d22b13e0d0f6f8223",
		512:  "5372840d0033d1385682f37cd248a8f5d14fbf23141ed5d8745a43e157938992",
		513:  "3ce7289d46aa119d9ba286159d2607e3eb5b35d06d2b9b8c8d467d57cb8e3c7f",
		5000: "ec7e69a3218ce19e145d3e4574046891594be40e79b2962f55c0f4175ea71976",
	}
	const wantAll = "a0546609add66b501a28ce384e152c5066d5c21d80c1353e038aa31b76efe108"

	all := &interp.State{Arrays: map[string][]float64{}}
	for _, n := range lengths {
		arr := goldenArray(n)
		all.Arrays[fmt.Sprintf("a%d", n)] = arr
		st := &interp.State{Arrays: map[string][]float64{"x": arr}}
		if got := StateDigest(st); got != want[n] {
			t.Errorf("length %d: digest %s, want %s", n, got, want[n])
		}
	}
	if got := StateDigest(all); got != wantAll {
		t.Errorf("all arrays: digest %s, want %s", got, wantAll)
	}
	if got, want := StateDigest(&interp.State{}), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Errorf("no arrays: digest %s, want SHA-256 of nothing %s", got, want)
	}
}

var digestSink string

// BenchmarkStateDigest is the digest's standing layer entry: the
// daemon's figure-1 job at the default n digests about 80 KiB per
// reply, native-memchain's fold digests 160 MiB per verified run.
func BenchmarkStateDigest(b *testing.B) {
	for _, c := range []struct {
		name   string
		arrays int
		n      int
	}{
		{"80KiB", 5, 2048},
		{"160MiB", 5, 1 << 22},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := &interp.State{Arrays: map[string][]float64{}}
			for k := 0; k < c.arrays; k++ {
				a := make([]float64, c.n)
				for i := range a {
					a[i] = float64(i) * 0.5
				}
				st.Arrays[fmt.Sprintf("a%d", k)] = a
			}
			b.SetBytes(int64(c.arrays) * int64(c.n) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = StateDigest(st)
			}
		})
	}
}
