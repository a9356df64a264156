package stats

import "math"

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The runtime system uses it to
// sample task execution times, as the paper's TAPER algorithm requires
// (μ, σ²) estimates that are refreshed as a parallel operation proceeds.
//
// The zero value is an empty accumulator ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddChunk folds an aggregate observation — k samples whose individual
// values were not recorded, only their mean — into the accumulator.
// The count and mean advance exactly as if the chunk mean had been
// added k times; the spread term grows only by the between-chunk
// component, since within-chunk variance is unobservable from an
// aggregate timing. Callers that alternate per-sample Add with
// AddChunk therefore get an exact mean and a variance that is a lower
// bound, tightest when chunks are internally homogeneous.
func (w *Welford) AddChunk(k int, mean float64) {
	if k <= 0 {
		return
	}
	w.Merge(Welford{n: k, mean: mean, min: mean, max: mean})
}

// Merge folds another accumulator into this one (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// N reports the number of observations.
func (w *Welford) N() int { return w.n }

// Mean reports the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the sample variance (n-1 denominator), or 0 with
// fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min reports the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }
