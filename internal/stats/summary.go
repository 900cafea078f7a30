package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0<=q<=1) of sorted (ascending)
// data using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Normalize converts non-negative counts or weights into a probability
// vector. A zero vector normalizes to the uniform distribution.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	total := 0.0
	for _, x := range xs {
		total += x
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(xs))
		}
		return out
	}
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// ImbalanceRatio returns max(count)/min(count) over a class-count
// vector, treating zero minima as 1 observation to stay finite. The
// paper's Figure 1 studies class-imbalance amplification; this is the
// scalar we report.
func ImbalanceRatio(counts []float64) float64 {
	if len(counts) == 0 {
		return 1
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mn < 1 {
		mn = 1
	}
	if mx < 1 {
		return 1
	}
	return mx / mn
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic —
// the maximum distance between the empirical CDFs of xs and ys, in
// [0, 1]. Zero-length samples yield 1 (maximally distinguishable).
func KSStatistic(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 1
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		// Step past every sample equal to the smaller current value on
		// both sides, so ties advance the CDFs together.
		v := a[i]
		if b[j] < v {
			v = b[j]
		}
		//tracelint:allow floateq — v is copied (not computed) from a[i]/b[j]; exact tie-stepping over sorted samples is the KS definition
		for i < len(a) && a[i] == v {
			i++
		}
		//tracelint:allow floateq — same exact tie-step as above
		for j < len(b) && b[j] == v {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}
