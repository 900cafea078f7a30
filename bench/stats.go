package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may be reported
// at; tailPercentile picks the highest one the sample supports.
var tailLadder = []float64{50, 90, 95, 99}

// kindTailCap is the highest percentile reported for one kind of
// request (light or heavy) rather than for all of a workload's
// requests. Past p95 a sub-population's tail on the shared reference
// host is set by who else is on the machine: router_repeat's hit p99
// spread by 26 % over ten runs of one commit, its p95 by a third of
// that.
const kindTailCap = 95

// minBeyond is the choosing-metrics rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (which
// must be ascending and non-empty) and the number of samples beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailPercentile returns the highest ladder percentile, not above
// limit, with at least minBeyond samples beyond it. Samples too few for
// even the median to qualify fall back to the median: the sample count
// printed beside every percentile says how far to trust it.
func tailPercentile(sorted []float64, limit float64) (p, v float64) {
	p = tailLadder[0]
	v, _ = percentile(sorted, p)
	for _, q := range tailLadder[1:] {
		qv, beyond := percentile(sorted, q)
		if beyond < minBeyond || q > limit {
			break
		}
		p, v = q, qv
	}
	return p, v
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), the rule the benchmark's acceptance
// spreads are computed with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	m := len(xs)
	if m < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", m)
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}
