package stats

import (
	"math"
	"sort"
	"testing"
)

func sampleMean(d Dist, r *RNG, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestUniformMean(t *testing.T) {
	r := NewRNG(1)
	d := Uniform{Lo: 2, Hi: 6}
	if m := sampleMean(d, r, 50000); math.Abs(m-4) > 0.05 {
		t.Errorf("uniform sample mean %v, want ~4", m)
	}
	if d.Mean() != 4 {
		t.Errorf("Mean() = %v", d.Mean())
	}
}

func TestNormalMean(t *testing.T) {
	r := NewRNG(2)
	d := Normal{Mu: -3, Sigma: 2}
	if m := sampleMean(d, r, 50000); math.Abs(m+3) > 0.05 {
		t.Errorf("normal sample mean %v, want ~-3", m)
	}
}

func TestLogNormalPositiveAndMean(t *testing.T) {
	r := NewRNG(3)
	d := LogNormal{Mu: 1, Sigma: 0.5}
	sum := 0.0
	for i := 0; i < 50000; i++ {
		v := d.Sample(r)
		if v <= 0 {
			t.Fatalf("log-normal produced non-positive %v", v)
		}
		sum += v
	}
	want := d.Mean()
	got := sum / 50000
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("log-normal sample mean %v, want ~%v", got, want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(4)
	d := Exponential{Lambda: 2}
	if m := sampleMean(d, r, 50000); math.Abs(m-0.5) > 0.02 {
		t.Errorf("exponential sample mean %v, want ~0.5", m)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRNG(5)
	d := Pareto{Xm: 3, Alpha: 2.5}
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 3 {
			t.Fatalf("pareto sample %v below xm", v)
		}
	}
	want := 2.5 * 3 / 1.5
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Errorf("pareto Mean() = %v, want %v", d.Mean(), want)
	}
}

// TestParetoMeanFiniteProxy pins the documented contract: for
// Alpha <= 1 the true mean diverges but Mean() must return the large
// finite proxy Xm*1e6, never an infinity that would poison downstream
// rate normalizations.
func TestParetoMeanFiniteProxy(t *testing.T) {
	cases := []struct {
		xm, alpha float64
		want      float64
	}{
		{1, 0.9, 1e6},
		{1, 1, 1e6},
		{3, 0.5, 3e6},
		{2, 1.0, 2e6},
		{1, 2, 2},         // alpha > 1: exact mean alpha*xm/(alpha-1)
		{3, 2.5, 2.5 * 2}, // 2.5*3/1.5
	}
	for _, c := range cases {
		got := Pareto{Xm: c.xm, Alpha: c.alpha}.Mean()
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Pareto{%v,%v}.Mean() = %v, want finite", c.xm, c.alpha, got)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Pareto{%v,%v}.Mean() = %v, want %v", c.xm, c.alpha, got, c.want)
		}
	}
}

// TestMixtureMeanFiniteWithHeavyTail is the regression the proxy
// exists for: a mixture with an Alpha<=1 Pareto component must still
// report a finite mean, because rate normalization divides by it.
func TestMixtureMeanFiniteWithHeavyTail(t *testing.T) {
	m := NewMixture(
		[]Dist{LogNormal{Mu: 1, Sigma: 0.5}, Pareto{Xm: 1, Alpha: 0.8}},
		[]float64{0.9, 0.1},
	)
	got := m.Mean()
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("Mixture.Mean() with heavy-tailed component = %v, want finite positive", got)
	}
}

// TestCategoricalZeroWeightPrefix is the boundary-semantics regression
// test: with Weights=[0,1] the draw u==0 lands exactly on the first
// cumulative boundary (cum[0] == 0), and the old `cum[i] >= u` search
// returned index 0 — a component whose Probability() is 0. The strict
// search must never select a zero-weight index, for any seed.
func TestCategoricalZeroWeightPrefix(t *testing.T) {
	c := NewCategorical([]float64{0, 1})
	// u == 0 happens exactly when the 53 bits Float64 keeps are all
	// zero; force the boundary by scanning seeds AND by checking the
	// invariant over a large sample.
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		if got := c.SampleIndex(r); got != 1 {
			t.Fatalf("draw %d selected zero-weight index %d", i, got)
		}
	}
	// Longer zero prefix, zero interior weight, zero suffix.
	c2 := NewCategorical([]float64{0, 0, 3, 0, 1, 0})
	r2 := NewRNG(2)
	counts := make([]int, 6)
	for i := 0; i < 100000; i++ {
		idx := c2.SampleIndex(r2)
		counts[idx]++
		if !(c2.Probability(idx) > 0) {
			t.Fatalf("draw %d selected index %d with probability 0", i, idx)
		}
	}
	if counts[2] == 0 || counts[4] == 0 {
		t.Fatalf("positive-weight indices never drawn: %v", counts)
	}
}

// TestCategoricalStreamUnchangedForPositiveWeights verifies the strict
// search returns the same index sequence as the old
// sort.SearchFloat64s(cum, u) semantics whenever every weight is
// positive — boundaries then sit at irrational partial sums that a
// 53-bit uniform essentially never hits, so Zipf and Mixture byte
// streams are unchanged by the fix.
func TestCategoricalStreamUnchangedForPositiveWeights(t *testing.T) {
	weightSets := [][]float64{
		{1, 2, 7},
		{0.3, 0.3, 0.4},
		{5},
		{1, 1, 1, 1, 1, 1, 1, 1},
	}
	for _, ws := range weightSets {
		c := NewCategorical(ws)
		rNew := NewRNG(42)
		rOld := NewRNG(42)
		for i := 0; i < 50000; i++ {
			got := c.SampleIndex(rNew)
			u := rOld.Float64() * c.cum[len(c.cum)-1]
			want := sort.SearchFloat64s(c.cum, u)
			if got != want {
				t.Fatalf("weights %v draw %d: strict search %d, legacy search %d (u=%v)", ws, i, got, want, u)
			}
		}
	}
	// Zipf rides on Categorical: its rank stream must be unchanged too.
	zNew, zOld := NewZipf(10, 1.2), NewZipf(10, 1.2)
	rNew, rOld := NewRNG(7), NewRNG(7)
	for i := 0; i < 50000; i++ {
		got := zNew.SampleRank(rNew)
		u := rOld.Float64() * zOld.cat.cum[len(zOld.cat.cum)-1]
		if want := sort.SearchFloat64s(zOld.cat.cum, u) + 1; got != want {
			t.Fatalf("zipf draw %d: rank %d, legacy rank %d", i, got, want)
		}
	}
	// Mixture selection consumes one categorical draw then the
	// component draw; identical selection indices imply identical byte
	// streams, which the seeded re-run pins end to end.
	m1 := NewMixture([]Dist{Normal{Mu: 0, Sigma: 1}, Normal{Mu: 10, Sigma: 1}}, []float64{0.5, 0.5})
	m2 := NewMixture([]Dist{Normal{Mu: 0, Sigma: 1}, Normal{Mu: 10, Sigma: 1}}, []float64{0.5, 0.5})
	ra, rb := NewRNG(9), NewRNG(9)
	for i := 0; i < 20000; i++ {
		a, b := m1.Sample(ra), m2.Sample(rb)
		//tracelint:allow floateq — same-seed same-stream bit-identity assertion
		if a != b {
			t.Fatalf("mixture draw %d: %v != %v with identical seeds", i, a, b)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := NewRNG(6)
	c := NewCategorical([]float64{1, 2, 7})
	counts := make([]float64, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[c.SampleIndex(r)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i := range want {
		got := counts[i] / float64(n)
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("class %d frequency %v, want %v", i, got, want[i])
		}
		if math.Abs(c.Probability(i)-want[i]) > 1e-12 {
			t.Errorf("Probability(%d) = %v", i, c.Probability(i))
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero":     {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights should panic", name)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(7)
	z := NewZipf(10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		rank := z.SampleRank(r)
		if rank < 1 || rank > 10 {
			t.Fatalf("rank %d out of bounds", rank)
		}
		counts[rank-1]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf rank 1 (%d) should dominate rank 10 (%d)", counts[0], counts[9])
	}
}

func TestMixtureMean(t *testing.T) {
	r := NewRNG(8)
	m := NewMixture(
		[]Dist{Normal{Mu: 0, Sigma: 1}, Normal{Mu: 10, Sigma: 1}},
		[]float64{0.5, 0.5},
	)
	if got := sampleMean(m, r, 50000); math.Abs(got-5) > 0.1 {
		t.Errorf("mixture sample mean %v, want ~5", got)
	}
	if math.Abs(m.Mean()-5) > 1e-9 {
		t.Errorf("mixture Mean() = %v", m.Mean())
	}
}

// TestGammaMean checks sample-mean convergence against Mean() across
// the shape regimes the sampler switches between (boost path k < 1,
// squeeze path k >= 1).
func TestGammaMean(t *testing.T) {
	cases := []Gamma{
		{Shape: 0.25, Scale: 2},
		{Shape: 0.9, Scale: 1},
		{Shape: 1, Scale: 3},
		{Shape: 2.5, Scale: 0.5},
		{Shape: 9, Scale: 1.5},
	}
	for i, g := range cases {
		r := NewRNG(uint64(100 + i))
		want := g.Mean()
		if math.Abs(want-g.Shape*g.Scale) > 1e-12 {
			t.Fatalf("Gamma%+v.Mean() = %v, want %v", g, want, g.Shape*g.Scale)
		}
		sum := 0.0
		const n = 200000
		for j := 0; j < n; j++ {
			v := g.Sample(r)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Gamma%+v produced %v", g, v)
			}
			sum += v
		}
		got := sum / n
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("Gamma%+v sample mean %v, want ~%v", g, got, want)
		}
	}
}

// TestWeibullMean checks sample-mean convergence against
// Scale*Γ(1+1/Shape) across bursty (k<1), exponential (k=1) and
// regular (k>1) shapes.
func TestWeibullMean(t *testing.T) {
	cases := []Weibull{
		{Shape: 0.5, Scale: 1},
		{Shape: 1, Scale: 2},
		{Shape: 1.5, Scale: 0.5},
		{Shape: 4, Scale: 3},
	}
	for i, w := range cases {
		r := NewRNG(uint64(200 + i))
		want := w.Mean()
		sum := 0.0
		const n = 200000
		for j := 0; j < n; j++ {
			v := w.Sample(r)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Weibull%+v produced %v", w, v)
			}
			sum += v
		}
		got := sum / n
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("Weibull%+v sample mean %v, want ~%v", w, got, want)
		}
	}
	// k=1 degenerates to Exponential(1/Scale): means must agree exactly.
	if m := (Weibull{Shape: 1, Scale: 2}).Mean(); math.Abs(m-2) > 1e-12 {
		t.Errorf("Weibull shape 1 mean = %v, want 2", m)
	}
}

// TestGammaWeibullSeededIdentity pins the determinism contract for the
// new distributions: identical seeds yield bit-identical sample
// streams, and the streams differ across seeds.
func TestGammaWeibullSeededIdentity(t *testing.T) {
	dists := []Dist{
		Gamma{Shape: 0.5, Scale: 2},
		Gamma{Shape: 3, Scale: 1},
		Weibull{Shape: 0.7, Scale: 1},
		Weibull{Shape: 2, Scale: 4},
	}
	for di, d := range dists {
		a, b := NewRNG(uint64(300+di)), NewRNG(uint64(300+di))
		other := NewRNG(uint64(900 + di))
		diverged := false
		for i := 0; i < 10000; i++ {
			va, vb := d.Sample(a), d.Sample(b)
			//tracelint:allow floateq — same-seed same-stream bit-identity assertion
			if va != vb {
				t.Fatalf("dist %d draw %d: %v != %v with identical seeds", di, i, va, vb)
			}
			//tracelint:allow floateq — cross-seed divergence check
			if d.Sample(other) != va {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("dist %d: different seeds produced identical streams", di)
		}
	}
}
