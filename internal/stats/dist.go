package stats

import (
	"math"
	"sort"
)

// Dist is a sampleable scalar distribution.
type Dist interface {
	// Sample draws one variate using r.
	Sample(r *RNG) float64
	// Mean returns the distribution's theoretical mean (or an
	// approximation for heavy-tailed distributions where the mean
	// does not exist).
	Mean() float64
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws a uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + float64((u.Hi-u.Lo)*r.Float64()) }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Normal is the Gaussian distribution with mean Mu and standard
// deviation Sigma.
type Normal struct{ Mu, Sigma float64 }

// Sample draws a Gaussian variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + float64(n.Sigma*r.NormFloat64()) }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma)).
// Packet sizes and inter-arrival times in real traces are commonly
// modelled as log-normal.
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + float64(l.Sigma*r.NormFloat64())) }

// Mean returns exp(Mu + Sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2)) }

// Exponential is the exponential distribution with rate Lambda.
type Exponential struct{ Lambda float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 {
	return -math.Log(1-r.Float64()) / e.Lambda
}

// Mean returns 1/Lambda.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Pareto is the Pareto (power-law) distribution with scale Xm and
// shape Alpha. Flow sizes and burst lengths are heavy-tailed; Pareto
// is the classic model (cf. Harpoon, Swing).
type Pareto struct{ Xm, Alpha float64 }

// Sample draws a Pareto variate.
func (p Pareto) Sample(r *RNG) float64 {
	return p.Xm / math.Pow(1-r.Float64(), 1/p.Alpha)
}

// paretoMeanProxyFactor scales Xm into the finite stand-in Mean
// returns when the true mean diverges (Alpha <= 1). Any consumer that
// normalizes rates by a mean — Mixture.Mean, the load harness's
// request-size accounting — must stay finite, so the proxy is "very
// heavy" rather than infinite.
const paretoMeanProxyFactor = 1e6

// Mean returns Alpha*Xm/(Alpha-1) for Alpha > 1, otherwise the large
// finite proxy Xm*1e6 (the true mean diverges, but an infinity here
// would poison every downstream rate normalization).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return p.Xm * paretoMeanProxyFactor
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Gamma is the gamma distribution with shape k = Shape and scale
// θ = Scale. Inter-arrival gaps in bursty traffic are modelled as
// gamma with a coefficient of variation above 1 (shape < 1 clusters
// arrivals, shape > 1 regularizes them); the load harness derives
// Shape from a spec's `cv` as 1/cv².
type Gamma struct{ Shape, Scale float64 }

// Sample draws a gamma variate via the Marsaglia-Tsang squeeze
// (shape >= 1) with the standard power boost for shape < 1. Every
// accept/reject decision consumes draws from r only, so the stream is
// deterministic per seed.
func (g Gamma) Sample(r *RNG) float64 {
	k := g.Shape
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k) for k in (0, 1).
		u := r.Float64()
		return Gamma{Shape: k + 1, Scale: g.Scale}.Sample(r) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v * g.Scale
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v * g.Scale
		}
	}
}

// Mean returns Shape*Scale.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// Weibull is the Weibull distribution with shape k = Shape and scale
// λ = Scale. Its shape parameter sweeps between heavy-tailed burstiness
// (k < 1) and near-deterministic spacing (k > 1), which makes it the
// third arrival-process option in workload specs.
type Weibull struct{ Shape, Scale float64 }

// Sample draws a Weibull variate by inverse transform.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Scale * math.Pow(-math.Log(1-r.Float64()), 1/w.Shape)
}

// Mean returns Scale*Γ(1+1/Shape).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Categorical samples indices proportionally to Weights.
type Categorical struct {
	Weights []float64
	cum     []float64
}

// NewCategorical builds a categorical distribution over weights,
// which need not be normalized. It panics if weights is empty or the
// total weight is not positive.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		//tracelint:allow paniccheck — documented constructor invariant, mirrors stdlib math/rand argument panics
		panic("stats: empty categorical")
	}
	c := &Categorical{Weights: append([]float64(nil), weights...)}
	c.cum = make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			//tracelint:allow paniccheck — documented constructor invariant
			panic("stats: negative categorical weight")
		}
		total += w
		c.cum[i] = total
	}
	if total <= 0 {
		//tracelint:allow paniccheck — documented constructor invariant
		panic("stats: categorical with zero total weight")
	}
	return c
}

// SampleIndex draws an index in [0, len(Weights)). Index i owns the
// half-open interval [cum[i-1], cum[i)), so the search is strict
// (first cum[i] > u): a draw landing exactly on a cumulative boundary
// belongs to the next component, and an index whose weight is zero —
// a zero-weight prefix makes cum[i] == u reachable at u == 0 — can
// never be selected.
func (c *Categorical) SampleIndex(r *RNG) int {
	total := c.cum[len(c.cum)-1]
	u := r.Float64() * total
	i := sort.Search(len(c.cum), func(j int) bool { return c.cum[j] > u })
	if i == len(c.cum) {
		// Float64()*total can round up to total itself; that draw
		// belongs to the last positive-weight component.
		i--
		for i > 0 && !(c.Weights[i] > 0) {
			i--
		}
	}
	return i
}

// Probability returns the normalized probability of index i.
func (c *Categorical) Probability(i int) float64 {
	return c.Weights[i] / c.cum[len(c.cum)-1]
}

// Zipf samples ranks 1..N with probability proportional to
// 1/rank^S. Port and destination popularity in real traffic follows
// Zipf-like consolidation (paper §2.3 "port consolidation").
type Zipf struct {
	N int
	S float64

	cat *Categorical
}

// NewZipf builds a Zipf distribution over ranks 1..n with exponent s.
func NewZipf(n int, s float64) *Zipf {
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return &Zipf{N: n, S: s, cat: NewCategorical(w)}
}

// SampleRank draws a rank in [1, N].
func (z *Zipf) SampleRank(r *RNG) int { return z.cat.SampleIndex(r) + 1 }

// Mixture samples from Components[i] with probability proportional to
// Weights[i]. Real packet-size distributions are multi-modal (e.g.
// ACK-sized vs MTU-sized packets); mixtures capture that.
type Mixture struct {
	Components []Dist
	cat        *Categorical
}

// NewMixture builds a mixture distribution. len(components) must equal
// len(weights).
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) != len(weights) {
		//tracelint:allow paniccheck — documented constructor invariant
		panic("stats: mixture arity mismatch")
	}
	return &Mixture{Components: components, cat: NewCategorical(weights)}
}

// Sample draws from a randomly selected component.
func (m *Mixture) Sample(r *RNG) float64 {
	return m.Components[m.cat.SampleIndex(r)].Sample(r)
}

// Mean returns the weighted mean of the component means.
func (m *Mixture) Mean() float64 {
	total := 0.0
	for i, c := range m.Components {
		total += float64(m.cat.Probability(i) * c.Mean())
	}
	return total
}
