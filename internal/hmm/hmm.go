// Package hmm implements the Hidden-Markov-Model traffic generator the
// paper cites as prior ML work (Redžović et al., "IP Traffic Generator
// Based on Hidden Markov Models"): an HMM over per-packet
// (size, inter-arrival) observations, trained with Baum-Welch and
// sampled to produce new sequences. It reproduces that approach's
// limitation the paper calls out — coverage of only a couple of packet
// features, with no header fields at all.
package hmm

import (
	"fmt"
	"math"

	"trafficdiff/internal/stats"
)

// Observation is one packet's feature pair.
type Observation struct {
	// SizeBytes is the packet length.
	SizeBytes float64
	// GapMs is the inter-arrival gap to the previous packet in
	// milliseconds.
	GapMs float64
}

// Model is a Gaussian-emission HMM over Observation sequences.
type Model struct {
	N int // states

	// Init, Trans are initial and transition probabilities.
	Init  []float64
	Trans [][]float64
	// Emission Gaussians per state and feature (0=size, 1=gap), with
	// diagonal covariance.
	Mean [2][]float64
	Var  [2][]float64
}

// Config controls training.
type Config struct {
	States     int
	Iterations int
	Seed       uint64
}

// DefaultConfig returns the settings the benches use.
func DefaultConfig() Config { return Config{States: 4, Iterations: 20, Seed: 1} }

// New initializes a model with k states and randomized parameters
// informed by the data's range.
func New(k int, seqs [][]Observation, r *stats.RNG) *Model {
	m := &Model{N: k}
	m.Init = make([]float64, k)
	m.Trans = make([][]float64, k)
	var sizeMean, gapMean, n float64
	for _, seq := range seqs {
		for _, o := range seq {
			sizeMean += o.SizeBytes
			gapMean += o.GapMs
			n++
		}
	}
	if n > 0 {
		sizeMean /= n
		gapMean /= n
	}
	for i := 0; i < k; i++ {
		m.Init[i] = 1 / float64(k)
		m.Trans[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			m.Trans[i][j] = 1 / float64(k)
		}
	}
	for f := 0; f < 2; f++ {
		m.Mean[f] = make([]float64, k)
		m.Var[f] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		// Spread initial means around the data means so states can
		// specialize.
		m.Mean[0][i] = sizeMean * (0.4 + float64(1.2*r.Float64()))
		m.Mean[1][i] = gapMean * (0.4 + float64(1.2*r.Float64()))
		m.Var[0][i] = math.Max(sizeMean*sizeMean/4, 1)
		m.Var[1][i] = math.Max(gapMean*gapMean/4, 0.01)
	}
	return m
}

// logGauss returns the log density of x under N(mean, variance).
func logGauss(x, mean, variance float64) float64 {
	d := x - mean
	return float64(-0.5*(math.Log(2*math.Pi*variance))) - d*d/(2*variance)
}

// logEmit returns the state-wise log emission density of o.
func (m *Model) logEmit(o Observation) []float64 {
	out := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		out[i] = logGauss(o.SizeBytes, m.Mean[0][i], m.Var[0][i]) +
			logGauss(o.GapMs, m.Mean[1][i], m.Var[1][i])
	}
	return out
}

// logSumExp computes log(sum(exp(xs))) stably.
func logSumExp(xs []float64) float64 {
	mx := math.Inf(-1)
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - mx)
	}
	return mx + math.Log(s)
}

// Train fits the model to the sequences with Baum-Welch (EM) and
// returns the per-iteration mean log-likelihood curve.
func Train(seqs [][]Observation, cfg Config) (*Model, []float64, error) {
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("hmm: no training sequences")
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("hmm: all sequences empty")
	}
	if cfg.States < 1 || cfg.Iterations < 1 {
		return nil, nil, fmt.Errorf("hmm: invalid config %+v", cfg)
	}
	r := stats.NewRNG(cfg.Seed)
	m := New(cfg.States, seqs, r)
	var curve []float64

	for iter := 0; iter < cfg.Iterations; iter++ {
		k := m.N
		// Accumulators.
		initAcc := make([]float64, k)
		transAcc := make([][]float64, k)
		for i := range transAcc {
			transAcc[i] = make([]float64, k)
		}
		var meanAcc, varAcc [2][]float64
		gammaAcc := make([]float64, k)
		for f := 0; f < 2; f++ {
			meanAcc[f] = make([]float64, k)
			varAcc[f] = make([]float64, k)
		}
		ll := 0.0
		obsCount := 0

		for _, seq := range seqs {
			T := len(seq)
			if T == 0 {
				continue
			}
			obsCount += T
			emit := make([][]float64, T)
			for t := range seq {
				emit[t] = m.logEmit(seq[t])
			}
			// Forward (log domain).
			alpha := make([][]float64, T)
			alpha[0] = make([]float64, k)
			for i := 0; i < k; i++ {
				alpha[0][i] = math.Log(m.Init[i]+1e-300) + emit[0][i]
			}
			for t := 1; t < T; t++ {
				alpha[t] = make([]float64, k)
				for j := 0; j < k; j++ {
					terms := make([]float64, k)
					for i := 0; i < k; i++ {
						terms[i] = alpha[t-1][i] + math.Log(m.Trans[i][j]+1e-300)
					}
					alpha[t][j] = logSumExp(terms) + emit[t][j]
				}
			}
			seqLL := logSumExp(alpha[T-1])
			ll += seqLL
			// Backward.
			beta := make([][]float64, T)
			beta[T-1] = make([]float64, k)
			for t := T - 2; t >= 0; t-- {
				beta[t] = make([]float64, k)
				for i := 0; i < k; i++ {
					terms := make([]float64, k)
					for j := 0; j < k; j++ {
						terms[j] = math.Log(m.Trans[i][j]+1e-300) + emit[t+1][j] + beta[t+1][j]
					}
					beta[t][i] = logSumExp(terms)
				}
			}
			// Accumulate gamma and xi.
			for t := 0; t < T; t++ {
				for i := 0; i < k; i++ {
					g := math.Exp(alpha[t][i] + beta[t][i] - seqLL)
					if t == 0 {
						initAcc[i] += g
					}
					gammaAcc[i] += g
					meanAcc[0][i] += float64(g * seq[t].SizeBytes)
					meanAcc[1][i] += float64(g * seq[t].GapMs)
					d0 := seq[t].SizeBytes - m.Mean[0][i]
					d1 := seq[t].GapMs - m.Mean[1][i]
					varAcc[0][i] += float64(g * d0 * d0)
					varAcc[1][i] += float64(g * d1 * d1)
				}
			}
			for t := 0; t < T-1; t++ {
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						xi := math.Exp(alpha[t][i] + math.Log(m.Trans[i][j]+1e-300) +
							emit[t+1][j] + beta[t+1][j] - seqLL)
						transAcc[i][j] += xi
					}
				}
			}
		}
		curve = append(curve, ll/float64(obsCount))

		// M-step.
		normalize(initAcc)
		copy(m.Init, initAcc)
		for i := 0; i < k; i++ {
			normalize(transAcc[i])
			copy(m.Trans[i], transAcc[i])
			if gammaAcc[i] > 1e-9 {
				for f := 0; f < 2; f++ {
					m.Mean[f][i] = meanAcc[f][i] / gammaAcc[i]
					v := varAcc[f][i] / gammaAcc[i]
					if v < 1e-3 {
						v = 1e-3
					}
					m.Var[f][i] = v
				}
			}
		}
	}
	return m, curve, nil
}

func normalize(xs []float64) {
	var s float64
	for _, x := range xs {
		s += x
	}
	if s <= 0 {
		for i := range xs {
			xs[i] = 1 / float64(len(xs))
		}
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}

// Sample draws a sequence of n observations.
func (m *Model) Sample(n int, r *stats.RNG) []Observation {
	out := make([]Observation, n)
	state := sampleIndex(m.Init, r)
	for t := 0; t < n; t++ {
		size := m.Mean[0][state] + float64(math.Sqrt(m.Var[0][state])*r.NormFloat64())
		gap := m.Mean[1][state] + float64(math.Sqrt(m.Var[1][state])*r.NormFloat64())
		if size < 0 {
			size = 0
		}
		if gap < 0 {
			gap = 0
		}
		out[t] = Observation{SizeBytes: size, GapMs: gap}
		state = sampleIndex(m.Trans[state], r)
	}
	return out
}

func sampleIndex(probs []float64, r *stats.RNG) int {
	u := r.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// LogLikelihood scores a sequence under the model (mean per
// observation).
func (m *Model) LogLikelihood(seq []Observation) float64 {
	T := len(seq)
	if T == 0 {
		return 0
	}
	k := m.N
	alpha := make([]float64, k)
	for i := 0; i < k; i++ {
		alpha[i] = math.Log(m.Init[i]+1e-300) + m.logEmit(seq[0])[i]
	}
	next := make([]float64, k)
	terms := make([]float64, k)
	for t := 1; t < T; t++ {
		emit := m.logEmit(seq[t])
		for j := 0; j < k; j++ {
			for i := 0; i < k; i++ {
				terms[i] = alpha[i] + math.Log(m.Trans[i][j]+1e-300)
			}
			next[j] = logSumExp(terms) + emit[j]
		}
		copy(alpha, next)
	}
	return logSumExp(alpha) / float64(T)
}
