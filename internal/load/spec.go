// Package load is the workload-spec load harness behind cmd/traceload:
// it parses a multi-client YAML workload spec, expands it into a
// seeded, fully deterministic open-loop request schedule, fires that
// schedule at a traced or tracerouter endpoint, and aggregates the
// outcomes into a per-SLO-class latency report (p50/p95/p99, achieved
// throughput, SLO attainment, 429/503/504/502 rates).
//
// The spec format follows the BLIS workload-spec shape: an aggregate
// arrival rate split across client blocks, where each client declares
// a rate fraction, an arrival process (poisson, gamma, weibull), a
// request-size distribution over flow counts, a traffic class, a wire
// format, and an SLO class with a latency target.
//
// Determinism contract: the schedule — request offsets, flow counts,
// per-request seeds, and the merged firing order — is a pure function
// of the spec. Each client draws from its own stats.RNG.Split stream,
// derived in declaration order from the spec seed, and schedule
// construction is entirely sequential, so two runs of the same spec
// produce identical schedules at any GOMAXPROCS. What the *server*
// answers (latency, shedding) is of course not deterministic; the
// schedule the harness offers it is.
package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"trafficdiff/internal/stats"
)

// Spec is a parsed workload specification.
type Spec struct {
	// Version is the spec-format version ("1").
	Version string
	// Seed roots every client's RNG stream (default 1).
	Seed uint64
	// AggregateRate is the total offered arrival rate in requests/s,
	// split across clients by their rate fractions.
	AggregateRate float64
	// DurationS bounds the schedule in seconds; 0 means unbounded (a
	// request budget must bound it instead).
	DurationS float64
	// NumRequests bounds the schedule by total request count,
	// apportioned across clients by rate fraction; 0 means unbounded
	// (a duration must bound it instead). When both are set, each
	// client stops at whichever limit it reaches first.
	NumRequests int
	// Clients are the traffic sources, in declaration order (the order
	// RNG streams are split in — reordering clients reorders streams).
	Clients []ClientSpec
}

// ClientSpec is one traffic source in a workload spec.
type ClientSpec struct {
	// ID names the client in reports and errors.
	ID string
	// RateFraction is this client's share of the aggregate rate; the
	// fractions must sum to 1.
	RateFraction float64
	// Class is the traffic class requested from the server.
	Class string
	// Format is the response encoding: "pcap" (default) or "csv".
	Format string
	// SLOClass buckets this client's results in the report; several
	// clients may share one SLO class.
	SLOClass string
	// SLOTargetMs is the latency target the class is measured against.
	SLOTargetMs float64
	// TimeoutMs, when positive, is sent as the request's timeout_ms so
	// the server expires it (504) instead of letting it run long.
	TimeoutMs int
	// Arrival selects the inter-arrival process.
	Arrival ArrivalSpec
	// Size is the flow-count distribution for request bodies.
	Size SizeSpec
}

// ArrivalSpec selects a client's inter-arrival process.
type ArrivalSpec struct {
	// Process is "poisson", "gamma" or "weibull".
	Process string
	// CV is the gamma coefficient of variation (default 1; >1 bursty,
	// <1 regular; at most maxGammaCV). Only meaningful for process gamma.
	CV float64
	// Shape is the weibull shape k (default 1; <1 bursty, >1 regular; at
	// least minWeibullShape). Only meaningful for process weibull.
	Shape float64
}

// SizeSpec is a request-size (flow count) distribution.
type SizeSpec struct {
	// Type is one of constant, uniform, normal, lognormal, exponential,
	// pareto, or mixture.
	Type string
	// Params are the distribution parameters, keyed per type:
	// constant: value; uniform: lo, hi; normal: mean, std_dev;
	// lognormal: mu, sigma; exponential: mean; pareto: xm, alpha.
	Params map[string]float64
	// Min and Max clamp sampled flow counts (defaults 1 and 64, the
	// server's default per-request ceiling).
	Min, Max float64
	// Components and Weight describe mixtures: each component carries
	// its own Type/Params plus a positive Weight.
	Components []SizeSpec
	// Weight is this component's share within a parent mixture.
	Weight float64
}

// Burst-shape bounds within which float64 sampling still honours the
// mean gap. Past them the gaps collapse toward zero — a gamma draw
// underflows to 0 (44 % of draws at cv 30), a weibull's mean sits in a
// tail 53-bit uniforms never reach (shape 0.05 samples a twelfth of
// it) — and a duration-bounded schedule grows without end.
const (
	maxGammaCV      = 10
	minWeibullShape = 0.2
)

// interArrival builds the client's inter-arrival gap distribution for
// a per-client rate (requests/s), with mean gap 1/rate for every
// process so the rate fraction is honored regardless of burst shape.
func (c *ClientSpec) interArrival(rate float64) (stats.Dist, error) {
	mean := 1 / rate
	switch c.Arrival.Process {
	case "", "poisson":
		return stats.Exponential{Lambda: rate}, nil
	case "gamma":
		cv := c.Arrival.CV
		if cv <= 0 {
			cv = 1
		}
		if !(cv <= maxGammaCV) {
			return nil, fmt.Errorf("client %q: gamma cv must be at most %v, got %v", c.ID, maxGammaCV, cv)
		}
		// CV of a gamma is 1/sqrt(shape): shape = 1/cv², scale chosen
		// so shape*scale = mean.
		shape := 1 / (cv * cv)
		return stats.Gamma{Shape: shape, Scale: mean / shape}, nil
	case "weibull":
		shape := c.Arrival.Shape
		if shape <= 0 {
			shape = 1
		}
		if !(shape >= minWeibullShape) || math.IsInf(shape, 1) {
			return nil, fmt.Errorf("client %q: weibull shape must be finite and at least %v, got %v", c.ID, minWeibullShape, shape)
		}
		// Mean of a weibull is scale*Γ(1+1/shape).
		return stats.Weibull{Shape: shape, Scale: mean / math.Gamma(1+1/shape)}, nil
	default:
		return nil, fmt.Errorf("client %q: unknown arrival process %q (want poisson, gamma or weibull)", c.ID, c.Arrival.Process)
	}
}

// Dist builds the stats distribution behind a size spec (without the
// clamp — BuildSchedule applies Min/Max at sampling time).
func (s *SizeSpec) Dist() (stats.Dist, error) {
	p := func(key string) (float64, bool) {
		v, ok := s.Params[key]
		return v, ok
	}
	need := func(key string) (float64, error) {
		v, ok := p(key)
		if !ok {
			return 0, fmt.Errorf("size distribution %q: missing param %q", s.Type, key)
		}
		return v, nil
	}
	switch s.Type {
	case "constant":
		v, err := need("value")
		if err != nil {
			return nil, err
		}
		return stats.Uniform{Lo: v, Hi: v}, nil
	case "uniform":
		lo, err := need("lo")
		if err != nil {
			return nil, err
		}
		hi, err := need("hi")
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("size distribution uniform: hi %v < lo %v", hi, lo)
		}
		return stats.Uniform{Lo: lo, Hi: hi}, nil
	case "normal":
		mean, err := need("mean")
		if err != nil {
			return nil, err
		}
		sd, err := need("std_dev")
		if err != nil {
			return nil, err
		}
		return stats.Normal{Mu: mean, Sigma: sd}, nil
	case "lognormal":
		mu, err := need("mu")
		if err != nil {
			return nil, err
		}
		sigma, err := need("sigma")
		if err != nil {
			return nil, err
		}
		return stats.LogNormal{Mu: mu, Sigma: sigma}, nil
	case "exponential":
		mean, err := need("mean")
		if err != nil {
			return nil, err
		}
		if mean <= 0 {
			return nil, fmt.Errorf("size distribution exponential: mean must be positive, got %v", mean)
		}
		return stats.Exponential{Lambda: 1 / mean}, nil
	case "pareto":
		xm, err := need("xm")
		if err != nil {
			return nil, err
		}
		alpha, err := need("alpha")
		if err != nil {
			return nil, err
		}
		if xm <= 0 || alpha <= 0 {
			return nil, fmt.Errorf("size distribution pareto: xm and alpha must be positive")
		}
		return stats.Pareto{Xm: xm, Alpha: alpha}, nil
	case "mixture":
		if len(s.Components) == 0 {
			return nil, fmt.Errorf("size distribution mixture: no components")
		}
		dists := make([]stats.Dist, len(s.Components))
		weights := make([]float64, len(s.Components))
		total := 0.0
		for i := range s.Components {
			comp := &s.Components[i]
			if comp.Type == "mixture" {
				return nil, fmt.Errorf("size distribution mixture: nested mixtures are not supported")
			}
			d, err := comp.Dist()
			if err != nil {
				return nil, fmt.Errorf("component %d: %w", i, err)
			}
			if !(comp.Weight >= 0) {
				return nil, fmt.Errorf("component %d: weight must be a non-negative number, got %v", i, comp.Weight)
			}
			dists[i] = d
			weights[i] = comp.Weight
			total += comp.Weight
		}
		// stats.NewMixture panics on a zero total; an infinite one makes
		// every draw land on the last component.
		if !positiveFinite(total) {
			return nil, fmt.Errorf("size distribution mixture: weights must sum to a positive finite value, got %v", total)
		}
		return stats.NewMixture(dists, weights), nil
	default:
		return nil, fmt.Errorf("unknown size distribution type %q", s.Type)
	}
}

// ParseSpec parses and validates a workload spec document.
func ParseSpec(data []byte) (*Spec, error) {
	node, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	root, ok := node.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("spec: top level must be a mapping")
	}
	d := &specDecoder{}
	spec := &Spec{
		Version:       d.str(root, "version", "1"),
		Seed:          d.uint64(root, "seed", 1),
		AggregateRate: d.float(root, "aggregate_rate", 0),
		DurationS:     d.float(root, "duration_s", 0),
		NumRequests:   d.int(root, "num_requests", 0),
	}
	clientsNode, ok := root["clients"]
	if !ok {
		return nil, fmt.Errorf("spec: missing clients list")
	}
	clientList, ok := clientsNode.([]any)
	if !ok {
		return nil, fmt.Errorf("spec: clients must be a list")
	}
	for i, cn := range clientList {
		cm, ok := cn.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("spec: clients[%d] must be a mapping", i)
		}
		c := ClientSpec{
			ID:           d.str(cm, "id", fmt.Sprintf("client%d", i)),
			RateFraction: d.float(cm, "rate_fraction", 0),
			Class:        d.str(cm, "class", ""),
			Format:       d.str(cm, "format", "pcap"),
			SLOClass:     d.str(cm, "slo_class", ""),
			SLOTargetMs:  d.float(cm, "slo_target_ms", 0),
			TimeoutMs:    d.int(cm, "timeout_ms", 0),
		}
		if an, ok := cm["arrival"]; ok {
			am, ok := an.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("spec: clients[%d].arrival must be a mapping", i)
			}
			c.Arrival = ArrivalSpec{
				Process: d.str(am, "process", "poisson"),
				CV:      d.float(am, "cv", 0),
				Shape:   d.float(am, "shape", 0),
			}
		} else {
			c.Arrival = ArrivalSpec{Process: "poisson"}
		}
		sn, ok := cm["size_distribution"]
		if !ok {
			// Default: every request asks for one flow.
			c.Size = SizeSpec{Type: "constant", Params: map[string]float64{"value": 1}}
		} else {
			size, err := d.sizeSpec(sn, fmt.Sprintf("clients[%d].size_distribution", i))
			if err != nil {
				return nil, err
			}
			c.Size = *size
		}
		spec.Clients = append(spec.Clients, c)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate checks the spec's cross-field invariants.
func (s *Spec) Validate() error {
	if s.Version != "1" {
		return fmt.Errorf("spec: unsupported version %q (want \"1\")", s.Version)
	}
	if !positiveFinite(s.AggregateRate) {
		return fmt.Errorf("spec: aggregate_rate must be a positive rate in requests/s, got %v", s.AggregateRate)
	}
	// NaN and +Inf slip past a sign test, and BuildSchedule's duration
	// cut-off never fires on them: the schedule would grow forever.
	if !(s.DurationS >= 0) || math.IsInf(s.DurationS, 1) || s.NumRequests < 0 {
		return fmt.Errorf("spec: duration_s and num_requests must be finite and non-negative, got %v and %d", s.DurationS, s.NumRequests)
	}
	if s.DurationS <= 0 && s.NumRequests <= 0 {
		return fmt.Errorf("spec: set duration_s and/or num_requests to bound the run")
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("spec: at least one client is required")
	}
	total := 0.0
	ids := map[string]bool{}
	for i := range s.Clients {
		c := &s.Clients[i]
		if ids[c.ID] {
			return fmt.Errorf("spec: duplicate client id %q", c.ID)
		}
		ids[c.ID] = true
		if c.RateFraction <= 0 {
			return fmt.Errorf("client %q: rate_fraction must be positive, got %v", c.ID, c.RateFraction)
		}
		total += c.RateFraction
		if c.Class == "" {
			return fmt.Errorf("client %q: class is required", c.ID)
		}
		if c.Format != "pcap" && c.Format != "csv" {
			return fmt.Errorf("client %q: format must be \"pcap\" or \"csv\", got %q", c.ID, c.Format)
		}
		if c.SLOClass == "" {
			return fmt.Errorf("client %q: slo_class is required", c.ID)
		}
		if !positiveFinite(c.SLOTargetMs) {
			return fmt.Errorf("client %q: slo_target_ms must be positive and finite, got %v", c.ID, c.SLOTargetMs)
		}
		if _, err := c.interArrival(1); err != nil {
			return err
		}
		if _, err := c.Size.Dist(); err != nil {
			return fmt.Errorf("client %q: %w", c.ID, err)
		}
		min, max := c.Size.clampBounds()
		if !(min <= max) || math.IsInf(max, 1) {
			return fmt.Errorf("client %q: size min %v and max %v must be finite with min <= max", c.ID, min, max)
		}
	}
	if !stats.ApproxEqual(total, 1, 1e-6) {
		return fmt.Errorf("spec: client rate_fractions sum to %v, want 1", total)
	}
	// SLO classes must agree on their target across clients, or the
	// per-class attainment number would be ambiguous.
	targets := map[string]float64{}
	for i := range s.Clients {
		c := &s.Clients[i]
		if prev, ok := targets[c.SLOClass]; ok && !stats.ApproxEqual(prev, c.SLOTargetMs, 1e-9) {
			return fmt.Errorf("slo class %q: conflicting targets %vms and %vms", c.SLOClass, prev, c.SLOTargetMs)
		}
		targets[c.SLOClass] = c.SLOTargetMs
	}
	return nil
}

// positiveFinite reports whether v is a usable positive quantity: not
// zero or negative, not NaN, not infinite.
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// clampBounds returns the effective [min, max] flow-count clamp.
func (s *SizeSpec) clampBounds() (float64, float64) {
	min, max := s.Min, s.Max
	if min <= 0 {
		min = 1
	}
	if max <= 0 {
		max = 64
	}
	return min, max
}

// specDecoder accumulates the first typed-access error while walking
// the generic YAML tree, so call sites stay linear.
type specDecoder struct {
	err error
}

func (d *specDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *specDecoder) str(m map[string]any, key, def string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail("spec: %s must be a scalar, got %T", key, v)
		return def
	}
	return s
}

func (d *specDecoder) float(m map[string]any, key string, def float64) float64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail("spec: %s must be a number, got %T", key, v)
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("spec: %s: %q is not a number", key, s)
		return def
	}
	return f
}

// int decodes a count: a base-10 integer that fits an int. A fraction
// ("2.9") or an exponent ("1e19") is refused, not truncated or wrapped.
func (d *specDecoder) int(m map[string]any, key string, def int) int {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail("spec: %s must be an integer, got %T", key, v)
		return def
	}
	n, err := strconv.ParseInt(s, 10, 0)
	if err != nil {
		d.fail("spec: %s: %q is not an integer in range", key, s)
		return def
	}
	return int(n)
}

func (d *specDecoder) uint64(m map[string]any, key string, def uint64) uint64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail("spec: %s must be an unsigned integer, got %T", key, v)
		return def
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		d.fail("spec: %s: %q is not an unsigned integer", key, s)
		return def
	}
	return u
}

// sizeSpec decodes a size_distribution node (recursing into mixture
// components).
func (d *specDecoder) sizeSpec(node any, path string) (*SizeSpec, error) {
	m, ok := node.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("spec: %s must be a mapping", path)
	}
	s := &SizeSpec{
		Type:   d.str(m, "type", ""),
		Min:    d.float(m, "min", 0),
		Max:    d.float(m, "max", 0),
		Weight: d.float(m, "weight", 0),
	}
	if pn, ok := m["params"]; ok && pn != nil {
		pm, ok := pn.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("spec: %s.params must be a mapping", path)
		}
		s.Params = map[string]float64{}
		// Sorted key walk keeps error messages deterministic.
		keys := make([]string, 0, len(pm))
		for k := range pm {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.Params[k] = d.float(pm, k, 0)
		}
	}
	if cn, ok := m["components"]; ok && cn != nil {
		cl, ok := cn.([]any)
		if !ok {
			return nil, fmt.Errorf("spec: %s.components must be a list", path)
		}
		for i, comp := range cl {
			cs, err := d.sizeSpec(comp, fmt.Sprintf("%s.components[%d]", path, i))
			if err != nil {
				return nil, err
			}
			s.Components = append(s.Components, *cs)
		}
	}
	return s, nil
}
