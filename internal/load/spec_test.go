package load

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trafficdiff/internal/stats"
)

const specDoc = `
version: "1"
seed: 7
aggregate_rate: 100
num_requests: 50
clients:
  - id: bulk
    rate_fraction: 0.8
    class: amazon
    format: pcap
    slo_class: batch
    slo_target_ms: 2000
    arrival:
      process: poisson
    size_distribution:
      type: lognormal
      params:
        mu: 1.0
        sigma: 0.5
      min: 1
      max: 32
  - id: interactive
    rate_fraction: 0.2
    class: teams
    format: csv
    slo_class: realtime
    slo_target_ms: 250
    timeout_ms: 500
    arrival:
      process: gamma
      cv: 2.0
    size_distribution:
      type: constant
      params:
        value: 2
`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(specDoc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || spec.NumRequests != 50 {
		t.Fatalf("seed/num_requests = %d/%d", spec.Seed, spec.NumRequests)
	}
	if !stats.ApproxEqual(spec.AggregateRate, 100, 1e-12) {
		t.Fatalf("aggregate_rate = %v", spec.AggregateRate)
	}
	if len(spec.Clients) != 2 {
		t.Fatalf("clients = %d", len(spec.Clients))
	}
	c := &spec.Clients[1]
	if c.ID != "interactive" || c.Class != "teams" || c.Format != "csv" ||
		c.SLOClass != "realtime" || c.TimeoutMs != 500 {
		t.Fatalf("client[1] = %+v", c)
	}
	if c.Arrival.Process != "gamma" || !stats.ApproxEqual(c.Arrival.CV, 2, 1e-12) {
		t.Fatalf("arrival = %+v", c.Arrival)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	doc := `
aggregate_rate: 10
duration_s: 1
clients:
  - id: only
    rate_fraction: 1.0
    class: amazon
    slo_class: default
    slo_target_ms: 1000
`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	c := &spec.Clients[0]
	if spec.Version != "1" || spec.Seed != 1 {
		t.Fatalf("version/seed = %q/%d", spec.Version, spec.Seed)
	}
	if c.Format != "pcap" || c.Arrival.Process != "poisson" {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Size.Type != "constant" {
		t.Fatalf("size default = %+v", c.Size)
	}
}

// specValidationCases are specs ParseSpec must reject, each with a
// substring of the error it must give.
func specValidationCases() []struct{ name, doc, wantSub string } {
	base := func(extra string) string {
		return `
version: "1"
aggregate_rate: 10
duration_s: 1
clients:
  - id: a
    rate_fraction: 1.0
    class: amazon
    slo_class: x
    slo_target_ms: 100
` + extra
	}
	return []struct{ name, doc, wantSub string }{
		{"fractions", strings.Replace(base(""), "rate_fraction: 1.0", "rate_fraction: 0.5", 1), "sum to"},
		{"no bound", strings.Replace(base(""), "duration_s: 1", "duration_s: 0", 1), "bound the run"},
		{"bad rate", strings.Replace(base(""), "aggregate_rate: 10", "aggregate_rate: 0", 1), "aggregate_rate"},
		{"bad format", base("    format: xml\n"), "format"},
		{"bad process", base("    arrival:\n      process: bursty\n"), "unknown arrival process"},
		{"bad size type", base("    size_distribution:\n      type: cauchy\n"), "unknown size distribution"},
		{"missing param", base("    size_distribution:\n      type: pareto\n"), "missing param"},
		{"no clients", "version: \"1\"\naggregate_rate: 10\nduration_s: 1\nclients:\n", "clients"},
		{"no slo target", strings.Replace(base(""), "slo_target_ms: 100", "slo_target_ms: 0", 1), "slo_target_ms"},
		{"fractional num_requests", base("num_requests: 2.9\n"), "num_requests"},
		{"num_requests past int", base("num_requests: 1e19\n"), "num_requests"},
		{"fractional timeout", base("    timeout_ms: 2.9\n"), "timeout_ms"},
		{"nan duration", strings.Replace(base(""), "duration_s: 1", "duration_s: nan", 1), "duration_s"},
		{"NaN duration", strings.Replace(base(""), "duration_s: 1", "duration_s: NaN", 1), "duration_s"},
		{"inf duration", strings.Replace(base(""), "duration_s: 1", "duration_s: inf", 1), "duration_s"},
		{"+Inf duration", strings.Replace(base(""), "duration_s: 1", "duration_s: +Inf", 1), "duration_s"},
		{"nan slo target", strings.Replace(base(""), "slo_target_ms: 100", "slo_target_ms: nan", 1), "slo_target_ms"},
		{"inf slo target", strings.Replace(base(""), "slo_target_ms: 100", "slo_target_ms: inf", 1), "slo_target_ms"},
		{"nan gamma cv", base("    arrival:\n      process: gamma\n      cv: nan\n"), "gamma cv"},
		{"huge gamma cv", base("    arrival:\n      process: gamma\n      cv: 1e100\n"), "gamma cv"},
		{"nan weibull shape", base("    arrival:\n      process: weibull\n      shape: nan\n"), "weibull shape"},
		{"tiny weibull shape", base("    arrival:\n      process: weibull\n      shape: 0.001\n"), "weibull shape"},
		{"inf weibull shape", base("    arrival:\n      process: weibull\n      shape: inf\n"), "weibull shape"},
		{"nan size max", base("    size_distribution:\n      type: constant\n      params:\n        value: 2\n      max: nan\n"), "size min"},
		{"inf size max", base("    size_distribution:\n      type: constant\n      params:\n        value: 2\n      max: inf\n"), "size min"},
		{"unweighted mixture", base("    size_distribution:\n      type: mixture\n      components:\n        - type: constant\n          params:\n            value: 2\n"), "weights must sum"},
		{"nan mixture weight", base("    size_distribution:\n      type: mixture\n      components:\n        - type: constant\n          params:\n            value: 2\n          weight: nan\n"), "weight must be a non-negative number"},
	}
}

func TestParseSpecValidationErrors(t *testing.T) {
	for _, tc := range specValidationCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzParseSpec feeds arbitrary documents to ParseSpec: nothing may
// panic, and a spec it accepts must expand into a schedule, the same
// one twice. Specs asking for more than fuzzMaxRequests requests are
// only parsed, to keep the harness small; the program sets no such cap.
func FuzzParseSpec(f *testing.F) {
	const fuzzMaxRequests = 10000
	paths, err := filepath.Glob("../../examples/loadspec/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("example specs: %v (found %d)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range specValidationCases() {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Each client stops at whichever bound it reaches first.
		requests := math.Inf(1)
		if spec.NumRequests > 0 {
			requests = float64(spec.NumRequests)
		}
		if spec.DurationS > 0 {
			requests = math.Min(requests, spec.AggregateRate*spec.DurationS)
		}
		if requests > fuzzMaxRequests {
			return
		}
		a, err := BuildSchedule(spec)
		if err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
		b, err := BuildSchedule(spec)
		if err != nil {
			t.Fatalf("second build: %v", err)
		}
		if a.Digest() != b.Digest() {
			t.Fatal("one spec built two different schedules")
		}
	})
}

func TestParseSpecConflictingSLOTargets(t *testing.T) {
	doc := `
version: "1"
aggregate_rate: 10
duration_s: 1
clients:
  - id: a
    rate_fraction: 0.5
    class: amazon
    slo_class: shared
    slo_target_ms: 100
  - id: b
    rate_fraction: 0.5
    class: teams
    slo_class: shared
    slo_target_ms: 200
`
	_, err := ParseSpec([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "conflicting targets") {
		t.Fatalf("err = %v", err)
	}
}

// TestInterArrivalMeansMatchRate checks every arrival process yields a
// mean gap of 1/rate, so rate fractions are honored regardless of
// burst shape.
func TestInterArrivalMeansMatchRate(t *testing.T) {
	cases := []ArrivalSpec{
		{Process: "poisson"},
		{Process: "gamma", CV: 0.5},
		{Process: "gamma", CV: 3},
		{Process: "weibull", Shape: 0.7},
		{Process: "weibull", Shape: 2},
	}
	for _, ar := range cases {
		c := ClientSpec{ID: "t", Arrival: ar}
		d, err := c.interArrival(25)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.Mean(), 1.0/25; math.Abs(got-want) > 1e-9 {
			t.Fatalf("%+v: mean gap = %v, want %v", ar, got, want)
		}
	}
}

func TestSizeSpecMixture(t *testing.T) {
	doc := `
version: "1"
aggregate_rate: 10
duration_s: 1
clients:
  - id: mixed
    rate_fraction: 1.0
    class: amazon
    slo_class: x
    slo_target_ms: 100
    size_distribution:
      type: mixture
      components:
        - type: constant
          params:
            value: 2
          weight: 0.7
        - type: pareto
          params:
            xm: 4
            alpha: 1.5
          weight: 0.3
`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Clients[0].Size.Dist()
	if err != nil {
		t.Fatal(err)
	}
	// Mixture mean = 0.7*2 + 0.3*(1.5*4/0.5) = 1.4 + 3.6 = 5.0
	if got := d.Mean(); math.Abs(got-5.0) > 1e-9 {
		t.Fatalf("mixture mean = %v", got)
	}
}
