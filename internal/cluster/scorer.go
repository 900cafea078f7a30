package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// RouteInput is what a scorer may condition on: the request's class
// and flow count.
type RouteInput struct {
	Class string
	Count int
}

// Scorer rates one replica for one request; higher is better. Scorers
// must be pure functions of their inputs so routing decisions are
// explainable from a pool snapshot.
type Scorer func(in RouteInput, r ReplicaStatus) float64

// WeightedScorer is one term of a weighted routing policy.
type WeightedScorer struct {
	Name   string
	Weight float64
	Fn     Scorer
}

// builtinScorers maps policy names (the -routing-scorers vocabulary)
// to their implementations.
//
//   - queue-depth: prefer replicas with shallow admission queues and
//     few in-flight flows — the classic load-balancing term.
//   - class-affinity: prefer the replica that last served this class,
//     so the engine's continuous batch can merge same-class requests
//     into shared denoiser forwards (the BLIS prefix-affinity idiom
//     mapped onto trace classes).
//   - least-inflight: prefer replicas with the fewest router-side
//     in-flight requests, ignoring replica-reported load.
var builtinScorers = map[string]Scorer{
	"queue-depth": func(in RouteInput, r ReplicaStatus) float64 {
		return 1 / (1 + float64(r.QueueDepth) + float64(r.InFlightFlows) + float64(r.InFlight))
	},
	"class-affinity": func(in RouteInput, r ReplicaStatus) float64 {
		switch r.LastClass {
		case in.Class:
			return 1
		case "":
			// A cold replica is a better affinity target than one warm
			// on a different class: claiming it starts a new same-class
			// run instead of breaking an existing one.
			return 0.5
		default:
			return 0
		}
	},
	"least-inflight": func(in RouteInput, r ReplicaStatus) float64 {
		return 1 / (1 + float64(r.InFlight))
	},
}

// ParseScorers parses a -routing-scorers spec like
// "class-affinity:3,queue-depth:2" into a weighted policy. The empty
// spec and the literal "p2c" select the power-of-two-choices fallback
// (nil policy). Unknown names and non-positive weights are errors.
func ParseScorers(spec string) ([]WeightedScorer, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "p2c" {
		return nil, nil
	}
	var out []WeightedScorer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, ":")
		weight := 1.0
		if found {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: scorer %q: bad weight %q", name, weightStr)
			}
			weight = w
		}
		if weight <= 0 {
			return nil, fmt.Errorf("cluster: scorer %q: weight must be positive", name)
		}
		fn, ok := builtinScorers[name]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown scorer %q (have: class-affinity, queue-depth, least-inflight)", name)
		}
		out = append(out, WeightedScorer{Name: name, Weight: weight, Fn: fn})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty scorer spec %q", spec)
	}
	return out, nil
}

// scoreReplica evaluates the weighted policy for one candidate.
func scoreReplica(scorers []WeightedScorer, in RouteInput, r ReplicaStatus) float64 {
	total := 0.0
	for _, ws := range scorers {
		total += float64(ws.Weight * ws.Fn(in, r))
	}
	return total
}

// splitmix64 is the same mixing function stats.NewRNG seeds with; the
// router uses it to turn a monotone counter into well-spread replica
// picks for power-of-two-choices, with no RNG state shared across
// handler goroutines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
