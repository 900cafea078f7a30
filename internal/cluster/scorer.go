package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Scorer rates one replica for a request of the given class; higher is
// better. Scorers must be pure functions of their inputs so routing
// decisions are explainable from a pool snapshot.
type Scorer func(class string, r ReplicaStatus) float64

// WeightedScorer is one term of a weighted routing policy.
type WeightedScorer struct {
	Name   string
	Weight float64
	Fn     Scorer
}

// builtinScorers maps the policy names ParseScorers accepts to their
// implementations.
//
//   - queue-depth: prefer replicas with shallow admission queues and
//     few in-flight flows — the classic load-balancing term.
//   - class-affinity: prefer the replica that last served this class,
//     so the engine's continuous batch can merge same-class requests
//     into shared denoiser forwards (the BLIS prefix-affinity idiom
//     mapped onto trace classes).
var builtinScorers = map[string]Scorer{
	"queue-depth": func(_ string, r ReplicaStatus) float64 {
		return 1 / (1 + float64(r.QueueDepth) + float64(r.InFlightFlows) + float64(r.InFlight))
	},
	"class-affinity": func(class string, r ReplicaStatus) float64 {
		switch r.LastClass {
		case class:
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
}

// defaultPolicy is the routing policy a Router with nil Config.Scorers
// runs: affinity at weight 3 outranks a moderate queue, so same-class
// requests gather on one replica until its load outweighs the merge.
var defaultPolicy = []WeightedScorer{
	{Name: "class-affinity", Weight: 3, Fn: builtinScorers["class-affinity"]},
	{Name: "queue-depth", Weight: 2, Fn: builtinScorers["queue-depth"]},
}

// ParseScorers parses a spec like "class-affinity:3,queue-depth:2"
// into a weighted policy. Unknown names, non-positive weights and an
// empty spec are errors.
func ParseScorers(spec string) ([]WeightedScorer, error) {
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
			return nil, fmt.Errorf("cluster: unknown scorer %q (have: class-affinity, queue-depth)", name)
		}
		out = append(out, WeightedScorer{Name: name, Weight: weight, Fn: fn})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty scorer spec %q", spec)
	}
	return out, nil
}

// scoreReplica evaluates the weighted policy for one candidate.
func scoreReplica(scorers []WeightedScorer, class string, r ReplicaStatus) float64 {
	total := 0.0
	for _, ws := range scorers {
		total += float64(ws.Weight * ws.Fn(class, r))
	}
	return total
}
