package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"trafficdiff/internal/load"
	"trafficdiff/internal/stats"
)

// workloadNames is the fixed list, in run order; later issues cite
// these names.
var workloadNames = []string{"offline_bulk", "serve_contend", "serve_small", "router_repeat", "serve_mixed"}

// gatedWorkloads are the ones BENCHMARK.json lists: closed loops, whose
// run-to-run spread on the reference host stays inside the bounds.
// serve_mixed, the open loop, is run and reported beside them but not
// gated: at 2-core scale its latencies spread by 20-60 % between runs
// of one commit (README, "Measured spreads").
var gatedWorkloads = workloadNames[:4]

// workloadWhy is the one-sentence reason each workload exists; the same
// text is BENCHMARK.json's "why".
var workloadWhy = map[string]string{
	"offline_bulk":  "closed loop, no server: 64-flow Synthesizer calls at 15 steps, the paper's dataset synthesis; kernels and denoiser do all the work, engine/serve/cluster none",
	"serve_contend": "closed loop through traced at 4 steps: one connection of 1-flow probes beside one of 8-flow bulk requests, both back to back; what continuous batching and the step-row budget decide",
	"serve_mixed":   "open loop through traced at 4 steps: 10 req/s 1-flow probes beside 6 req/s 8-flow bulk, timed from due time; queueing under an arrival schedule (reported, not gated)",
	"serve_small":   "closed loop, 2 connections of unique 1-flow requests through traced, pcap and csv alternating; fixed per-request cost is its largest share, kernels run at 1-2 rows",
	"router_repeat": "closed loop, 2 connections through tracerouter over 2 replicas, 90% repeated keys; the cluster cache serves hits, misses are scored, forwarded, validated and stored",
}

// referenceSeconds is the run length the fixed request counts below are
// sized for; -seconds scales every workload by seconds/30.
const referenceSeconds = 30.0

const (
	offlineCalls      = 24   // 64-flow calls at the reference length
	offlineFlows      = 64   // flows per offline call
	smallPerConn      = 1500 // serve_small requests per connection
	contendProbes     = 900  // serve_contend 1-flow requests
	contendBulk       = 540  // serve_contend 8-flow requests
	bulkFlows         = 8
	repeatPerConn     = 15000
	repeatNewKeyShare = 0.10
	connections       = 2 // client streams; never more on the 2-core host
	soloChecks        = 16
)

// Request kinds: each workload splits its requests into a light and a
// heavy kind (see metrics.go).
const (
	lightKind = iota
	heavyKind
)

// request is one unit of a workload's input stream.
type request struct {
	genRequest
	kind int
	// due is the open-loop send time relative to the phase start.
	due time.Duration
	// limitMs is the stream's latency limit (0 = none).
	limitMs float64
	// expectCache is the X-Cache verdict this request must get ("" on
	// workloads without a router).
	expectCache string
	// solo, when set, is the body a solo Synthesizer call produced for
	// this request; the reply under load must equal it byte for byte.
	// With soloOne (offline_bulk) it covers only flow soloFlow of the
	// call.
	solo     []byte
	soloOne  bool
	soloFlow int
}

// plan is one workload's complete, seeded input.
type plan struct {
	name     string
	kind     stackKind
	steps    int
	openLoop bool
	// streams holds one request list per client connection.
	streams [][]request
	// digest identifies the input: equal seeds give equal digests at
	// any GOMAXPROCS.
	digest  string
	buildMs float64
	// setups is how many times set-up is run; the median is reported.
	setups int
	// together ends every stream as soon as one has sent its whole
	// list, so that no stream runs on alone against an idle server.
	together bool
}

func (p *plan) requests() int {
	n := 0
	for _, s := range p.streams {
		n += len(s)
	}
	return n
}

//go:embed workloads/serve_mixed.yaml
var serveMixedSpec []byte

// scaled returns base scaled to the run length, never below min.
func scaled(base int, scale float64, min int) int {
	n := int(math.Round(float64(base) * scale))
	if n < min {
		n = min
	}
	return n
}

// buildPlan draws a workload's requests from the seed. Nothing but the
// seed, the run length and the model's class list goes in.
func buildPlan(name string, m modelSpec, seed uint64, seconds float64) (*plan, error) {
	scale := seconds / referenceSeconds
	t0 := time.Now()
	p := &plan{name: name, steps: m.ServeSteps, setups: 9}
	// Each workload draws from its own stream of the seed so that a
	// change to one never perturbs another's inputs.
	root := stats.NewRNG(seed)
	var r *stats.RNG
	for _, w := range workloadNames {
		if s := root.Split(); w == name {
			r = s
		}
	}
	if r == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	classes := m.Classes
	switch name {
	case "offline_bulk":
		p.kind, p.steps, p.setups = stackOffline, m.OfflineSteps, 3
		calls := make([]request, scaled(offlineCalls, scale, 2))
		for i := range calls {
			calls[i] = request{genRequest: genRequest{
				Class: classes[i%len(classes)], Count: offlineFlows, Seed: r.Uint64(), Format: "pcap",
			}}
		}
		p.streams = [][]request{calls}

	case "serve_mixed":
		p.kind, p.openLoop = stackServe, true
		spec, err := load.ParseSpec(serveMixedSpec)
		if err != nil {
			return nil, fmt.Errorf("serve_mixed.yaml: %w", err)
		}
		spec.Seed = r.Uint64()
		spec.NumRequests = scaled(spec.NumRequests, scale, 2*connections)
		sched, err := load.BuildSchedule(spec)
		if err != nil {
			return nil, err
		}
		// Request counts are fixed by num_requests; stretching the
		// offsets to the nominal duration fixes the offered rate too (a
		// poisson process conditioned on its count), so flows/s does
		// not vary with how many arrivals a seed happened to draw.
		span := time.Duration(float64(spec.NumRequests) / spec.AggregateRate * float64(time.Second))
		stretch := float64(span) / float64(sched.Duration)
		for i := range sched.Requests {
			sched.Requests[i].Offset = time.Duration(float64(sched.Requests[i].Offset) * stretch)
		}
		sched.Duration = span
		p.streams = make([][]request, len(spec.Clients))
		for _, q := range sched.Requests {
			si, kind := 0, lightKind
			if q.Client != spec.Clients[0].ID {
				si, kind = 1, heavyKind
			}
			p.streams[si] = append(p.streams[si], request{
				genRequest: genRequest{Class: q.Class, Count: q.Flows, Seed: q.Seed, Format: q.Format},
				kind:       kind, due: q.Offset, limitMs: q.SLOTargetMs,
			})
		}
		p.digest = sched.Digest()

	case "serve_contend":
		p.kind, p.together = stackServe, true
		// The counts keep both connections busy for about the same
		// time on the reference host (a probe takes ~31 ms beside a
		// bulk request, a bulk request ~56 ms); whichever list ends
		// first ends the phase. The limits are serve_mixed's.
		probes := make([]request, scaled(contendProbes, scale, 4))
		for i := range probes {
			probes[i] = request{
				genRequest: genRequest{Class: "teams", Count: 1, Seed: r.Uint64(), Format: "pcap"},
				kind:       lightKind, limitMs: 40,
			}
		}
		bulk := make([]request, scaled(contendBulk, scale, 4))
		for i := range bulk {
			bulk[i] = request{
				genRequest: genRequest{Class: "amazon", Count: bulkFlows, Seed: r.Uint64(), Format: "pcap"},
				kind:       heavyKind, limitMs: 120,
			}
		}
		p.streams = [][]request{probes, bulk}

	case "serve_small":
		p.kind = stackServe
		n := scaled(smallPerConn, scale, 8)
		formats := []string{"pcap", "csv"}
		for c := 0; c < connections; c++ {
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i] = request{
					genRequest: genRequest{
						Class: classes[(i/2)%len(classes)], Count: 1, Seed: r.Uint64(), Format: formats[i%2],
					},
					kind: i % 2, // pcap light, csv heavy
				}
			}
			p.streams = append(p.streams, reqs)
		}

	case "router_repeat":
		p.kind = stackRouter
		n := scaled(repeatPerConn, scale, 16)
		for c := 0; c < connections; c++ {
			cr := r.Split()
			var keys []genRequest
			reqs := make([]request, n)
			for i := range reqs {
				if len(keys) == 0 || cr.Float64() < repeatNewKeyShare {
					// The low bit is the connection, so the two key
					// spaces are disjoint and a repeat is only ever
					// sent after its first reply arrived: hit and miss
					// counts are a pure function of the seed.
					seed := cr.Uint64()&^1 | uint64(c)
					keys = append(keys, genRequest{
						Class: classes[len(keys)%len(classes)], Count: 1, Seed: seed, Format: "pcap",
					})
					reqs[i] = request{genRequest: keys[len(keys)-1], kind: heavyKind, expectCache: "miss"}
					continue
				}
				reqs[i] = request{genRequest: keys[cr.Intn(len(keys))], kind: lightKind, expectCache: "hit"}
			}
			p.streams = append(p.streams, reqs)
		}
	}
	if p.digest == "" {
		p.digest = digestStreams(p.streams)
	}
	p.buildMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return p, nil
}

// digestStreams hashes every field of every request that reaches the
// program under test.
func digestStreams(streams [][]request) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		// hash.Hash.Write never returns an error.
		_, _ = h.Write(buf[:])
	}
	for _, s := range streams {
		u64(uint64(len(s)))
		for i := range s {
			q := &s[i]
			u64(uint64(len(q.Class)))
			_, _ = h.Write([]byte(q.Class))
			u64(uint64(q.Count))
			u64(q.Seed)
			u64(uint64(len(q.Format)))
			_, _ = h.Write([]byte(q.Format))
			u64(uint64(q.due))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// slice returns a copy of the plan cut to the first share of every
// stream (and of the open-loop span), the short replay the traced pass
// runs. Solo expectations are dropped: the plain pass checks them.
func (p *plan) slice(share float64) *plan {
	q := *p
	q.streams = make([][]request, len(p.streams))
	for i, s := range p.streams {
		n := int(math.Ceil(float64(len(s)) * share))
		q.streams[i] = append([]request(nil), s[:n]...)
		for j := range q.streams[i] {
			q.streams[i][j].solo = nil
		}
	}
	return &q
}
