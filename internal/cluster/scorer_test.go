package cluster

import (
	"math"
	"testing"
)

func TestParseScorers(t *testing.T) {
	cases := []struct {
		spec    string
		names   []string
		weights []float64
		wantErr bool
	}{
		{spec: "queue-depth", names: []string{"queue-depth"}, weights: []float64{1}},
		{
			spec:    "class-affinity:3,queue-depth:2",
			names:   []string{"class-affinity", "queue-depth"},
			weights: []float64{3, 2},
		},
		{
			spec:    "class-affinity:0.5, queue-depth:1.5",
			names:   []string{"class-affinity", "queue-depth"},
			weights: []float64{0.5, 1.5},
		},
		{spec: "", wantErr: true},
		{spec: "p2c", wantErr: true},
		{spec: "least-inflight", wantErr: true},
		{spec: "no-such-scorer", wantErr: true},
		{spec: "queue-depth:zero", wantErr: true},
		{spec: "queue-depth:0", wantErr: true},
		{spec: "queue-depth:-1", wantErr: true},
		{spec: ",", wantErr: true}, // only empty parts
	}
	for _, tc := range cases {
		got, err := ParseScorers(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseScorers(%q): want error, got %v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseScorers(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.names) {
			t.Errorf("ParseScorers(%q): %d scorers, want %d", tc.spec, len(got), len(tc.names))
			continue
		}
		for i, ws := range got {
			if ws.Name != tc.names[i] || ws.Weight != tc.weights[i] || ws.Fn == nil {
				t.Errorf("ParseScorers(%q)[%d] = {%s %v}, want {%s %v}",
					tc.spec, i, ws.Name, ws.Weight, tc.names[i], tc.weights[i])
			}
		}
	}
}

func TestQueueDepthScorerPrefersIdle(t *testing.T) {
	fn := builtinScorers["queue-depth"]
	const class = "web"
	idle := fn(class, ReplicaStatus{})
	queued := fn(class, ReplicaStatus{QueueDepth: 4})
	flowing := fn(class, ReplicaStatus{InFlightFlows: 4})
	routing := fn(class, ReplicaStatus{InFlight: 4})
	if idle != 1 {
		t.Fatalf("idle score = %v, want 1", idle)
	}
	for name, s := range map[string]float64{"queued": queued, "flowing": flowing, "routing": routing} {
		if math.Abs(s-0.2) > 1e-12 {
			t.Fatalf("%s score = %v, want 0.2 (all load terms equivalent)", name, s)
		}
	}
}

// TestQueueDepthScorerNegativeLoad: a probe reporting negative load
// (an engine snapshot that once read −1 in-flight flows, or a lying
// replica) is clamped at decode and scores as idle, not above it.
func TestQueueDepthScorerNegativeLoad(t *testing.T) {
	fn := builtinScorers["queue-depth"]
	for _, body := range []string{
		`{"queue_depth":-1}`,
		`{"in_flight_flows":-1}`,
		`{"queue_depth":-3,"in_flight_flows":-9223372036854775808}`,
	} {
		st, err := decodeReady([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		r := ReplicaStatus{QueueDepth: st.QueueDepth, InFlightFlows: st.InFlightFlows}
		if s := fn("web", r); !(s > 0 && s <= 1) {
			t.Errorf("%s: score %v, want in (0, 1]", body, s)
		}
	}
}

// FuzzReadyStatus feeds arbitrary bodies to the router's verbose
// readiness decode: each either errors or yields a replica whose
// queue-depth score is finite and in (0, 1].
func FuzzReadyStatus(f *testing.F) {
	for _, body := range []string{
		`{"ready":true,"queue_depth":2,"in_flight_flows":5,"checkpoint_digest":"ab","ddim_steps":4}`,
		`{"queue_depth":-1,"in_flight_flows":-1}`,
		`{"in_flight_flows":9223372036854775807,"queue_depth":9223372036854775807}`,
		`{"queue_depth":1e3}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	fn := builtinScorers["queue-depth"]
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeReady(body)
		if err != nil {
			return
		}
		r := ReplicaStatus{QueueDepth: st.QueueDepth, InFlightFlows: st.InFlightFlows}
		if s := fn("web", r); !(s > 0 && s <= 1) || math.IsInf(s, 0) {
			t.Fatalf("body %q: queue-depth score %v, want finite in (0, 1]", body, s)
		}
	})
}

func TestClassAffinityScorer(t *testing.T) {
	fn := builtinScorers["class-affinity"]
	const class = "web"
	if got := fn(class, ReplicaStatus{LastClass: "web"}); got != 1 {
		t.Fatalf("same-class score = %v, want 1", got)
	}
	if got := fn(class, ReplicaStatus{}); got != 0.5 {
		t.Fatalf("cold score = %v, want 0.5", got)
	}
	if got := fn(class, ReplicaStatus{LastClass: "video"}); got != 0 {
		t.Fatalf("cross-class score = %v, want 0", got)
	}
}

func TestScoreReplicaWeightedSum(t *testing.T) {
	policy, err := ParseScorers("class-affinity:3,queue-depth:2")
	if err != nil {
		t.Fatal(err)
	}
	const class = "web"
	warmIdle := scoreReplica(policy, class, ReplicaStatus{LastClass: "web"})
	if math.Abs(warmIdle-5) > 1e-12 { // 3*1 + 2*1
		t.Fatalf("warm idle = %v, want 5", warmIdle)
	}
	coldIdle := scoreReplica(policy, class, ReplicaStatus{})
	if math.Abs(coldIdle-3.5) > 1e-12 { // 3*0.5 + 2*1
		t.Fatalf("cold idle = %v, want 3.5", coldIdle)
	}
	// Affinity at weight 3 should outrank a moderate queue: a warm
	// replica with 2 queued still beats a cold idle one.
	warmBusy := scoreReplica(policy, class, ReplicaStatus{LastClass: "web", QueueDepth: 2})
	if warmBusy <= coldIdle {
		t.Fatalf("warm busy %v should beat cold idle %v under affinity:3", warmBusy, coldIdle)
	}
}
