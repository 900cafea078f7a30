package trafficdiff

import (
	"bytes"
	"testing"

	"trafficdiff/internal/core"
	"trafficdiff/internal/eval"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/netem"
	"trafficdiff/internal/netfunc"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/pcap"
	"trafficdiff/internal/repair"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/workload"
)

// TestFullPipelineIntegration exercises the complete system end to
// end: workload generation -> fine-tuning -> synthesis -> pcap write/
// read round trip -> stateful repair -> NF replay under an emulated
// path -> classifier evaluation — every subsystem touching real data
// flowing through the others.
func TestFullPipelineIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	classes := []string{"amazon", "teams"}

	// 1. "Real" data.
	ds, err := workload.Generate(workload.Config{
		Seed: 77, FlowsPerClass: 10, Only: classes, MaxPacketsPerFlow: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.7, 1)
	byClass := map[string][]*flow.Flow{}
	for _, f := range train.Flows {
		byClass[f.Label] = append(byClass[f.Label], f)
	}

	// 2. Fine-tune a small pipeline and generate.
	cfg := core.DefaultConfig()
	cfg.Rows = 16
	cfg.DownH = 2
	cfg.DownW = 16
	cfg.Hidden = 64
	cfg.TimeSteps = 40
	cfg.BaseSteps = 40
	cfg.FineTuneSteps = 60
	cfg.Batch = 8
	cfg.DDIMSteps = 8
	synth, err := core.New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.FineTune(byClass); err != nil {
		t.Fatal(err)
	}
	synthFlows, err := synth.GenerateBalanced(4)
	if err != nil {
		t.Fatal(err)
	}

	// 3. pcap round trip of the synthetic traffic.
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for _, f := range synthFlows {
		for _, p := range f.Packets {
			if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
				t.Fatal(err)
			}
			written++
		}
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != written {
		t.Fatalf("pcap round trip lost packets: %d != %d", len(recs), written)
	}

	// 4. Stateful repair + NF replay under a lossy path.
	repaired, err := repair.Flows(synthFlows, 5)
	if err != nil {
		t.Fatal(err)
	}
	cond := netem.Cellular
	cond.Seed = 9
	conditioned, _, err := netem.ApplyAll(repaired, cond)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*packet.Packet
	for _, f := range conditioned {
		pkts = append(pkts, f.Packets...)
	}
	checker := netfunc.NewTCPStateChecker()
	pipeline := []netfunc.NF{netfunc.NewChecksumVerifier(), checker, netfunc.NewFlowMonitor()}
	st := netfunc.Replay(pkts, pipeline)
	if st.Accepted != st.Packets {
		t.Fatalf("replay dropped %d of %d packets", st.Packets-st.Accepted, st.Packets)
	}
	// Loss breaks some conversations' continuity, but SYN-before-data
	// ordering survives; amazon TCP packets must be mostly conformant.
	if checker.Violations() > st.Packets/2 {
		t.Fatalf("repaired+conditioned traffic mostly non-conformant: %s", checker.Report())
	}

	// 5. Classifier evaluation: synthetic-trained RF must separate the
	// two protocol-distinct classes on real test data.
	micro := eval.MicroSpace(classes)
	sx := eval.FeatureMatrix(synthFlows, eval.GranularityNprint, 8)
	sy, err := micro.Labels(synthFlows)
	if err != nil {
		t.Fatal(err)
	}
	tx := eval.FeatureMatrix(test.Flows, eval.GranularityNprint, 8)
	ty, err := micro.Labels(test.Flows)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(sx, sy, micro.K(), rf.Config{Trees: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := rf.Accuracy(forest.PredictBatch(tx), ty); acc < 0.9 {
		t.Fatalf("synthetic-trained classifier accuracy %.2f on protocol-distinct classes", acc)
	}
}
