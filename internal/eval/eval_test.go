package eval

import (
	"strings"
	"testing"

	"trafficdiff/internal/core"
	"trafficdiff/internal/gan"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/rf"
	"trafficdiff/internal/workload"
)

// tinySynth keeps pipeline training fast in tests.
func tinySynth() core.Config {
	cfg := core.DefaultConfig()
	cfg.Rows = 16
	cfg.DownH = 2
	cfg.DownW = 16
	cfg.Hidden = 48
	cfg.TimeSteps = 30
	cfg.BaseSteps = 25
	cfg.FineTuneSteps = 40
	cfg.Batch = 8
	cfg.DDIMSteps = 6
	return cfg
}

func tinyGAN() gan.Config {
	cfg := gan.DefaultConfig()
	cfg.Steps = 120
	return cfg
}

func tinyRF() rf.Config {
	cfg := rf.DefaultConfig()
	cfg.Trees = 10
	return cfg
}

func TestFeatureShapes(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Seed: 1, FlowsPerClass: 2, Only: []string{"netflix"}, MaxPacketsPerFlow: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Flows[0]
	np := NprintFeatures(f, 6)
	if len(np) != 6*nprint.BitsPerPacket {
		t.Fatalf("nprint features len %d", len(np))
	}
	nf := NetFlowFeatures(f)
	if len(nf) != 8 {
		t.Fatalf("netflow features len %d", len(nf))
	}
}

func TestMaskedColumnsExcluded(t *testing.T) {
	ds, _ := workload.Generate(workload.Config{Seed: 2, FlowsPerClass: 1, Only: []string{"netflix"}, MaxPacketsPerFlow: 8})
	f := ds.Flows[0]
	v := NprintFeatures(f, 4)
	// Source IP bits (IPv4 bytes 12-16 = bit cols 96..128) must be 0
	// for every packet row.
	for r := 0; r < 4; r++ {
		for c := 96; c < 160; c++ {
			if v[r*nprint.BitsPerPacket+c] != 0 {
				t.Fatalf("IP address bit leaked into features at row %d col %d", r, c)
			}
		}
		for c := nprint.TCPOffset; c < nprint.TCPOffset+32; c++ {
			if v[r*nprint.BitsPerPacket+c] != 0 {
				t.Fatalf("port bit leaked at row %d col %d", r, c)
			}
		}
	}
	// But TTL bits (byte 8 = cols 64..72) must be present in row 0.
	nonzero := false
	for c := 64; c < 72; c++ {
		if v[c] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("TTL bits missing from features")
	}
}

func TestLabelSpaces(t *testing.T) {
	classes := []string{"netflix", "teams", "other"}
	micro := MicroSpace(classes)
	if micro.K() != 3 {
		t.Fatalf("micro K = %d", micro.K())
	}
	macro := MacroSpace(classes)
	if macro.K() != 3 { // video_streaming, video_conferencing, iot_device
		t.Fatalf("macro K = %d (%v)", macro.K(), macro.Names)
	}
	ds, _ := workload.Generate(workload.Config{Seed: 3, FlowsPerClass: 1, Only: classes, MaxPacketsPerFlow: 8})
	mi, err := micro.Labels(ds.Flows)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := macro.Labels(ds.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(mi) != 3 || len(ma) != 3 {
		t.Fatal("label lengths wrong")
	}
	// Unknown label errors.
	bad := ds.Flows[0]
	bad.Label = "mystery"
	if _, err := micro.LabelOf(bad); err == nil {
		t.Fatal("unknown label should fail")
	}
}

func TestRunTable2SmallShape(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Classes = []string{"amazon", "teams", "facebook", "other"}
	cfg.TrainFlowsPerClass = 10
	cfg.TestFlowsPerClass = 4
	cfg.SynthPerClass = 4
	cfg.PacketsPerFlow = 8
	cfg.Synth = tinySynth()
	cfg.GAN = tinyGAN()
	cfg.RF = tinyRF()

	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks: accuracies in [0,1], Real/Real nprint is the
	// best micro score (the paper's headline ordering).
	cells := []Cell{
		res.RealRealNprint, res.RealRealNetFlow,
		res.RealSynthOurs, res.RealSynthGAN,
		res.SynthRealOurs, res.SynthRealGAN,
	}
	for i, c := range cells {
		if c.Macro < 0 || c.Macro > 1 || c.Micro < 0 || c.Micro > 1 {
			t.Fatalf("cell %d out of range: %+v", i, c)
		}
	}
	if res.RealRealNprint.Micro < res.RealSynthGAN.Micro {
		t.Errorf("Real/Real nprint (%.2f) should beat Real/Synth GAN (%.2f)",
			res.RealRealNprint.Micro, res.RealSynthGAN.Micro)
	}
	if res.RealRealNprint.Micro < 0.7 {
		t.Errorf("Real/Real nprint micro = %.2f, expected high on separable workload", res.RealRealNprint.Micro)
	}
	// §2.3 is these Real/Real rows: raw packet bits beat NetFlow at the
	// micro level (paper: 0.94 vs 0.85).
	if res.RealRealNprint.Micro <= res.RealRealNetFlow.Micro {
		t.Errorf("Real/Real: nprint micro %.2f should beat NetFlow micro %.2f",
			res.RealRealNprint.Micro, res.RealRealNetFlow.Micro)
	}
	// Ours beats the GAN on the synthetic-data scenarios (the paper's
	// central claim, Table 2).
	if res.RealSynthOurs.Macro <= res.RealSynthGAN.Macro {
		t.Errorf("Real/Synth: ours macro %.2f should beat GAN %.2f",
			res.RealSynthOurs.Macro, res.RealSynthGAN.Macro)
	}
	if res.SynthRealOurs.Macro <= res.SynthRealGAN.Macro || res.SynthRealOurs.Micro <= res.SynthRealGAN.Micro {
		t.Errorf("Synth/Real: ours %.2f/%.2f should beat GAN %.2f/%.2f (macro/micro)",
			res.SynthRealOurs.Macro, res.SynthRealOurs.Micro, res.SynthRealGAN.Macro, res.SynthRealGAN.Micro)
	}
	report := Table2Report(res)
	if !strings.Contains(report, "Real/Synthetic (Ours)") {
		t.Error("report missing scenario row")
	}
}

func TestRunTable2Validation(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Classes = []string{"amazon"}
	if _, err := RunTable2(cfg); err == nil {
		t.Error("single class should fail")
	}
	cfg = DefaultTable2Config()
	cfg.TrainFlowsPerClass = 0
	if _, err := RunTable2(cfg); err == nil {
		t.Error("zero train flows should fail")
	}
}

func TestRunFig1TwoClass(t *testing.T) {
	cfg := DefaultFig1Config()
	cfg.Classes = []string{"netflix", "youtube"} // Figure 1(b)
	cfg.Scale = 0.004
	cfg.SynthTotal = 12
	cfg.Synth = tinySynth()
	cfg.GAN = tinyGAN()
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	for name, p := range map[string][]float64{"real": res.Real, "gan": res.GAN, "ours": res.Ours} {
		if len(p) != 2 {
			t.Fatalf("%s proportions len %d", name, len(p))
		}
		if s := sum(p); s < 0.99 || s > 1.01 {
			t.Fatalf("%s proportions sum %v", name, s)
		}
	}
	// Ours is perfectly balanced by construction.
	if res.ImbalanceOurs != 1 {
		t.Errorf("ours imbalance = %v, want 1", res.ImbalanceOurs)
	}
	// Real reflects Table 1's netflix > youtube.
	if res.Real[0] <= res.Real[1] {
		t.Errorf("real proportions lost Table 1 imbalance: %v", res.Real)
	}
	// Ours is at least as balanced as the GAN output.
	if res.ImbalanceOurs > res.ImbalanceGAN+1e-9 {
		t.Errorf("ours (%v) less balanced than GAN (%v)", res.ImbalanceOurs, res.ImbalanceGAN)
	}
	report := Fig1Report(res)
	if !strings.Contains(report, "imbalance ratio") {
		t.Error("fig1 report missing imbalance line")
	}
}

func TestRunFig2Amazon(t *testing.T) {
	cfg := DefaultFig2Config()
	cfg.TrainFlows = 6
	cfg.Synth = tinySynth()
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PNG) == 0 {
		t.Fatal("no PNG rendered")
	}
	if res.PostProtocolCompliance != 1 {
		t.Errorf("post-projection compliance = %v", res.PostProtocolCompliance)
	}
	// The Figure 2 signature: TCP active everywhere, UDP/ICMP nowhere.
	if res.SectionActive["tcp"] != 1 {
		t.Errorf("tcp activity = %v", res.SectionActive["tcp"])
	}
	if res.SectionActive["udp"] != 0 || res.SectionActive["icmp"] != 0 {
		t.Errorf("udp/icmp active: %v", res.SectionActive)
	}
	if !strings.Contains(Fig2Report(res), "protocol compliance") {
		t.Error("fig2 report malformed")
	}
}

func TestRunFig2UnknownClass(t *testing.T) {
	cfg := DefaultFig2Config()
	cfg.Class = "mystery"
	if _, err := RunFig2(cfg); err == nil {
		t.Fatal("unknown class should fail")
	}
}

func TestRunPerClassGAN(t *testing.T) {
	cfg := DefaultPerClassGANConfig()
	// All-TCP classes: protocol one-hots carry no signal, so micro
	// accuracy must come from the blurry aggregate features.
	cfg.Classes = []string{"netflix", "amazon", "twitch", "facebook"}
	cfg.TrainFlowsPerClass = 12
	cfg.TestFlowsPerClass = 5
	cfg.SynthPerClass = 5
	cfg.GAN = tinyGAN()
	cfg.RF = tinyRF()
	cfg.MaxPacketsPerFlow = 16
	res, err := RunPerClassGAN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SynthRealMicro < 0 || res.SynthRealMicro > 1 {
		t.Fatalf("micro accuracy out of range: %v", res.SynthRealMicro)
	}
	// The paper's finding: per-class GANs remain far from Real/Real
	// quality (~0.20 micro). Assert the weaker property that micro
	// accuracy stays well below 0.9.
	if res.SynthRealMicro > 0.9 {
		t.Errorf("per-class GAN suspiciously good: %v", res.SynthRealMicro)
	}
	if !strings.Contains(PerClassGANReport(res), "per-class GANs") {
		t.Error("report malformed")
	}
}

func TestTable1Report(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Seed: 4, Scale: 0.01, MaxPacketsPerFlow: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := Table1Report(ds)
	for _, want := range []string{"netflix", "video_streaming", "iot_device", "(total)"} {
		if !strings.Contains(rep, want) {
			t.Errorf("table1 report missing %q", want)
		}
	}
}

func TestGranularityStrings(t *testing.T) {
	if GranularityNprint.String() != "nprint-formatted pcap" || GranularityNetFlow.String() != "NetFlow" {
		t.Fatal("granularity names wrong")
	}
}
