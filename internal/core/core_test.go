package core

import (
	"io"
	"strings"
	"testing"
	"time"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/workload"
)

// fastConfig keeps unit tests quick while exercising the whole
// pipeline.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows = 16
	cfg.DownH = 2
	cfg.DownW = 16 // model 8 x 68
	cfg.Hidden = 64
	cfg.TimeSteps = 40
	cfg.BaseSteps = 40
	cfg.FineTuneSteps = 60
	cfg.Batch = 8
	cfg.DDIMSteps = 8
	return cfg
}

func trainingFlows(t testing.TB, classes []string, perClass int) map[string][]*flow.Flow {
	t.Helper()
	ds, err := workload.Generate(workload.Config{
		Seed: 11, FlowsPerClass: perClass, Only: classes, MaxPacketsPerFlow: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]*flow.Flow{}
	for _, f := range ds.Flows {
		out[f.Label] = append(out[f.Label], f)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, nil); err == nil {
		t.Error("no classes should fail")
	}
	bad := cfg
	bad.Rows = 10 // not divisible by DownH=2? 10/2=5 ok; make DownH 3
	bad.DownH = 3
	if _, err := New(bad, []string{"a"}); err == nil {
		t.Error("non-divisible rows should fail")
	}
	bad2 := cfg
	bad2.DownW = 7
	if _, err := New(bad2, []string{"a"}); err == nil {
		t.Error("bad DownW should fail")
	}
	if _, err := New(cfg, []string{"a", "a"}); err == nil {
		t.Error("duplicate classes should fail")
	}
	bad3 := cfg
	bad3.TimeSteps = 1
	if _, err := New(bad3, []string{"a"}); err == nil {
		t.Error("tiny TimeSteps should fail")
	}
}

func TestPromptEncoding(t *testing.T) {
	s, err := New(fastConfig(), []string{"netflix", "teams"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prompt("teams")
	if err != nil || p != "Type-1" {
		t.Fatalf("prompt = %q, err %v", p, err)
	}
	if _, err := s.Prompt("nope"); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestEncodeFlowShape(t *testing.T) {
	s, _ := New(fastConfig(), []string{"netflix"})
	fl := trainingFlows(t, []string{"netflix"}, 1)["netflix"][0]
	im, err := s.EncodeFlow(fl)
	if err != nil {
		t.Fatal(err)
	}
	h, w := s.ModelShape()
	if im.Shape[0] != 1 || im.Shape[1] != h || im.Shape[2] != w {
		t.Fatalf("encoded shape %v, want [1 %d %d]", im.Shape, h, w)
	}
	// Values within the representable range.
	for _, v := range im.Data {
		if v < -1 || v > 1 {
			t.Fatalf("encoded value %v out of [-1,1]", v)
		}
	}
}

func TestGenerateBeforeTrainingFails(t *testing.T) {
	s, _ := New(fastConfig(), []string{"netflix"})
	if _, err := s.Generate("netflix", 1); err == nil {
		t.Fatal("generate before fine-tune should fail")
	}
}

// TestFailedFineTuneLeavesUntrained checks that a fine-tune whose LoRA
// phase aborts does not leave the synthesizer sampling its base model:
// it stays untrained, so Generate and Save refuse it.
func TestFailedFineTuneLeavesUntrained(t *testing.T) {
	cfg := fastConfig()
	cfg.BaseSteps, cfg.LR = 0, 1e18 // the adapter phase diverges
	s, err := New(cfg, []string{"netflix"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, []string{"netflix"}, 2)); err == nil || !strings.Contains(err.Error(), "non-finite loss") {
		t.Fatalf("fine-tune error %v, want a non-finite loss", err)
	}
	if s.Trained() {
		t.Fatal("a failed fine-tune left the synthesizer trained")
	}
	if _, err := s.Generate("netflix", 1); err == nil {
		t.Fatal("generate after a failed fine-tune should fail")
	}
	if err := s.Save(io.Discard); err == nil {
		t.Fatal("save after a failed fine-tune should fail")
	}
}

func TestFineTuneRequiresAllClasses(t *testing.T) {
	s, _ := New(fastConfig(), []string{"netflix", "teams"})
	flows := trainingFlows(t, []string{"netflix"}, 2)
	if _, err := s.FineTune(flows); err == nil || !strings.Contains(err.Error(), "teams") {
		t.Fatalf("missing class should fail naming the class, got %v", err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, err := New(fastConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.FineTune(trainingFlows(t, classes, 6))
	if err != nil {
		t.Fatal(err)
	}
	if report.Images != 12 {
		t.Errorf("trained on %d images, want 12", report.Images)
	}
	if len(report.BaseLosses) == 0 || len(report.FineTuneLosses) == 0 {
		t.Error("missing loss curves")
	}
	if !s.Trained() {
		t.Fatal("synthesizer should report trained")
	}

	// Amazon: generated flows must be all-TCP (the Figure 2 property).
	res, err := s.Generate("amazon", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	tpl, _ := s.Template("amazon")
	for i, m := range res.Matrices {
		if c := tpl.ProtocolCompliance(m); c != 1 {
			t.Errorf("matrix %d protocol compliance = %v after projection", i, c)
		}
	}
	for _, f := range res.Flows {
		if f.Label != "amazon" {
			t.Errorf("label = %q", f.Label)
		}
		for _, p := range f.Packets {
			if p.TCP == nil {
				t.Fatal("amazon generated a non-TCP packet")
			}
		}
	}

	// Teams: all-UDP.
	resT, err := s.Generate("teams", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range resT.Flows {
		for _, p := range f.Packets {
			if p.UDP == nil {
				t.Fatal("teams generated a non-UDP packet")
			}
		}
	}
}

func TestGenerateBalancedDistribution(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, _ := New(fastConfig(), classes)
	if _, err := s.FineTune(trainingFlows(t, classes, 4)); err != nil {
		t.Fatal(err)
	}
	flows, err := s.GenerateBalanced(3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, f := range flows {
		counts[f.Label]++
	}
	if counts["amazon"] != 3 || counts["teams"] != 3 {
		t.Fatalf("balanced counts = %v", counts)
	}

	skewed, err := s.GenerateWithDistribution(map[string]int{"amazon": 4, "teams": 1})
	if err != nil {
		t.Fatal(err)
	}
	counts = map[string]int{}
	for _, f := range skewed {
		counts[f.Label]++
	}
	if counts["amazon"] != 4 || counts["teams"] != 1 {
		t.Fatalf("skewed counts = %v", counts)
	}
}

func TestGenerateVariety(t *testing.T) {
	// Successive calls must not repeat the identical flows (seeds
	// advance per call).
	classes := []string{"amazon"}
	s, _ := New(fastConfig(), classes)
	if _, err := s.FineTune(trainingFlows(t, classes, 4)); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Generate("amazon", 1)
	b, _ := s.Generate("amazon", 1)
	if len(a.Matrices) == 0 || len(b.Matrices) == 0 {
		t.Fatal("no matrices")
	}
	same := true
	for i := range a.Matrices[0].Data {
		if a.Matrices[0].Data[i] != b.Matrices[0].Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two generation calls produced identical matrices")
	}
}

func TestScheduleKindPlumbed(t *testing.T) {
	cfg := fastConfig()
	cfg.Schedule = diffusion.ScheduleLinear
	s, err := New(cfg, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if s.sched.Kind != diffusion.ScheduleLinear {
		t.Fatal("schedule kind not plumbed")
	}
}

func TestGeneratedFlowsAreReplayable(t *testing.T) {
	// Every generated packet must be a fully decodable frame (valid
	// checksums are recomputed during back-transform).
	classes := []string{"amazon"}
	s, _ := New(fastConfig(), classes)
	if _, err := s.FineTune(trainingFlows(t, classes, 4)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Generate("amazon", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if len(f.Packets) == 0 {
			t.Fatal("empty generated flow")
		}
		for _, p := range f.Packets {
			re, err := packet.Decode(p.Data, p.Timestamp)
			if err != nil {
				t.Fatalf("generated packet not decodable: %v", err)
			}
			if re.IPv4 == nil {
				t.Fatal("generated packet lacks IPv4")
			}
		}
	}
}

func TestGenerateWithDistributionSkipsZeroCounts(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, _ := New(fastConfig(), classes)
	if _, err := s.FineTune(trainingFlows(t, classes, 3)); err != nil {
		t.Fatal(err)
	}
	flows, err := s.GenerateWithDistribution(map[string]int{"amazon": 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Label != "amazon" {
			t.Fatalf("unexpected class %q", f.Label)
		}
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
}

func TestClassesAndModelShapeAccessors(t *testing.T) {
	cfg := fastConfig()
	s, _ := New(cfg, []string{"a", "b"})
	cs := s.Classes()
	if len(cs) != 2 || cs[0] != "a" {
		t.Fatalf("classes = %v", cs)
	}
	cs[0] = "mutated"
	if s.Classes()[0] != "a" {
		t.Fatal("Classes leaked internal slice")
	}
	h, w := s.ModelShape()
	if h != cfg.Rows/cfg.DownH || w != 1088/cfg.DownW {
		t.Fatalf("model shape %dx%d", h, w)
	}
}

func TestSetDDIMSteps(t *testing.T) {
	classes := []string{"amazon"}
	s, _ := New(fastConfig(), classes)
	if _, err := s.FineTune(trainingFlows(t, classes, 3)); err != nil {
		t.Fatal(err)
	}
	s.SetDDIMSteps(0) // full DDPM path must also work
	res, err := s.Generate("amazon", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatal("DDPM generation failed")
	}
}

func TestGeneratedTimestampsFollowClassDistribution(t *testing.T) {
	classes := []string{"teams"}
	s, _ := New(fastConfig(), classes)
	flows := trainingFlows(t, classes, 5)
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	res, err := s.Generate("teams", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		var distinct bool
		var prev time.Duration = -1
		for i := 1; i < len(f.Packets); i++ {
			gap := f.Packets[i].Timestamp.Sub(f.Packets[i-1].Timestamp)
			if gap <= 0 {
				t.Fatal("non-positive generated gap")
			}
			if prev >= 0 && gap != prev {
				distinct = true
			}
			prev = gap
		}
		if len(f.Packets) > 4 && !distinct {
			t.Fatal("generated gaps are all identical — empirical timing not applied")
		}
	}
}
