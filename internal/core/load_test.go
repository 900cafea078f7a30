package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"trafficdiff/internal/controlnet"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/nn"
	"trafficdiff/internal/tensor"
)

// reachableParams walks root's struct graph and returns every *nn.V it
// can reach — what "the parameters New creates" means, independent of
// any Params method.
func reachableParams(root any) map[*nn.V]bool {
	found := map[*nn.V]bool{}
	seen := map[uintptr]bool{}
	vType := reflect.TypeOf((*nn.V)(nil))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == vType {
				// Fields of the model structs are unexported, so rebuild
				// the typed pointer from its address instead of Interface().
				found[(*nn.V)(v.UnsafePointer())] = true
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// loadConfig is fastConfig with training cut to what a save/load round
// trip needs.
func loadConfig() Config {
	cfg := fastConfig()
	cfg.BaseSteps, cfg.FineTuneSteps, cfg.DDIMSteps = 6, 6, 3
	return cfg
}

// modelParams is every parameter reachable from the synthesizer's
// models.
func modelParams(s *Synthesizer) map[*nn.V]bool {
	all := map[*nn.V]bool{}
	for _, m := range []any{s.base, s.adapted} {
		for p := range reachableParams(m) {
			all[p] = true
		}
	}
	return all
}

// TestLoadCoversEveryParameter is the licence for Load to build its
// models without random initialisation: (1) the parameters the
// checkpoint carries (allParams) are exactly the parameters reachable
// from the model structs, on the trained original and on the loaded
// copy, so nothing New would have randomised is left at its zero
// skeleton value; (2) every loaded parameter equals the saved one bit
// for bit; and
// (3) seeded generation from the loaded copy is byte-identical to the
// original's.
func TestLoadCoversEveryParameter(t *testing.T) {
	classes := []string{"amazon", "teams"}
	t.Run("mlp+lora", func(t *testing.T) {
		s, err := New(loadConfig(), classes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.FineTune(trainingFlows(t, classes, 2)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}

		for which, syn := range map[string]*Synthesizer{"original": s, "loaded": loaded} {
			reach := modelParams(syn)
			saved := syn.allParams()
			covered := map[*nn.V]bool{}
			for _, p := range saved {
				if covered[p] {
					t.Errorf("%s: allParams lists a parameter twice", which)
				}
				covered[p] = true
				if !reach[p] {
					t.Errorf("%s: allParams carries a parameter the models do not hold", which)
				}
			}
			if len(covered) != len(reach) {
				t.Fatalf("%s: the checkpoint covers %d parameters, the models hold %d — Load would leave the rest at zero",
					which, len(covered), len(reach))
			}
		}

		orig, got := s.allParams(), loaded.allParams()
		if len(orig) != len(got) {
			t.Fatalf("loaded %d parameters, saved %d", len(got), len(orig))
		}
		for i := range orig {
			if !reflect.DeepEqual(orig[i].X.Shape, got[i].X.Shape) {
				t.Fatalf("param %d: shape %v, saved %v", i, got[i].X.Shape, orig[i].X.Shape)
			}
			for j, v := range orig[i].X.Data {
				if math.Float32bits(v) != math.Float32bits(got[i].X.Data[j]) {
					t.Fatalf("param %d element %d differs after load", i, j)
				}
			}
		}

		for _, class := range classes {
			want, err := s.GenerateSeeded(class, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			re, err := loaded.GenerateSeeded(class, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pcapBytes(t, want.Flows), pcapBytes(t, re.Flows)) {
				t.Fatalf("class %s: loaded synthesizer's seeded output differs from the original's", class)
			}
		}
	})
}

// preRemovalConfig is Config as checkpoints wrote it while the pipeline
// could also build a convolutional U-Net, average weights and train the
// base alone: the same fields plus Arch (0 the MLP, 1 the U-Net), the
// U-Net's attention flag, EMADecay and UseLoRA.
type preRemovalConfig struct {
	Rows, DownH, DownW int

	Arch         int
	Hidden       int
	UseAttention bool

	Schedule  diffusion.ScheduleKind
	TimeSteps int

	BaseSteps     int
	FineTuneSteps int
	Batch         int
	LR            float64
	DropCond      float64
	ClipNorm      float64
	EMADecay      float64

	UseLoRA   bool
	LoRARank  int
	LoRAAlpha float64

	UseControlNet bool
	ConstantSnap  bool
	GuidanceScale float64
	DDIMSteps     int

	Seed uint64
}

// preRemovalSnapshot is snapshot with that Config.
type preRemovalSnapshot struct {
	Version   int
	Config    preRemovalConfig
	Classes   []string
	Templates map[int]*controlnet.Template
	Controls  map[int]*tensor.Tensor
	GapValues map[int][]float64
	HasLoRA   bool
}

// writePreRemoval writes a checkpoint the way Save did before those
// fields were removed: s's vocabulary, templates and gap values, cfg's
// fields by name with the given Arch and LoRA flag, then params.
func writePreRemoval(t *testing.T, s *Synthesizer, cfg Config, arch int, hasLoRA bool, params []*nn.V) *bytes.Buffer {
	t.Helper()
	snap := preRemovalSnapshot{
		Version: 1, Classes: s.classes, Templates: s.templates, Controls: s.controls,
		GapValues: map[int][]float64{}, HasLoRA: hasLoRA,
	}
	src, dst := reflect.ValueOf(cfg), reflect.ValueOf(&snap.Config).Elem()
	for i := 0; i < src.NumField(); i++ {
		if f := dst.FieldByName(src.Type().Field(i).Name); f.IsValid() {
			f.Set(src.Field(i))
		}
	}
	snap.Config.Arch, snap.Config.UseLoRA = arch, hasLoRA
	for ci, d := range s.gapDists {
		snap.GapValues[ci] = d.Values()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestLoadPreRemovalCheckpoints pins checkpoint compatibility across the
// removal of the architecture, EMA and LoRA-switch fields from Config:
// (a) an MLP+LoRA checkpoint written with the old fields (Arch 0) loads
// and generates the original's seeded bytes; (b) a U-Net checkpoint
// (Arch 1, followed by the U-Net's 27 parameters) and (c) a base-only
// checkpoint (HasLoRA false, followed by the MLP's parameters alone)
// are refused with an error, not loaded and not a panic.
func TestLoadPreRemovalCheckpoints(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, err := New(loadConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, classes, 2)); err != nil {
		t.Fatal(err)
	}

	t.Run("mlp+lora", func(t *testing.T) {
		loaded, err := Load(writePreRemoval(t, s, s.configSnapshot(), 0, true, s.allParams()))
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range classes {
			want, err := s.GenerateSeeded(class, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.GenerateSeeded(class, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pcapBytes(t, want.Flows), pcapBytes(t, got.Flows)) {
				t.Fatalf("class %s: pre-removal checkpoint generates other bytes than the original", class)
			}
		}
	})

	t.Run("unet", func(t *testing.T) {
		cfg := s.configSnapshot()
		cfg.Hidden = 6
		// The U-Net's parameters for base width c = 6, k = 2 classes and
		// 64-wide embeddings: class table, time projection, the two
		// embedding-to-channel projections, nine 3×3 convolutions (stem,
		// res1, down, mid, upConv, res2, head, ctrlStem, ctrlZero) and the
		// skip gate — each layer but the table a weight and a bias.
		const c, k, e = 6, 2, 64
		params := []*nn.V{nn.Param(k+1, e)}
		for _, sh := range [][2]int{
			{e, e}, {c, e}, {2 * c, e},
			{c, 9}, {c, 9 * c}, {2 * c, 9 * c}, {2 * c, 18 * c}, {c, 18 * c}, {c, 9 * c}, {1, 9 * c}, {c, 9}, {c, 9 * c},
			{1, e},
		} {
			params = append(params, nn.Param(sh[0], sh[1]), nn.Param(sh[0]))
		}
		if len(params) != 27 {
			t.Fatalf("built %d U-Net parameters, want 27", len(params))
		}
		got, err := Load(writePreRemoval(t, s, cfg, 1, false, params))
		if err == nil || got != nil {
			t.Fatalf("loading a U-Net checkpoint: synthesizer %v, error %v; want no synthesizer and an error", got, err)
		}
	})

	t.Run("base-only", func(t *testing.T) {
		got, err := Load(writePreRemoval(t, s, s.configSnapshot(), 0, false, s.base.Params()))
		if err == nil || got != nil {
			t.Fatalf("loading a base-only checkpoint: synthesizer %v, error %v; want no synthesizer and an error", got, err)
		}
	})
}

// TestBadConfigRejected checks that New and Load both refuse a config
// the models cannot be built from — a non-positive hidden width, or a
// LoRA rank outside [1, min(Hidden, model pixels)] — with an error
// naming the field, instead of panicking in the tensor or lora
// constructors (for New, only after the whole base phase had trained).
func TestBadConfigRejected(t *testing.T) {
	classes := []string{"amazon"}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero Hidden", func(c *Config) { c.Hidden = 0 }, "Hidden"},
		{"negative Hidden", func(c *Config) { c.Hidden = -4 }, "Hidden"},
		{"zero LoRARank", func(c *Config) { c.LoRARank = 0 }, "LoRARank"},
		{"negative LoRARank", func(c *Config) { c.LoRARank = -1 }, "LoRARank"},
		{"LoRARank above Hidden", func(c *Config) { c.LoRARank = c.Hidden + 1 }, "LoRARank"},
		// One-pixel model images: rank 2 exceeds the x and out
		// projections' pixel side.
		{"LoRARank above pixels", func(c *Config) { c.Rows, c.DownH, c.DownW, c.LoRARank = 2, 2, 1088, 2 }, "LoRARank"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := loadConfig()
			tc.edit(&cfg)
			if s, err := New(cfg, classes); err == nil || s != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: synthesizer %v, error %v; want no synthesizer and an error naming %s", s, err, tc.want)
			}
			var buf bytes.Buffer
			snap := snapshot{Version: 1, Config: cfg, Classes: classes, HasLoRA: true}
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			if s, err := Load(&buf); err == nil || s != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: synthesizer %v, error %v; want no synthesizer and an error naming %s", s, err, tc.want)
			}
		})
	}
}
