package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"trafficdiff/internal/controlnet"
	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/lora"
	"trafficdiff/internal/nn"
	nntest "trafficdiff/internal/nn/nntest"
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
// fields by name with the given Arch and LoRA flag, then params in the
// version-1 parameter stream those builds wrote.
func writePreRemoval(t testing.TB, s *Synthesizer, cfg Config, arch int, hasLoRA bool, params []*nn.V) *bytes.Buffer {
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
	values := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		values[i] = p.X
	}
	if err := nntest.WriteParams(&buf, values); err != nil {
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
// the models cannot be built from — a non-positive hidden width, a
// LoRA rank outside [1, min(Hidden, model pixels)], a schedule too long
// or of no known kind — with an error
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
		// The schedule tables are allocated from TimeSteps before any
		// weight is read, and an unknown kind has no tables.
		{"TimeSteps above the cap", func(c *Config) { c.TimeSteps = maxTimeSteps + 1 }, "TimeSteps"},
		{"unknown Schedule", func(c *Config) { c.Schedule = 7 }, "Schedule"},
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

// TestSaveIsDeterministic pins that a synthesizer always saves to the
// same bytes: twice in a row, and again after a Load of its own save.
// traced's checkpoint coordinate is the file's digest, so replicas
// loaded from separately saved copies must agree on it.
func TestSaveIsDeterministic(t *testing.T) {
	s := tinyTrained(t, "amazon", "teams", "zoom")
	save := func(s *Synthesizer) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(s)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(save(s), first) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(loaded), first) {
		t.Fatal("Save(Load(Save(s))) differs from Save(s)")
	}
}

// TestParamValuesCountsTheModels holds paramValues, which Load checks a
// checkpoint's size against before it builds anything, to the models
// build and Load make, over shapes that move every term.
func TestParamValuesCountsTheModels(t *testing.T) {
	for _, tc := range []struct {
		rows, downH, downW, hidden, rank, k int
	}{
		{16, 2, 16, 64, 8, 2},
		{32, 2, 8, 192, 8, 5},
		{4, 4, 1088, 3, 1, 1},
		{6, 3, 64, 17, 2, 7},
	} {
		cfg := loadConfig()
		cfg.Rows, cfg.DownH, cfg.DownW, cfg.Hidden, cfg.LoRARank = tc.rows, tc.downH, tc.downW, tc.hidden, tc.rank
		classes := make([]string, tc.k)
		for i := range classes {
			classes[i] = fmt.Sprintf("c%d", i)
		}
		s, err := build(cfg, classes, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.adapted = lora.NewAdaptedMLP(nil, s.base, cfg.LoRARank, cfg.LoRAAlpha, tc.k)
		var have int
		for _, p := range s.allParams() {
			have += len(p.X.Data)
		}
		h, w := s.ModelShape()
		if got := paramValues(cfg, h, w, tc.k); got != uint64(have) {
			t.Errorf("%+v: paramValues = %d, the models hold %d", tc, got, have)
		}
	}
}

// forgedHeader is a snapshot and nothing else, whose config asks for a
// Hidden-wide model — the Hidden² layer alone is Hidden² values. Its
// per-class lists have the right lengths, so only the size check stops
// Load from building the models.
func forgedHeader(t testing.TB, hidden int) []byte {
	cfg := loadConfig()
	cfg.Hidden = hidden
	var buf bytes.Buffer
	snap := snapshot{Version: snapshotVersion, Config: cfg, Classes: []string{"amazon"}, HasLoRA: true,
		ClassTemplates: make([]controlnet.Template, 1), ClassControls: make([]tensor.Tensor, 1), ClassGaps: make([][]float64, 1)}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocated returns the bytes the program has allocated since it
// started: the Go heap's and those of the weight matrices mapped
// outside it (tensor.NewLongLived), which TotalAlloc does not see.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc + uint64(tensor.MappedTotal())
}

// TestLoadBoundsAllocationByInput feeds Load headers under a kilobyte
// whose configs ask for 1 M and 16.7 M parameter values, in matrices
// large enough to be mapped outside the heap: Load must refuse them
// before it builds the models, having allocated under 4 MB.
func TestLoadBoundsAllocationByInput(t *testing.T) {
	h, w, err := CheckConfig(loadConfig(), []string{"amazon"})
	if err != nil {
		t.Fatal(err)
	}
	for _, hidden := range []int{1024, 4096} {
		if hidden*h*w < 16<<10 {
			t.Fatalf("Hidden %d: a %d x %d projection would stay on the heap", hidden, hidden, h*w)
		}
		data := forgedHeader(t, hidden)
		if len(data) >= 1024 {
			t.Fatalf("forged header is %d bytes, want under 1 KB", len(data))
		}
		before := allocated()
		s, err := Load(bytes.NewReader(data))
		alloc := allocated() - before
		if err == nil || s != nil {
			t.Fatalf("Hidden %d: synthesizer %v, error %v; want an error", hidden, s, err)
		}
		if !strings.Contains(err.Error(), "parameter values") {
			t.Fatalf("Hidden %d: error %q is not the size check", hidden, err)
		}
		if alloc >= 4<<20 {
			t.Fatalf("Hidden %d: Load allocated %d bytes on a %d-byte input", hidden, alloc, len(data))
		}
	}
}

// TestLoadRejectsBadClassState checks that Load refuses per-class state
// that does not cover every class or does not fit the model, instead of
// loading a synthesizer that would fail mid-generation.
func TestLoadRejectsBadClassState(t *testing.T) {
	s := tinyTrained(t, "amazon", "teams")
	h, w := s.ModelShape()
	for name, edit := range map[string]func(*snapshot){
		"missing template": func(sn *snapshot) { sn.ClassTemplates = sn.ClassTemplates[:1] },
		"missing gaps":     func(sn *snapshot) { sn.ClassGaps = sn.ClassGaps[:1] },
		"short template":   func(sn *snapshot) { sn.ClassTemplates[1].Fill = sn.ClassTemplates[1].Fill[:8] },
		"wrong control":    func(sn *snapshot) { sn.ClassControls[0] = *tensor.New(1, h+1, w) },
		"ragged control":   func(sn *snapshot) { sn.ClassControls[0].Data = sn.ClassControls[0].Data[:1] },
		"v1 missing class": func(sn *snapshot) {
			sn.Version = 1
			sn.Templates = map[int]*controlnet.Template{0: &sn.ClassTemplates[0]}
			sn.Controls = map[int]*tensor.Tensor{0: &sn.ClassControls[0], 1: &sn.ClassControls[1]}
			sn.ClassTemplates, sn.ClassControls, sn.ClassGaps = nil, nil, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			r := bytes.NewReader(buf.Bytes())
			var snap snapshot
			if err := gob.NewDecoder(r).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			params := buf.Bytes()[buf.Len()-r.Len():]
			edit(&snap)
			var forged bytes.Buffer
			if err := gob.NewEncoder(&forged).Encode(snap); err != nil {
				t.Fatal(err)
			}
			forged.Write(params)
			if got, err := Load(&forged); err == nil || got != nil {
				t.Fatalf("synthesizer %v, error %v; want an error", got, err)
			}
		})
	}
}

// tinyConfig is about the smallest model the pipeline can train: a
// 1 x 17 image, a 4-wide MLP, rank-1 adapters and two steps per phase.
func tinyConfig() Config {
	cfg := loadConfig()
	cfg.Rows, cfg.DownH, cfg.DownW, cfg.Hidden, cfg.LoRARank = 2, 2, 64, 4, 1
	cfg.TimeSteps, cfg.BaseSteps, cfg.FineTuneSteps, cfg.DDIMSteps = 10, 2, 2, 2
	return cfg
}

// tinyTrained trains a tinyConfig model. Its checkpoint is a few
// kilobytes, most of them the class templates.
func tinyTrained(t testing.TB, classes ...string) *Synthesizer {
	s, err := New(tinyConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, classes, 2)); err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzLoad feeds Load arbitrary bytes, seeded with a small trained
// checkpoint as Save writes it, the same model in the version-1 layout
// older builds wrote, and a forged header that asks for a 16.7 M-value
// model. Load must return a synthesizer or an error, never panic, and
// allocate (heap and mapped weights) no more than a fixed amount plus a
// multiple of the input.
func FuzzLoad(f *testing.F) {
	s := tinyTrained(f, "amazon")
	var v3 bytes.Buffer
	if err := s.Save(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(writePreRemoval(f, s, s.configSnapshot(), 0, true, s.allParams()).Bytes())
	f.Add(forgedHeader(f, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocated()
		s, err := Load(bytes.NewReader(data))
		alloc := allocated() - before
		if (err == nil) == (s == nil) {
			t.Fatalf("synthesizer %v with error %v", s, err)
		}
		if limit := uint64(32<<20 + 64*len(data)); alloc > limit {
			t.Fatalf("Load allocated %d bytes on a %d-byte input (limit %d)", alloc, len(data), limit)
		}
	})
}

// TestModelsHoldNoGradients: a synthesizer that only generates holds
// its weights and no gradient buffers — neither after FineTune, whose
// phases release the buffers their optimizers allocated, nor after
// Load — and loading one grows the live heap by about its weights.
func TestModelsHoldNoGradients(t *testing.T) {
	classes := []string{"amazon", "teams"}
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
	noGrads := func(which string, syn *Synthesizer) {
		for i, p := range syn.allParams() {
			if p.G != nil {
				t.Fatalf("%s: parameter %d %v holds a gradient buffer", which, i, p.X.Shape)
			}
		}
	}
	noGrads("after FineTune", s)

	// s stays live across the measurement, so no finalizer of its
	// mappings runs inside it.
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mappedBefore := tensor.MappedBytes()
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	mapped := tensor.MappedBytes() - mappedBefore
	noGrads("after Load", loaded)
	var weights, big int64
	for _, p := range loaded.allParams() {
		weights += 4 * int64(len(p.X.Data))
		if len(p.X.Data) >= 16<<10 { // tensor.NewLongLived's mapping threshold
			big += 4 * int64(len(p.X.Data))
		}
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d bytes and mappings %d bytes for %d bytes of weights", growth, mapped, weights)
	// The slack covers the per-class state (templates, control images,
	// gap distributions), the headers around the weights and, on Linux,
	// the small weights, which stay on the heap; a gradient buffer per
	// parameter would add the weights a second time.
	if runtime.GOOS == "linux" {
		if mapped != big {
			t.Fatalf("Load mapped %d bytes, want the %d bytes of its matrices of 16 Ki values or more", mapped, big)
		}
		if growth >= 256<<10 {
			t.Fatalf("Load grew the live heap by %d bytes, want < 256 KB beside its mapped weights", growth)
		}
	} else if growth > weights+128<<10 {
		t.Fatalf("Load grew the live heap by %d bytes, want at most the %d weight bytes + 128 KB", growth, weights)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(data)
}
