package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"trafficdiff/internal/nn"
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

// modelParams is every parameter reachable from the synthesizer's
// models.
func modelParams(s *Synthesizer) map[*nn.V]bool {
	all := map[*nn.V]bool{}
	for _, m := range []any{s.base, s.unet, s.adapted} {
		for p := range reachableParams(m) {
			all[p] = true
		}
	}
	return all
}

// TestLoadCoversEveryParameter is the licence for Load to build its
// models without random initialisation: for each architecture the
// pipeline can save, (1) the parameters the checkpoint carries
// (allParams) are exactly the parameters reachable from the model
// structs, on the trained original and on the loaded copy, so nothing
// New would have randomised is left at its zero skeleton value;
// (2) every loaded parameter equals the saved one bit for bit; and
// (3) seeded generation from the loaded copy is byte-identical to the
// original's.
func TestLoadCoversEveryParameter(t *testing.T) {
	unet := func(attention bool) Config {
		cfg := fastConfig()
		cfg.Arch, cfg.UseLoRA, cfg.UseAttention = ArchUNet, false, attention
		cfg.Hidden, cfg.BaseSteps, cfg.FineTuneSteps, cfg.Batch, cfg.DDIMSteps = 6, 4, 4, 4, 2
		return cfg
	}
	mlp := func(useLoRA bool) Config {
		cfg := fastConfig()
		cfg.UseLoRA = useLoRA
		cfg.BaseSteps, cfg.FineTuneSteps, cfg.DDIMSteps = 6, 6, 3
		return cfg
	}
	classes := []string{"amazon", "teams"}
	for name, cfg := range map[string]Config{
		"mlp+lora": mlp(true), "mlp": mlp(false), "unet": unet(false), "unet+attention": unet(true),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg, classes)
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
}
