package core

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"
)

// samplerOnly classifies every Config field: true for the fields core
// reads only when it generates or edits, false for those training
// reads. A new field fails TestConfigFieldClasses until it is listed.
var samplerOnly = map[string]bool{
	"Rows": false, "DownH": false, "DownW": false, "Hidden": false,
	"Schedule": false, "TimeSteps": false,
	"BaseSteps": false, "FineTuneSteps": false, "Batch": false,
	"LR": false, "DropCond": false, "ClipNorm": false,
	"LoRARank": false, "LoRAAlpha": false, "UseControlNet": false,
	"ConstantSnap": true, "GuidanceScale": true, "DDIMSteps": true,
	"Seed": false,
}

// trainedWith fine-tunes a cfg model on two flows per class.
func trainedWith(t *testing.T, cfg Config, classes ...string) *Synthesizer {
	t.Helper()
	s, err := New(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, classes, 2)); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkpointDigest is the SHA-256 of s's checkpoint.
func checkpointDigest(t *testing.T, s *Synthesizer) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestConfigFieldClasses holds TrainingKey to the classification above,
// and proves each sampler-only field is one: two configs that differ
// only there fine-tune to one checkpoint once both sample alike.
func TestConfigFieldClasses(t *testing.T) {
	ref := tinyConfig()
	refV, keyV := reflect.ValueOf(ref), reflect.ValueOf(ref.TrainingKey())
	typ := refV.Type()
	if typ.NumField() != len(samplerOnly) {
		t.Errorf("Config has %d fields, %d classified", typ.NumField(), len(samplerOnly))
	}
	a := trainedWith(t, ref, "amazon", "teams")
	want := checkpointDigest(t, a)
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		sampler, ok := samplerOnly[name]
		if !ok {
			t.Errorf("Config.%s is not classified as training or sampler-only", name)
			continue
		}
		if !sampler {
			if !keyV.Field(i).Equal(refV.Field(i)) {
				t.Errorf("TrainingKey drops training field %s", name)
			}
			continue
		}
		if !keyV.Field(i).IsZero() {
			t.Errorf("TrainingKey keeps sampler-only field %s", name)
		}
		t.Run(name, func(t *testing.T) {
			cfg := ref
			f := reflect.ValueOf(&cfg).Elem().Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 3)
			case reflect.Float64:
				f.SetFloat(f.Float() + 1.5)
			default:
				t.Fatalf("no variant for a %s field", f.Kind())
			}
			view, err := trainedWith(t, cfg, "amazon", "teams").WithSampling(ref)
			if err != nil {
				t.Fatal(err)
			}
			if checkpointDigest(t, view) != want {
				t.Fatalf("configs differing only in %s fine-tuned to different checkpoints", name)
			}
		})
	}
}

// TestWithSamplingRejectsOtherTraining: a view may change only
// sampler-only fields, and only of a trained model.
func TestWithSamplingRejectsOtherTraining(t *testing.T) {
	ref := tinyConfig()
	untrained, err := New(ref, []string{"amazon"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := untrained.WithSampling(ref); err == nil {
		t.Error("view of an untrained synthesizer accepted")
	}
	s := trainedWith(t, ref, "amazon")
	for name, edit := range map[string]func(*Config){
		"geometry":      func(c *Config) { c.DownW = 32 },
		"steps":         func(c *Config) { c.FineTuneSteps++ },
		"UseControlNet": func(c *Config) { c.UseControlNet = !c.UseControlNet },
		"Seed":          func(c *Config) { c.Seed++ },
	} {
		cfg := ref
		cfg.GuidanceScale = 0 // a sampler-only change alongside
		edit(&cfg)
		if _, err := s.WithSampling(cfg); err == nil {
			t.Errorf("view with another %s accepted", name)
		}
	}
}

// TestWithSamplingMatchesFreshFineTune: a view samples exactly what a
// synthesizer fine-tuned with the view's config does, seeded or not,
// whatever the trained model has generated before.
func TestWithSamplingMatchesFreshFineTune(t *testing.T) {
	ref := tinyConfig()
	other := ref
	other.DDIMSteps, other.GuidanceScale, other.ConstantSnap = 5, 0, !ref.ConstantSnap
	a := trainedWith(t, ref, "amazon", "teams")
	fresh := trainedWith(t, other, "amazon", "teams")
	if _, err := a.Generate("amazon", 2); err != nil {
		t.Fatal(err)
	}
	view, err := a.WithSampling(other)
	if err != nil {
		t.Fatal(err)
	}
	if view.DDIMSteps() != other.DDIMSteps {
		t.Errorf("view DDIM steps = %d, want %d", view.DDIMSteps(), other.DDIMSteps)
	}
	if x, y := mustSeeded(t, a, "amazon"), mustSeeded(t, view, "amazon"); bytes.Equal(x, y) {
		t.Fatal("the view samples as the trained model does, not under its own config")
	}
	for _, class := range []string{"amazon", "teams"} {
		if !bytes.Equal(mustSeeded(t, view, class), mustSeeded(t, fresh, class)) {
			t.Errorf("%s: view's seeded bytes differ from a fresh fine-tune's", class)
		}
		gotU, err := view.Generate(class, 2)
		if err != nil {
			t.Fatal(err)
		}
		wantU, err := fresh.Generate(class, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gotU.Root != wantU.Root || !bytes.Equal(pcapBytes(t, gotU.Flows), pcapBytes(t, wantU.Flows)) {
			t.Errorf("%s: view's unseeded call differs from a fresh fine-tune's", class)
		}
	}
}

// mustSeeded is the pcap bytes of three class flows s draws at root 17.
func mustSeeded(t *testing.T, s *Synthesizer, class string) []byte {
	t.Helper()
	res, err := s.GenerateSeeded(class, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	return pcapBytes(t, res.Flows)
}
