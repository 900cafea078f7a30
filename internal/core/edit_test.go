package core

import (
	"bytes"
	"testing"

	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
)

func TestDeblurRestoresMaskedSection(t *testing.T) {
	classes := []string{"amazon"}
	s, err := New(fastConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	flows := trainingFlows(t, classes, 6)
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	// Deblur a real flow whose TCP section is declared missing.
	src := flows["amazon"][0]
	res, err := s.Deblur(src, "amazon", []FieldMask{MaskTCP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || len(res.Flows[0].Packets) == 0 {
		t.Fatal("no restored flow")
	}
	// Restoration must fill the missing TCP section: every packet TCP.
	for i, p := range res.Flows[0].Packets {
		if p.TCP == nil {
			t.Fatalf("restored packet %d lost TCP", i)
		}
	}
	// Known (unmasked) IPv4 structure is anchored to the source: the
	// restored matrix keeps the IPv4 section populated in rows that
	// correspond to real packets.
	m := res.Matrices[0]
	if nprint.SectionVacant(m.Row(0), nprint.IPv4Offset, nprint.IPv4Bits) {
		t.Fatal("known IPv4 region was destroyed by inpainting")
	}
}

func TestDeblurValidation(t *testing.T) {
	classes := []string{"amazon"}
	s, _ := New(fastConfig(), classes)
	flows := trainingFlows(t, classes, 2)
	src := flows["amazon"][0]
	if _, err := s.Deblur(src, "amazon", []FieldMask{MaskTCP}); err == nil {
		t.Error("untrained deblur should fail")
	}
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deblur(src, "nope", []FieldMask{MaskTCP}); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := s.Deblur(src, "amazon", nil); err == nil {
		t.Error("empty mask should fail")
	}
	if _, err := s.Deblur(src, "amazon", []FieldMask{{Off: -1, Bits: 5}}); err == nil {
		t.Error("out-of-bounds mask should fail")
	}
}

func TestTranslateChangesProtocol(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, err := New(fastConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	flows := trainingFlows(t, classes, 6)
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	// Translate a TCP Amazon flow into the Teams (UDP) style.
	src := flows["amazon"][0]
	res, err := s.Translate(src, "teams", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Label != "teams" {
		t.Fatalf("label = %q", res.Flows[0].Label)
	}
	for i, p := range res.Flows[0].Packets {
		if p.UDP == nil {
			t.Fatalf("translated packet %d is not UDP (%v)", i, p.TransportProtocol())
		}
	}
}

func TestTranslateValidation(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, _ := New(fastConfig(), classes)
	flows := trainingFlows(t, classes, 2)
	src := flows["amazon"][0]
	if _, err := s.Translate(src, "teams", 0.5); err == nil {
		t.Error("untrained translate should fail")
	}
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Translate(src, "nope", 0.5); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := s.Translate(src, "teams", 0); err == nil {
		t.Error("zero strength should fail")
	}
	if _, err := s.Translate(src, "teams", 1.5); err == nil {
		t.Error("strength > 1 should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	classes := []string{"amazon", "teams"}
	s, err := New(fastConfig(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FineTune(trainingFlows(t, classes, 4)); err != nil {
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
	if !loaded.Trained() {
		t.Fatal("loaded synthesizer reports untrained")
	}
	// Generation from the loaded copy must work and keep the class
	// protocol property.
	res, err := loaded.Generate("amazon", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		for _, p := range f.Packets {
			if p.TCP == nil {
				t.Fatal("loaded model lost protocol control")
			}
		}
	}
	// The weights themselves must survive the round trip bit for bit.
	if got, want := len(loaded.allParams()), len(s.allParams()); got != want {
		t.Fatalf("param count %d != %d", got, want)
	}
	for i := range s.allParams() {
		a, b := s.allParams()[i].X.Data, loaded.allParams()[i].X.Data
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %d elem %d differs after load", i, j)
			}
		}
	}
}

func TestSaveRequiresTraining(t *testing.T) {
	s, _ := New(fastConfig(), []string{"amazon"})
	var buf bytes.Buffer
	if err := s.Save(&buf); err == nil {
		t.Fatal("saving untrained synthesizer should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestDeblurredFlowReplayable(t *testing.T) {
	classes := []string{"teams"}
	s, _ := New(fastConfig(), classes)
	flows := trainingFlows(t, classes, 4)
	if _, err := s.FineTune(flows); err != nil {
		t.Fatal(err)
	}
	res, err := s.Deblur(flows["teams"][0], "teams", []FieldMask{MaskUDP})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Flows[0].Packets {
		if _, err := packet.Decode(p.Data, p.Timestamp); err != nil {
			t.Fatalf("restored packet undecodable: %v", err)
		}
	}
}
