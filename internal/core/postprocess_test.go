package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/imagerep"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/stats"
)

// seededSamples draws the raw model-resolution images of one seeded
// request on one diffusion.Scheduler driven here, flow i's image in
// samples[i*h*w:]: the sampling oracle every generation path is held
// to, outside the engine's pieces and loops (the golden digests anchor
// the scheduler itself).
func seededSamples(t *testing.T, s *Synthesizer, class string, flowSeeds []uint64, ddim int) (ci int, samples []float32) {
	t.Helper()
	ci, err := s.lookupClass(class)
	if err != nil {
		t.Fatal(err)
	}
	h, w := s.ModelShape()
	d := h * w
	eng := diffusion.NewScheduler(s.adapted, s.sched, nil)
	samples = make([]float32, len(flowSeeds)*d)
	for i, seed := range flowSeeds {
		if _, err := eng.Admit(diffusion.FlowSpec{
			Class: ci, GuidanceScale: s.cfg.GuidanceScale, DDIMSteps: ddim,
			RNG: stats.NewRNG(seed), Control: s.control(ci, s.cfg), Out: samples[i*d : (i+1)*d],
		}); err != nil {
			t.Fatal(err)
		}
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	return ci, samples
}

// oracleGenerate is what any generation call must return for the
// seeds: seededSamples at the live DDIM budget, post-processed.
func oracleGenerate(t *testing.T, s *Synthesizer, class string, flowSeeds []uint64) *GenerateResult {
	t.Helper()
	cfg := s.configSnapshot()
	ci, samples := seededSamples(t, s, class, flowSeeds, cfg.DDIMSteps)
	res, err := s.postprocess(ci, class, cfg, samples, flowSeeds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// publicStepChain is post-processing as it was written before
// flowFromSample: the full-resolution float image, then one exported
// call per step. It is the reference the per-flow function is held to.
func publicStepChain(t *testing.T, s *Synthesizer, ci int, class string, samples []float32, flowSeeds []uint64) *GenerateResult {
	t.Helper()
	h, w := s.ModelShape()
	d := h * w
	tpl := s.templates[ci]
	res := &GenerateResult{}
	for i, fs := range flowSeeds {
		up, err := imagerep.Upscale(&imagerep.Image{H: h, W: w, Pix: samples[i*d : (i+1)*d]}, s.cfg.DownH, s.cfg.DownW)
		if err != nil {
			t.Fatal(err)
		}
		m, err := imagerep.ToMatrix(imagerep.Quantize(up))
		if err != nil {
			t.Fatal(err)
		}
		res.RawCompliance += tpl.ProtocolCompliance(m)
		res.RawCellCompliance += tpl.Compliance(m)
		res.Repaired += tpl.Project(m)
		if s.cfg.ConstantSnap {
			res.Repaired += tpl.ProjectConstants(m)
		}
		pkts, skipped, err := nprint.ToPackets(m, nprint.DecodeOptions{Repair: true, Start: genEpoch, Interval: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s.stampTimestamps(pkts, ci, stats.NewRNG(fs^0x7ad3c1))
		res.SkippedRows += skipped
		res.Matrices = append(res.Matrices, m)
		res.Flows = append(res.Flows, &flow.Flow{Label: class, Packets: pkts})
	}
	res.RawCompliance /= float64(len(flowSeeds))
	res.RawCellCompliance /= float64(len(flowSeeds))
	return res
}

// TestPostprocessMatchesPublicStepChain runs real seeded samples — few
// steps, so the images are far from clean and projection has work to do
// — through the old chain and through GenerateWithFlowSeeds, for one
// flow (the caller's goroutine) and several (workers), and compares the
// matrices, the packets' bytes and timestamps, and all four
// diagnostics.
func TestPostprocessMatchesPublicStepChain(t *testing.T) {
	s := sharedSynth(t)
	defer s.SetDDIMSteps(fastConfig().DDIMSteps)
	for _, class := range sharedClass {
		for _, ddim := range []int{2, 4} {
			for _, n := range []int{1, 5} {
				s.SetDDIMSteps(ddim)
				flowSeeds := DeriveFlowSeeds(uint64(100*ddim+n), n)
				ci, samples := seededSamples(t, s, class, flowSeeds, ddim)
				want := publicStepChain(t, s, ci, class, samples, flowSeeds)
				got, err := s.GenerateWithFlowSeeds(class, flowSeeds)
				if err != nil {
					t.Fatal(err)
				}
				if got.Repaired != want.Repaired || got.SkippedRows != want.SkippedRows ||
					got.RawCompliance != want.RawCompliance || got.RawCellCompliance != want.RawCellCompliance {
					t.Errorf("%s ddim %d n %d: diagnostics {%d %d %v %v}, want {%d %d %v %v}", class, ddim, n,
						got.Repaired, got.SkippedRows, got.RawCompliance, got.RawCellCompliance,
						want.Repaired, want.SkippedRows, want.RawCompliance, want.RawCellCompliance)
				}
				if want.Repaired == 0 {
					t.Errorf("%s ddim %d n %d: nothing to repair — the comparison does not exercise projection", class, ddim, n)
				}
				for i := range want.Matrices {
					if !slices.Equal(got.Matrices[i].Data, want.Matrices[i].Data) {
						t.Errorf("%s ddim %d n %d: flow %d matrix differs", class, ddim, n, i)
					}
				}
				if !bytes.Equal(pcapBytes(t, got.Flows), pcapBytes(t, want.Flows)) {
					t.Errorf("%s ddim %d n %d: pcap bytes differ", class, ddim, n)
				}
			}
		}
	}
}

// TestFlowFromSampleAllocs pins the per-flow function's allocations on
// one seeded sample (its bytes are fixed by the golden digests, so the
// count repeats): 234 for its 16 packets — the matrix, the flow, the
// packet slice's growth, and per decoded row what nprint's
// TestDecodeRowAllocs pins. Nothing scales with the matrix's cells; two
// more per row would be a header-group slice come back.
func TestFlowFromSampleAllocs(t *testing.T) {
	s := sharedSynth(t)
	ci, samples := seededSamples(t, s, sharedClass[0], []uint64{7}, 4)
	cfg := s.configSnapshot()
	var packets int
	got := testing.AllocsPerRun(20, func() {
		fr, err := s.flowFromSample(ci, sharedClass[0], cfg, samples, 7)
		if err != nil {
			t.Fatal(err)
		}
		packets = len(fr.fl.Packets)
	})
	if packets != 16 || got > 234 {
		t.Fatalf("%v allocations for a %d-packet flow, want at most 234 for 16", got, packets)
	}
}
