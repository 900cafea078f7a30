package diffusion

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// equivModel builds an MLP denoiser whose zero-initialized layers
// (output projection, ControlNet hook) are given real weights, so
// sampler-equivalence comparisons exercise the full network rather
// than just the time-gated input skip. The hidden width differs from
// H·W so a control-feature row and an image row cannot be confused.
func equivModel(r *stats.RNG, h, w int) *MLPDenoiser {
	m := NewMLPDenoiser(r, h, w, 24, 2)
	m.OutLayer().W.X.Randn(r, 0.05)
	m.CtrlProjLayer().W.X.Randn(r, 0.05)
	return m
}

// rootSeeds is the per-flow seed layout core.DeriveFlowSeeds expands a
// request's root seed into: the first n draws of the root's stream.
func rootSeeds(root uint64, n int) []uint64 {
	r := stats.NewRNG(root)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

// SampleConfig is one batch of flows that share a class, guidance
// scale, DDIM budget and control image, one flow per seed.
type SampleConfig struct {
	Class         int
	GuidanceScale float64
	DDIMSteps     int
	Control       *tensor.Tensor
	FlowSeeds     []uint64
}

// sample admits one flow per seed of cfg to a fresh split-path
// Scheduler, steps it until every flow completes and returns the
// images packed one h*w row per flow, [n,1,H,W].
func sample(model Denoiser, sched *Schedule, cfg SampleConfig) (*tensor.Tensor, error) {
	h, w := model.Shape()
	d := h * w
	eng := NewScheduler(model, sched, nil)
	out := tensor.New(len(cfg.FlowSeeds), 1, h, w)
	for i, seed := range cfg.FlowSeeds {
		if _, err := eng.Admit(FlowSpec{
			Class: cfg.Class, GuidanceScale: cfg.GuidanceScale, DDIMSteps: cfg.DDIMSteps,
			RNG: stats.NewRNG(seed), Control: cfg.Control, Out: out.Data[i*d : (i+1)*d],
		}); err != nil {
			return nil, err
		}
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	return out, nil
}

// SampleLegacy is the sequential reference the Scheduler is checked
// against: each flow runs alone from the stream rooted at its seed —
// x_T, then per step
// batch-1 model.Forward calls (conditional, and unconditional when
// guided), the combine u + w·(c − u) and the DDPM/DDIM update. It shares
// only the update functions with the Scheduler.
func SampleLegacy(model Denoiser, sched *Schedule, cfg SampleConfig) []float32 {
	h, w := model.Shape()
	d := h * w
	guided := !stats.ApproxEqual(cfg.GuidanceScale, 1, 1e-9)
	seq, coef := ddimSequence(sched.T, sched.T), []DDIMCoeff(nil)
	if cfg.DDIMSteps > 0 && cfg.DDIMSteps < sched.T {
		seq, coef = sched.DDIMTable(cfg.DDIMSteps)
	}
	out := make([]float32, len(cfg.FlowSeeds)*d)
	for i, seed := range cfg.FlowSeeds {
		r := stats.NewRNG(seed)
		x := tensor.New(1, 1, h, w).Randn(r, 1)
		for k := len(seq) - 1; k >= 0; k-- {
			tp := nn.NewTape()
			steps := []int{seq[k]}
			eps := model.Forward(tp, tp.Input(x), steps, []int{cfg.Class}, cfg.Control).X.Data
			if guided {
				u := model.Forward(tp, tp.Input(x), steps, []int{model.NullClass()}, cfg.Control).X.Data
				for j, c := range eps {
					eps[j] = u[j] + float32(cfg.GuidanceScale)*(c-u[j])
				}
			}
			if coef != nil {
				ddimUpdate(x.Data, eps, coef[k])
			} else {
				ddpmUpdate(x.Data, eps, sched, seq[k], r)
			}
		}
		copy(out[i*d:(i+1)*d], x.Data)
	}
	return out
}

// bitsEqual reports whether two float32 slices are byte-identical,
// returning the first differing index.
func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestBatchedMatchesLegacy is the batched-timestep path's bit-identity
// property test: for DDPM and DDIM, guidance 1 and 3, with and without
// ControlNet conditioning, and at GOMAXPROCS 1 and 8, a batch on one
// Scheduler (step-serial, batch-wide) must produce byte-identical output to
// SampleLegacy (flow by flow, batch-1 plain forwards) on the scheduler's
// split path (trunk once, head over the pair's class rows, control
// projected at admission). This is what makes batching, and the shared trunk,
// purely scheduling decisions: no experiment or seeded serving request
// can observe them.
func TestBatchedMatchesLegacy(t *testing.T) {
	r := stats.NewRNG(11)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	control := tensor.New(1, h, w).Randn(r, 1)
	flowSeeds := []uint64{901, 77, 31337}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, ddim := range []int{0, 4} {
			for _, guidance := range []float64{1, 3} {
				for _, ctl := range []*tensor.Tensor{nil, control} {
					cfg := SampleConfig{
						Class: 1, GuidanceScale: guidance,
						DDIMSteps: ddim, Control: ctl, FlowSeeds: flowSeeds,
					}
					name := fmt.Sprintf("procs=%d/ddim=%d/w=%v/ctl=%v",
						procs, ddim, guidance, ctl != nil)
					got, err := sample(model, sched, cfg)
					if err != nil {
						t.Fatalf("%s: sample: %v", name, err)
					}
					want := SampleLegacy(model, sched, cfg)
					if i, ok := bitsEqual(got.Data, want); !ok {
						t.Errorf("%s: batched diverges from legacy at [%d]: %x vs %x",
							name, i, math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// churnFlow is one flow of the randomized churn schedule: its spec,
// its solo-reference config, and where the scheduler run put it.
type churnFlow struct {
	seed     uint64
	class    int
	guidance float64
	ddim     int
	control  *tensor.Tensor
	id       FlowID
	out      []float32
	retired  bool
	done     bool
}

// TestSchedulerChurnBitIdentity is the continuous-batching bit-identity
// property test: flows join the in-flight batch and retire at
// randomized step boundaries, mixing DDPM with heterogeneous DDIM step
// counts, classes and guidance scales (guided beside unguided) in one
// batch, with and without ControlNet conditioning (each flow its own
// control image, so its control row must follow it through every
// swapRows/dropRow), on the scheduler's split path (nil override) and
// its plain path, at GOMAXPROCS 1 and 8 — and every completed flow's
// bytes must equal a solo SampleLegacy run of that flow alone.
// The script also walks the in-flight flow count through 1, 2, 8, 9 and
// 17 (checked): with every row stepped, those are the row counts of the
// forward's GEMMs, which take the A·Bᵀ kernel from its scalar loop (one
// row) to one vector block (two rows: six idle lanes; eight: none) to a
// block beside a scalar row (nine) to two blocks and a row (seventeen) —
// tensor's TestABTBothTilesRun counts exactly that routing — so a
// flow's bytes are checked not to depend on which tile its row rode.
// This is the contract that lets traced admit a request into a batch
// that is already at step 37 without the response bytes depending on
// it. Runs under -race in CI (make race).
func TestSchedulerChurnBitIdentity(t *testing.T) {
	r := stats.NewRNG(11)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	d := h * w

	ddimChoices := []int{0, 3, 4, 6} // 0 = full DDPM, rest heterogeneous DDIM budgets
	guidanceChoices := []float64{1, 2, 3}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, variant := range []struct {
			ctl      bool
			override ForwardFunc
		}{{false, nil}, {true, nil}, {true, model.Forward}} {
			// budget 3 forces the step-row cap through constant
			// least-attained reordering under churn; 0 steps every row.
			for _, budget := range []int{0, 3} {
				name := fmt.Sprintf("procs=%d/ctl=%v/override=%v/budget=%d",
					procs, variant.ctl, variant.override != nil, budget)
				driver := stats.NewRNG(97) // deterministic churn script
				eng := NewScheduler(model, sched, variant.override)
				eng.SetStepRows(budget)
				var flows []*churnFlow
				byID := map[FlowID]*churnFlow{}
				admitted, completed := 0, 0
				const total = 48
				rampRows := []int{1, 2, 8, 9, 17}
				ramp, stepped := 0, map[int]bool{}
				for completed < total {
					// Admit 0-2 new flows at this boundary (always at least
					// one while the engine is idle and flows remain), or, as
					// soon as the batch is small enough, the flows that bring
					// it to the next count on rampRows.
					burst := int(driver.Uint64() % 3)
					scripted := ramp < len(rampRows) && eng.Active() <= rampRows[ramp]
					if scripted {
						burst = rampRows[ramp] - eng.Active()
						ramp++
					}
					for burst > 0 || (eng.Active() == 0 && admitted < total) {
						if admitted >= total {
							break
						}
						cf := &churnFlow{
							seed:     uint64(1000 + admitted),
							class:    int(driver.Uint64() % 2),
							guidance: guidanceChoices[driver.Uint64()%3],
							ddim:     ddimChoices[driver.Uint64()%4],
							out:      make([]float32, d),
						}
						if variant.ctl {
							cf.control = tensor.New(1, h, w).Randn(stats.NewRNG(cf.seed^0xc0), 1)
						}
						id, err := eng.Admit(FlowSpec{
							Class:         cf.class,
							GuidanceScale: cf.guidance,
							DDIMSteps:     cf.ddim,
							RNG:           stats.NewRNG(cf.seed),
							Control:       cf.control,
							Out:           cf.out,
						})
						if err != nil {
							t.Fatalf("%s: admit: %v", name, err)
						}
						cf.id = id
						flows = append(flows, cf)
						byID[id] = cf
						admitted++
						burst--
					}
					// Occasionally retire a random live flow mid-generation
					// (its spot must not perturb anyone else's bytes).
					if !scripted && driver.Uint64()%5 == 0 {
						live := flows[:0:0]
						for _, cf := range flows {
							if !cf.done && !cf.retired {
								live = append(live, cf)
							}
						}
						if len(live) > 1 {
							victim := live[driver.Uint64()%uint64(len(live))]
							victim.retired = true
							eng.Retire(victim.id)
							completed++ // retired flows count toward termination
						}
					}
					stepped[eng.Active()] = true
					for _, id := range eng.Step() {
						cf := byID[id]
						if cf == nil {
							t.Fatalf("%s: unknown completed id %d", name, id)
						}
						if cf.retired {
							t.Fatalf("%s: retired flow %d completed", name, id)
						}
						cf.done = true
						completed++
					}
				}
				for eng.Active() > 0 {
					for _, id := range eng.Step() {
						byID[id].done = true
					}
				}
				for _, n := range rampRows {
					if !stepped[n] {
						t.Errorf("%s: no step ran with %d flows in flight", name, n)
					}
				}

				for _, cf := range flows {
					if cf.retired {
						// A retired flow must never have written its output.
						for j, v := range cf.out {
							if v != 0 {
								t.Fatalf("%s: retired flow %d wrote out[%d]=%v", name, cf.id, j, v)
							}
						}
						continue
					}
					if !cf.done {
						t.Fatalf("%s: flow %d never completed", name, cf.id)
					}
					solo := SampleLegacy(model, sched, SampleConfig{
						Class: cf.class, GuidanceScale: cf.guidance,
						DDIMSteps: cf.ddim, Control: cf.control, FlowSeeds: []uint64{cf.seed},
					})
					if i, ok := bitsEqual(cf.out, solo); !ok {
						t.Errorf("%s: flow %d (class=%d w=%v ddim=%d) diverges from solo at [%d]",
							name, cf.id, cf.class, cf.guidance, cf.ddim, i)
					}
				}
			}
		}
	}
}

// TestBatchCompositionInvariance checks the FlowSeeds contract on the
// batched path directly: a flow's bytes are a pure function of its own
// seed, unchanged by which other flows share the batch.
func TestBatchCompositionInvariance(t *testing.T) {
	r := stats.NewRNG(17)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 10)
	d := h * w
	for _, ddim := range []int{0, 4} {
		alone, err := sample(model, sched, SampleConfig{
			Class: 1, GuidanceScale: 2, DDIMSteps: ddim, FlowSeeds: []uint64{424242},
		})
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := sample(model, sched, SampleConfig{
			Class: 1, GuidanceScale: 2, DDIMSteps: ddim,
			FlowSeeds: []uint64{7, 424242, 99, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := bitsEqual(alone.Data, grouped.Data[d:2*d]); !ok {
			t.Errorf("ddim=%d: flow output depends on batch composition (index %d)", ddim, i)
		}
	}
}
