package diffusion

import (
	"math"
	"testing"

	"trafficdiff/internal/nn"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/tensor"
)

// admitTestFlow admits one DDIM flow with the given budget and returns
// its id and output buffer.
func admitTestFlow(t *testing.T, eng *Scheduler, seed uint64, ddim int, d int) (FlowID, []float32) {
	t.Helper()
	out := make([]float32, d)
	id, err := eng.Admit(FlowSpec{
		Class: 0, GuidanceScale: 2, DDIMSteps: ddim,
		RNG: stats.NewRNG(seed), Out: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id, out
}

// TestSchedulerRetireStopsWork is the wasted-work regression test: a
// flow retired mid-generation must stop consuming forwards at the next
// step boundary instead of running its remaining steps as dead work.
// Before the scheduler, an expired request that had already been
// dispatched was always fully generated.
func TestSchedulerRetireStopsWork(t *testing.T) {
	r := stats.NewRNG(31)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	eng := NewScheduler(model, sched, nil)

	const ddim = 6
	idA, outA := admitTestFlow(t, eng, 7, ddim, h*w)
	idB, outB := admitTestFlow(t, eng, 8, ddim, h*w)
	_ = idA

	eng.Step()
	eng.Step()
	if got := eng.Stats().FlowSteps; got != 4 {
		t.Fatalf("FlowSteps after 2 two-row steps = %d, want 4", got)
	}
	eng.Retire(idB)
	for eng.Active() > 0 {
		eng.Step()
	}
	st := eng.Stats()
	// Flow A runs its remaining 4 steps alone: 4 + 4 flow-steps total.
	// Had B not been retired the engine would have run 12.
	if st.FlowSteps != 8 {
		t.Errorf("FlowSteps = %d, want 8 (retired flow consumed forwards past the boundary)", st.FlowSteps)
	}
	if st.Retired != 1 || st.Completed != 1 {
		t.Errorf("retired/completed = %d/%d, want 1/1", st.Retired, st.Completed)
	}
	for j, v := range outB {
		if v != 0 {
			t.Fatalf("retired flow wrote out[%d]=%v", j, v)
		}
	}
	// The surviving flow's bytes are unaffected by its neighbour's
	// retirement: identical to a solo run.
	solo := SampleLegacy(model, sched, SampleConfig{
		Class: 0, GuidanceScale: 2, DDIMSteps: ddim, FlowSeeds: []uint64{7},
	})
	if i, ok := bitsEqual(outA, solo); !ok {
		t.Errorf("survivor diverges from solo at [%d]", i)
	}
}

// TestSchedulerAdmitValidation covers the Admit error surface,
// including a Start's checks and the uniform-control-presence invariant.
func TestSchedulerAdmitValidation(t *testing.T) {
	r := stats.NewRNG(37)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 8)
	eng := NewScheduler(model, sched, nil)
	d := h * w
	control := tensor.New(1, h, w).Randn(r, 1)

	if _, err := eng.Admit(FlowSpec{Class: 0, RNG: nil, Out: make([]float32, d)}); err == nil {
		t.Error("nil RNG admitted")
	}
	if _, err := eng.Admit(FlowSpec{Class: 9, RNG: stats.NewRNG(1), Out: make([]float32, d)}); err == nil {
		t.Error("out-of-range class admitted")
	}
	if _, err := eng.Admit(FlowSpec{Class: 0, RNG: stats.NewRNG(1), Out: make([]float32, d-1)}); err == nil {
		t.Error("short out buffer admitted")
	}
	for _, bad := range []FlowSpec{
		{Start: make([]float32, d-1), StartT: 3},
		{Start: make([]float32, d), StartT: 3, DDIMSteps: 4},
		{Start: make([]float32, d), StartT: -1},
		{Start: make([]float32, d), StartT: sched.T},
	} {
		bad.RNG, bad.Out = stats.NewRNG(1), make([]float32, d)
		if _, err := eng.Admit(bad); err == nil {
			t.Errorf("%d-element start at t=%d with %d DDIM steps admitted", len(bad.Start), bad.StartT, bad.DDIMSteps)
		}
	}
	if _, err := eng.Admit(FlowSpec{Class: 0, RNG: stats.NewRNG(1), Out: make([]float32, d)}); err != nil {
		t.Fatalf("valid unconditioned admit: %v", err)
	}
	if _, err := eng.Admit(FlowSpec{Class: 0, RNG: stats.NewRNG(2), Control: control, Out: make([]float32, d)}); err == nil {
		t.Error("mixed control presence admitted into an unconditioned batch")
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	// With the batch drained the presence mode resets.
	if _, err := eng.Admit(FlowSpec{Class: 0, RNG: stats.NewRNG(3), Control: control, Out: make([]float32, d)}); err != nil {
		t.Fatalf("conditioned admit into an empty engine: %v", err)
	}
}

// TestSchedulerStartAndRow pins the surface the edits drive: a flow
// started at StartT completes after exactly StartT+1 Steps; Row is nil
// for an unknown, retired or completed flow; and x_t written through
// Row between Steps reaches Out exactly as if the flow had started there.
func TestSchedulerStartAndRow(t *testing.T) {
	r := stats.NewRNG(47)
	h, w := 4, 8
	d := h * w
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	x := tensor.New(1, h, w).Randn(r, 1).Data
	admit := func(eng *Scheduler, rng *stats.RNG, startT int) (FlowID, []float32) {
		out := make([]float32, d)
		id, err := eng.Admit(FlowSpec{Class: 1, GuidanceScale: 2, RNG: rng, Out: out, Start: x, StartT: startT})
		if err != nil {
			t.Fatal(err)
		}
		return id, out
	}
	for _, startT := range []int{0, 5, sched.T - 1} {
		eng := NewScheduler(model, sched, nil)
		id, _ := admit(eng, stats.NewRNG(1), startT)
		steps := 0
		for ; eng.Active() > 0; steps++ {
			eng.Step()
		}
		if steps != startT+1 || eng.Row(id) != nil {
			t.Errorf("started at t=%d: %d steps, want %d; Row after completion %v", startT, steps, startT+1, eng.Row(id))
		}
	}

	eng := NewScheduler(model, sched, nil)
	id, out := admit(eng, stats.NewRNG(1), 1)
	gone, _ := admit(eng, stats.NewRNG(2), 1)
	eng.Retire(gone)
	if eng.Row(gone) != nil || eng.Row(42) != nil {
		t.Error("Row of a retired or unknown flow is not nil")
	}
	eng.Step()
	copy(eng.Row(id), x)
	eng.Step()
	// The reference starts at x at t=0, its stream past one step's draws.
	rng := stats.NewRNG(1)
	for range d {
		rng.NormFloat64()
	}
	ref := NewScheduler(model, sched, nil)
	_, want := admit(ref, rng, 0)
	ref.Step()
	if i, ok := bitsEqual(out, want); !ok {
		t.Errorf("write through Row did not reach Out: diverges at [%d]", i)
	}
}

// TestSchedulerSteadyStateAllocs asserts a stable batch steps without
// allocating: after one warm-up step primes the tape arena and the
// cached view headers, a guided, control-conditioned step of the paper
// geometry (a 16×136 image, hidden 192, as core.DefaultConfig) makes no
// allocation at 1, 2, 16 or 32 rows. It steps under tensor.Serial, as an
// engine loop beside another busy loop does: a sharded op's dispatch
// closure is the one allocation a step may make.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	r := stats.NewRNG(23)
	h, w := 16, 136
	model := NewMLPDenoiser(r, h, w, 192, 4)
	sched := NewSchedule(ScheduleCosine, 120)
	control := tensor.New(1, h, w).Randn(r, 1)
	for _, n := range []int{1, 2, 16, 32} {
		eng := NewScheduler(model, sched, nil)
		for i := 0; i < n; i++ {
			if _, err := eng.Admit(FlowSpec{
				Class: i % 4, GuidanceScale: 2, DDIMSteps: 60, RNG: stats.NewRNG(uint64(i + 1)),
				Control: control, Out: make([]float32, h*w),
			}); err != nil {
				t.Fatal(err)
			}
		}
		step := func() { tensor.Serial(func() { eng.Step() }) }
		step() // warm the arena and view headers
		if avg := testing.AllocsPerRun(10, step); avg != 0 {
			t.Errorf("%d rows: a steady-state Step allocates %.1f times, want 0", n, avg)
		}
		if eng.Active() != n {
			t.Fatalf("%d rows: %d flows left mid-plan, want every one still stepping", n, eng.Active())
		}
	}
}

// TestSchedulerStepRowsBudget pins the step-row cap's semantics: each
// Step advances exactly the budget's worth of least-attained flows, a
// late-joining flow is prioritized until it catches up, and every
// flow still finishes byte-identical to its solo run.
func TestSchedulerStepRowsBudget(t *testing.T) {
	r := stats.NewRNG(53)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 12)
	eng := NewScheduler(model, sched, nil)
	eng.SetStepRows(2)
	d := h * w

	const ddim = 4
	_, outA := admitTestFlow(t, eng, 21, ddim, d)
	_, outB := admitTestFlow(t, eng, 22, ddim, d)
	_, outC := admitTestFlow(t, eng, 23, ddim, d)

	// 3 flows, budget 2: every boundary steps exactly 2 rows.
	eng.Step()
	if st := eng.Stats(); st.Steps != 1 || st.FlowSteps != 2 {
		t.Fatalf("after budgeted step: steps=%d flowSteps=%d, want 1/2", st.Steps, st.FlowSteps)
	}
	// A flow joining now has attained 0 — less than everyone — so it
	// must be in the stepping pair at the next boundary and, with
	// ddim=2 < 4, can overtake and finish first.
	idD, outD := admitTestFlow(t, eng, 24, 2, d)
	var order []FlowID
	for eng.Active() > 0 {
		order = append(order, eng.Step()...)
	}
	if len(order) != 4 || order[0] != idD {
		t.Fatalf("completion order %v, want the late short flow %d first", order, idD)
	}
	for i, c := range []struct {
		seed uint64
		dd   int
		out  []float32
	}{{21, ddim, outA}, {22, ddim, outB}, {23, ddim, outC}, {24, 2, outD}} {
		solo := SampleLegacy(model, sched, SampleConfig{
			Class: 0, GuidanceScale: 2, DDIMSteps: c.dd, FlowSeeds: []uint64{c.seed},
		})
		if j, ok := bitsEqual(c.out, solo); !ok {
			t.Errorf("flow %d diverges from solo at [%d] under a step-row budget", i, j)
		}
	}
}

// TestSchedulerGrowthPreservesFlows admits past the initial buffer
// capacity mid-flight and checks every flow still matches its solo
// run: growth must move live rows without corrupting them.
func TestSchedulerGrowthPreservesFlows(t *testing.T) {
	r := stats.NewRNG(41)
	h, w := 4, 8
	model := equivModel(r, h, w)
	sched := NewSchedule(ScheduleCosine, 10)
	eng := NewScheduler(model, sched, nil)
	d := h * w

	type fl struct {
		seed uint64
		out  []float32
	}
	var flows []fl
	admit := func(seed uint64) {
		out := make([]float32, d)
		if _, err := eng.Admit(FlowSpec{
			Class: 1, GuidanceScale: 2, DDIMSteps: 5,
			RNG: stats.NewRNG(seed), Out: out,
		}); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl{seed, out})
	}
	// 3 flows fit the initial 4-row buffer; two steps in, a burst of 6
	// more forces a regrow while rows are mid-denoise.
	for i := 0; i < 3; i++ {
		admit(uint64(100 + i))
	}
	eng.Step()
	eng.Step()
	for i := 0; i < 6; i++ {
		admit(uint64(200 + i))
	}
	for eng.Active() > 0 {
		eng.Step()
	}
	for _, f := range flows {
		solo := SampleLegacy(model, sched, SampleConfig{
			Class: 1, GuidanceScale: 2, DDIMSteps: 5, FlowSeeds: []uint64{f.seed},
		})
		if i, ok := bitsEqual(f.out, solo); !ok {
			t.Errorf("seed %d diverges from solo at [%d] after mid-flight growth", f.seed, i)
		}
	}
}

// countingSplit wraps an MLP denoiser and tallies the rows each half of
// the split forward is asked to compute.
type countingSplit struct {
	*MLPDenoiser
	t                                *testing.T
	trunkCalls, headCalls, ctrlCalls int
	trunkRows, headRows, ctrlRows    int
}

func (c *countingSplit) Forward(*nn.Tape, *nn.V, []int, []int, *tensor.Tensor) *nn.V {
	c.t.Fatal("split path called the plain Forward")
	return nil
}

func (c *countingSplit) ControlFeatures(tp *nn.Tape, control *tensor.Tensor) *nn.V {
	c.ctrlCalls++
	out := c.MLPDenoiser.ControlFeatures(tp, control)
	c.ctrlRows += out.X.Shape[0]
	return out
}

func (c *countingSplit) Trunk(tp *nn.Tape, xt *nn.V, steps []int) (h, skip *nn.V) {
	c.trunkCalls++
	c.trunkRows += len(steps)
	return c.MLPDenoiser.Trunk(tp, xt, steps)
}

func (c *countingSplit) Head(tp *nn.Tape, h, skip *nn.V, class []int, ctrl *nn.V) *nn.V {
	c.headCalls++
	c.headRows += len(class)
	return c.MLPDenoiser.Head(tp, h, skip, class, ctrl)
}

// TestSchedulerSplitStepWork counts the work of the split path: with no
// override, a guided step over n rows runs the trunk (the x projection)
// once over n rows and the head (the output projection) once over 2n,
// and never the control projection, which ran at Admit once per distinct
// image — three n-row big products per step where the plain path's two
// forwards run six. An unguided step runs the head over n rows.
func TestSchedulerSplitStepWork(t *testing.T) {
	r := stats.NewRNG(59)
	h, w := 4, 8
	model := &countingSplit{MLPDenoiser: equivModel(r, h, w), t: t}
	sched := NewSchedule(ScheduleCosine, 12)
	control := tensor.New(1, h, w).Randn(r, 1)
	const n, ddim = 5, 4

	for _, guidance := range []float64{2, 1} {
		*model = countingSplit{MLPDenoiser: model.MLPDenoiser, t: t}
		eng := NewScheduler(model, sched, nil)
		for i := 0; i < n; i++ {
			if _, err := eng.Admit(FlowSpec{
				Class: i % 2, GuidanceScale: guidance, DDIMSteps: ddim,
				RNG: stats.NewRNG(uint64(i + 1)), Control: control, Out: make([]float32, h*w),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if model.ctrlCalls != 1 || model.ctrlRows != 1 {
			t.Fatalf("w=%v: %d control projections over %d rows admitting %d flows that share one image, want 1 over 1",
				guidance, model.ctrlCalls, model.ctrlRows, n)
		}
		for eng.Active() > 0 {
			eng.Step()
		}
		headRows := 2 * n
		if guidance == 1 {
			headRows = n
		}
		if model.trunkCalls != ddim || model.trunkRows != ddim*n {
			t.Errorf("w=%v: trunk ran %d times over %d rows, want %d over %d",
				guidance, model.trunkCalls, model.trunkRows, ddim, ddim*n)
		}
		if model.headCalls != ddim || model.headRows != ddim*headRows {
			t.Errorf("w=%v: head ran %d times over %d rows, want %d over %d",
				guidance, model.headCalls, model.headRows, ddim, ddim*headRows)
		}
		if model.ctrlCalls != 1 {
			t.Errorf("w=%v: %d control projections after stepping, want the 1 from admission",
				guidance, model.ctrlCalls)
		}
	}
}

// TestSchedulerControlProjectedPerDistinctImage pins what "the same
// image" means at Admit: an image's features are reused only when every
// bit of the incoming image matches one already projected. Two images
// admitted alternately (A, B, A, B — a server cycling classes) are
// projected twice in all, an image differing in one bit (-0 for +0) is
// projected again, the entries never outnumber the model's classes (two
// here: a third image takes over the last entry), and whichever way a
// flow's features were obtained its bytes equal its solo run's.
func TestSchedulerControlProjectedPerDistinctImage(t *testing.T) {
	r := stats.NewRNG(61)
	h, w := 4, 8
	d := h * w
	base := equivModel(r, h, w)
	// equivModel's control projection is live (non-zero), so wrong
	// features would change the output bytes.
	model := &countingSplit{MLPDenoiser: base, t: t}
	sched := NewSchedule(ScheduleCosine, 12)
	imgA := tensor.New(1, h, w).Randn(r, 1)
	imgB := tensor.New(1, h, w).Randn(r, 1)
	imgA.Data[3] = 0
	flipped := imgA.Clone()
	flipped.Data[3] = float32(math.Copysign(0, -1))

	eng := NewScheduler(model, sched, nil)
	type admitted struct {
		seed    uint64
		control *tensor.Tensor
		out     []float32
	}
	var flows []admitted
	admit := func(control *tensor.Tensor, wantCalls int, what string) {
		t.Helper()
		f := admitted{seed: uint64(len(flows) + 1), control: control, out: make([]float32, d)}
		if _, err := eng.Admit(FlowSpec{
			Class: 0, GuidanceScale: 2, DDIMSteps: 4,
			RNG: stats.NewRNG(f.seed), Control: control, Out: f.out,
		}); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
		if model.ctrlCalls != wantCalls {
			t.Fatalf("%s: %d control projections so far, want %d", what, model.ctrlCalls, wantCalls)
		}
	}
	admit(imgA, 1, "first image")
	admit(imgA, 1, "same image again")
	admit(imgA.Clone(), 1, "equal bits in another tensor")
	admit(imgB, 2, "second image")
	admit(imgA, 2, "first image after the second")
	admit(imgB, 2, "second image after the first")
	admit(imgB, 2, "second image again")
	admit(imgA, 2, "back to the first")
	admit(flipped, 3, "first image with one sign bit flipped")
	admit(flipped, 3, "flipped image again")
	admit(imgA, 3, "first image, still held beside the flipped one")
	admit(imgB, 4, "second image, displaced by the third of two classes")
	if got := len(eng.ctrlSeen); got != 2 {
		t.Fatalf("%d control images held for a 2-class model", got)
	}

	for eng.Active() > 0 {
		eng.Step()
	}
	for i, f := range flows {
		solo := SampleLegacy(model.MLPDenoiser, sched, SampleConfig{
			Class: 0, GuidanceScale: 2, DDIMSteps: 4,
			FlowSeeds: []uint64{f.seed}, Control: f.control,
		})
		if j, ok := bitsEqual(f.out, solo); !ok {
			t.Errorf("flow %d diverges from its solo run at [%d]", i, j)
		}
	}
}
