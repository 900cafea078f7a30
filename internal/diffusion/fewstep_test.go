package diffusion

import (
	"math"
	"sync"
	"testing"

	"trafficdiff/internal/stats"
)

// TestFewStepBudgets runs every frontier step budget end to end — each
// must produce finite output of the right shape.
func TestFewStepBudgets(t *testing.T) {
	r := stats.NewRNG(31)
	m := NewMLPDenoiser(r, 8, 16, 64, 2)
	m.OutLayer().W.X.Randn(r, 0.05)
	sched := NewSchedule(ScheduleCosine, 64)
	for _, steps := range []int{4, 8, 16} {
		x, err := sample(m, sched, SampleConfig{Class: 0, GuidanceScale: 2, DDIMSteps: steps, FlowSeeds: []uint64{3, 4}})
		if err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		if x.Shape[0] != 2 || x.Shape[2] != 8 || x.Shape[3] != 16 {
			t.Fatalf("steps=%d: shape %v", steps, x.Shape)
		}
		for i, v := range x.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("steps=%d: non-finite output at %d", steps, i)
			}
		}
	}
}

// TestDDIMTableConcurrent hammers the memoized table from many
// goroutines mixing first-use and cached step counts. Run under -race
// it proves the ddimMu discipline; the slice-identity check proves
// every caller gets the same memoized plan (no torn rebuilds).
func TestDDIMTableConcurrent(t *testing.T) {
	sched := NewSchedule(ScheduleCosine, 64)
	budgets := []int{4, 8, 10, 16, 32}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				b := budgets[(g+iter)%len(budgets)]
				seq, coef := sched.DDIMTable(b)
				if len(seq) != b || len(coef) != b {
					t.Errorf("DDIMTable(%d): got %d steps, %d coeffs", b, len(seq), len(coef))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, b := range budgets {
		seq, coef := sched.DDIMTable(b)
		seq2, coef2 := sched.DDIMTable(b)
		if &seq[0] != &seq2[0] || &coef[0] != &coef2[0] {
			t.Fatalf("DDIMTable(%d) rebuilt instead of memoizing", b)
		}
	}
}
