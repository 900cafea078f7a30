package rf

import (
	"testing"

	"trafficdiff/internal/nprint"
	"trafficdiff/internal/stats"
	"trafficdiff/internal/workload"
)

// blobs generates k well-separated Gaussian clusters in dim dims.
func blobs(n, k, dim int, seed uint64) ([][]float32, []int) {
	r := stats.NewRNG(seed)
	x := make([][]float32, n)
	y := make([]int, n)
	for i := range x {
		cls := i % k
		row := make([]float32, dim)
		for j := range row {
			center := float32(0)
			if j%k == cls {
				center = 5
			}
			row[j] = center + float32(r.NormFloat64())
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

func TestForestSeparableAccuracy(t *testing.T) {
	x, y := blobs(300, 3, 6, 1)
	xt, yt := blobs(90, 3, 6, 2)
	f, err := Train(x, y, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(f.PredictBatch(xt), yt)
	if acc < 0.95 {
		t.Fatalf("accuracy on separable blobs = %v", acc)
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	x, y := blobs(100, 2, 4, 3)
	cfg := DefaultConfig()
	cfg.Trees = 5
	f1, _ := Train(x, y, 2, cfg)
	f2, _ := Train(x, y, 2, cfg)
	xt, _ := blobs(50, 2, 4, 4)
	p1, p2 := f1.PredictBatch(xt), f2.PredictBatch(xt)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestForestValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Train(nil, nil, 2, cfg); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := Train([][]float32{{1}}, []int{0, 1}, 2, cfg); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Train([][]float32{{1}, {1, 2}}, []int{0, 0}, 2, cfg); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Train([][]float32{{1}}, []int{3}, 2, cfg); err == nil {
		t.Error("bad label should fail")
	}
	if _, err := Train([][]float32{{}}, []int{0}, 1, cfg); err == nil {
		t.Error("zero-width rows should fail")
	}
	bad := cfg
	bad.Trees = 0
	if _, err := Train([][]float32{{1}}, []int{0}, 1, bad); err == nil {
		t.Error("zero trees should fail")
	}
}

func TestSingleClassDegenerates(t *testing.T) {
	x := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 0, 0}
	f, err := Train(x, y, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Predict([]float32{9, 9}) != 0 {
		t.Fatal("single-class forest should always predict 0")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	x, y := blobs(200, 2, 4, 5)
	cfg := DefaultConfig()
	cfg.Trees = 3
	cfg.MaxDepth = 2
	f, err := Train(x, y, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range f.trees {
		if d := tree.Depth(); d > 2 {
			t.Fatalf("tree depth %d exceeds max 2", d)
		}
	}
}

func TestBinaryFeaturesSplit(t *testing.T) {
	// nprint features are in {-1,0,1}; the threshold search must
	// handle ternary features.
	r := stats.NewRNG(6)
	n := 200
	x := make([][]float32, n)
	y := make([]int, n)
	for i := range x {
		cls := i % 2
		row := make([]float32, 8)
		for j := range row {
			row[j] = float32(r.Intn(2)) // noise bits
		}
		row[3] = float32(cls) // signal bit
		x[i] = row
		y[i] = cls
	}
	f, err := Train(x, y, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(f.PredictBatch(x), y); acc < 0.99 {
		t.Fatalf("ternary-feature accuracy = %v", acc)
	}
}

func TestAccuracyHelper(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); got != 2.0/3.0 {
		t.Fatalf("accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm, err := NewConfusionMatrix([]int{0, 1, 1, 0}, []int{0, 1, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Counts[0][0] != 2 || cm.Counts[0][1] != 1 || cm.Counts[1][1] != 1 {
		t.Fatalf("counts = %v", cm.Counts)
	}
	if cm.Accuracy() != 0.75 {
		t.Fatalf("cm accuracy = %v", cm.Accuracy())
	}
	rec := cm.PerClassRecall()
	if rec[0] != 2.0/3.0 || rec[1] != 1 {
		t.Fatalf("recall = %v", rec)
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix([]int{0}, []int{0, 1}, 2); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewConfusionMatrix([]int{5}, []int{0}, 2); err == nil {
		t.Error("out-of-range class should fail")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := blobs(100, 2, 4, 7)
	f, _ := Train(x, y, 2, DefaultConfig())
	xt, _ := blobs(37, 2, 4, 8)
	batch := f.PredictBatch(xt)
	for i, row := range xt {
		if f.Predict(row) != batch[i] {
			t.Fatal("batch and single predictions disagree")
		}
	}
}

func TestNumTrees(t *testing.T) {
	x, y := blobs(20, 2, 4, 9)
	cfg := DefaultConfig()
	cfg.Trees = 7
	f, _ := Train(x, y, 2, cfg)
	if f.NumTrees() != 7 {
		t.Fatalf("trees = %d", f.NumTrees())
	}
}

// BenchmarkRFTrainPredict measures the classifier on nprint-sized
// feature rows: a 20-tree forest trained and evaluated on 60 flows'
// first 8 packets.
func BenchmarkRFTrainPredict(b *testing.B) {
	classes := []string{"netflix", "teams", "other"}
	ds, err := workload.Generate(workload.Config{
		Seed: 9, FlowsPerClass: 20, Only: classes, MaxPacketsPerFlow: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	const packets = 8
	x := make([][]float32, len(ds.Flows))
	y := make([]int, len(ds.Flows))
	for i, f := range ds.Flows {
		x[i] = make([]float32, packets*nprint.BitsPerPacket)
		for j, v := range nprint.FromFlow(f, packets).Data {
			x[i][j] = float32(v)
		}
		for c, name := range classes {
			if f.Label == name {
				y[i] = c
			}
		}
	}
	cfg := DefaultConfig()
	cfg.Trees = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest, err := Train(x, y, len(classes), cfg)
		if err != nil {
			b.Fatal(err)
		}
		forest.PredictBatch(x)
	}
}
