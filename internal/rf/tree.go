// Package rf implements the Random Forest classifier the paper's
// service-recognition case study uses: bagged CART decision trees with
// Gini impurity and per-split feature subsampling, plus the accuracy
// and confusion-matrix metrics Table 2 reports.
package rf

import (
	"sort"

	"trafficdiff/internal/stats"
)

// treeNode is one node of a CART tree, stored in a flat slice.
type treeNode struct {
	// feature < 0 marks a leaf with prediction class `pred`.
	feature   int
	threshold float32
	left      int32
	right     int32
	pred      int32
}

// Tree is a single CART decision tree.
type Tree struct {
	nodes []treeNode
	k     int // class count
}

// treeConfig bounds tree growth.
type treeConfig struct {
	maxDepth        int
	minSamplesSplit int
	mtry            int // features considered per split
	thresholds      int // candidate thresholds per feature
}

// growTree fits a tree on the rows indexed by idx.
func growTree(x [][]float32, y []int, idx []int, k int, cfg treeConfig, r *stats.RNG) *Tree {
	t := &Tree{k: k}
	t.build(x, y, idx, 0, cfg, r)
	return t
}

func (t *Tree) build(x [][]float32, y []int, idx []int, depth int, cfg treeConfig, r *stats.RNG) int32 {
	counts := make([]int, t.k)
	for _, i := range idx {
		counts[y[i]]++
	}
	best, bestN, pure := 0, -1, true
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
		if n != 0 && n != len(idx) {
			pure = false
		}
	}
	leaf := func() int32 {
		t.nodes = append(t.nodes, treeNode{feature: -1, pred: int32(best)})
		return int32(len(t.nodes) - 1)
	}
	if pure || len(idx) < cfg.minSamplesSplit || depth >= cfg.maxDepth {
		return leaf()
	}

	feat, thr, ok := t.bestSplit(x, y, idx, counts, cfg, r)
	if !ok {
		return leaf()
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return leaf()
	}
	// Reserve this node's slot before recursing so children land after
	// the parent.
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: feat, threshold: thr})
	l := t.build(x, y, li, depth+1, cfg, r)
	rr := t.build(x, y, ri, depth+1, cfg, r)
	t.nodes[node].left = l
	t.nodes[node].right = rr
	return node
}

// bestSplit searches mtry random features for the Gini-optimal
// threshold.
func (t *Tree) bestSplit(x [][]float32, y []int, idx []int, parentCounts []int, cfg treeConfig, r *stats.RNG) (feat int, thr float32, ok bool) {
	nf := len(x[0])
	parentGini := gini(parentCounts, len(idx))
	bestGain := 1e-7
	leftCounts := make([]int, t.k)

	for trial := 0; trial < cfg.mtry; trial++ {
		f := r.Intn(nf)
		// Candidate thresholds: midpoints between up to cfg.thresholds
		// sampled distinct values.
		cands := t.candidates(x, idx, f, cfg.thresholds, r)
		for _, c := range cands {
			for i := range leftCounts {
				leftCounts[i] = 0
			}
			nl := 0
			for _, i := range idx {
				if x[i][f] <= c {
					leftCounts[y[i]]++
					nl++
				}
			}
			nr := len(idx) - nl
			if nl == 0 || nr == 0 {
				continue
			}
			gl := gini(leftCounts, nl)
			grCounts := make([]int, t.k)
			for i := range grCounts {
				grCounts[i] = parentCounts[i] - leftCounts[i]
			}
			gr := gini(grCounts, nr)
			gain := parentGini - (float64(float64(nl)*gl)+float64(float64(nr)*gr))/float64(len(idx))
			if gain > bestGain {
				bestGain, feat, thr, ok = gain, f, c, true
			}
		}
	}
	return feat, thr, ok
}

// candidates returns up to limit midpoint thresholds for feature f
// over the node's samples.
func (t *Tree) candidates(x [][]float32, idx []int, f, limit int, r *stats.RNG) []float32 {
	seen := map[float32]bool{}
	vals := make([]float64, 0, limit+1)
	// Sample up to 4*limit rows looking for distinct values.
	for trial := 0; trial < 4*limit && len(vals) <= limit; trial++ {
		v := x[idx[r.Intn(len(idx))]][f]
		if !seen[v] {
			seen[v] = true
			vals = append(vals, float64(v))
		}
	}
	if len(vals) < 2 {
		return nil
	}
	sort.Float64s(vals)
	out := make([]float32, 0, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		out = append(out, float32((vals[i-1]+vals[i])/2))
	}
	return out
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= float64(p * p)
	}
	return g
}

// Predict returns the class for one feature vector.
func (t *Tree) Predict(row []float32) int {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return int(n.pred)
		}
		if row[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Depth returns the tree's maximum depth (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}
