// Package eval is the experiment harness: it reproduces every table
// and figure in the paper's evaluation (Table 1, Table 2, Figure 1,
// Figure 2), the inline §2.3 measurements and the design-choice sweep,
// wiring the workload, core, gan, rf, nprint and netflow packages
// together and formatting the results the way the paper reports them.
package eval

import (
	"trafficdiff/internal/flow"
	"trafficdiff/internal/netflow"
	"trafficdiff/internal/nprint"
)

// FeatureGranularity selects the representation under test (the
// paper's central comparison: raw packet bits vs NetFlow aggregates).
type FeatureGranularity int

// Granularities.
const (
	// GranularityNprint uses raw bit-level packet features ("nprint-
	// formatted pcap").
	GranularityNprint FeatureGranularity = iota
	// GranularityNetFlow uses the ten aggregate NetFlow-like fields.
	GranularityNetFlow
)

// String names the granularity as the paper's Table 2 does.
func (g FeatureGranularity) String() string {
	if g == GranularityNprint {
		return "nprint-formatted pcap"
	}
	return "NetFlow"
}

// maskedColumns marks the nprint bit columns excluded from
// classification features — the dataset-overfitting fields the paper's
// footnote 1 removes: IP addresses and port numbers. (Flow start times
// never enter the nprint representation.)
var maskedColumns = buildMask()

func buildMask() []bool {
	mask := make([]bool, nprint.BitsPerPacket)
	span := func(off, bits int) {
		for c := off; c < off+bits; c++ {
			mask[c] = true
		}
	}
	span(nprint.IPv4Offset+96, 64) // src + dst IP (bytes 12..20)
	span(nprint.TCPOffset, 32)     // TCP src + dst port
	span(nprint.UDPOffset, 32)     // UDP src + dst port
	return mask
}

// NprintFeatures renders a flow's first `packets` packets as a flat
// masked feature vector of packets*1088 values in {-1,0,1}.
func NprintFeatures(f *flow.Flow, packets int) []float32 {
	m := nprint.FromFlow(f, packets)
	// Unfilled rows (flow shorter than `packets`) read 0, as make left
	// them — a neutral value distinct from header bits of present
	// packets only via the vacancy pattern, which is itself informative.
	out := make([]float32, packets*nprint.BitsPerPacket)
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		base := r * nprint.BitsPerPacket
		for c, v := range row {
			if maskedColumns[c] {
				continue
			}
			out[base+c] = float32(v)
		}
	}
	return out
}

// NetFlowFeatures renders a flow's NetFlow-like aggregate features.
func NetFlowFeatures(f *flow.Flow) []float32 {
	v := netflow.FromFlow(f).FeatureVector()
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// FeatureMatrix extracts features for a flow batch at the requested
// granularity.
func FeatureMatrix(flows []*flow.Flow, g FeatureGranularity, packets int) [][]float32 {
	out := make([][]float32, len(flows))
	for i, f := range flows {
		if g == GranularityNprint {
			out[i] = NprintFeatures(f, packets)
		} else {
			out[i] = NetFlowFeatures(f)
		}
	}
	return out
}

// NetFlowVectorsToFeatures adapts GAN-generated float64 NetFlow rows
// to the classifier's float32 rows.
func NetFlowVectorsToFeatures(rows [][]float64) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		row := make([]float32, len(r))
		for j, v := range r {
			row[j] = float32(v)
		}
		out[i] = row
	}
	return out
}
