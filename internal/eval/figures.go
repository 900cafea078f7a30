package eval

import (
	"bytes"
	"fmt"

	"trafficdiff/internal/imagerep"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/stats"
)

// Fig1Result holds per-class proportions for the three sources.
type Fig1Result struct {
	Classes []string
	// Proportions in [0,1], aligned with Classes.
	Real, GAN, Ours []float64
	// Imbalance ratios (max/min proportion) — the scalar the figure
	// visualizes: the GAN amplifies real imbalance, ours flattens it.
	ImbalanceReal, ImbalanceGAN, ImbalanceOurs float64
}

// RunFig1 reproduces Figure 1: the class distribution of real data,
// GAN-generated data, and our balanced diffusion generation. The real
// dataset is imbalanced, Table 1's counts times scale; each generator
// draws Synth flows per class of Classes.
func RunFig1(c Config, scale float64) (*Fig1Result, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("eval: fig1 scale %v is not positive", scale)
	}
	seed := c.Seed + fig1Seed
	ds, err := c.generate(seed, 0, scale)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Classes: c.Classes}
	realCounts := ds.CountVector()
	res.Real = stats.Normalize(realCounts)
	res.ImbalanceReal = stats.ImbalanceRatio(realCounts)

	// GAN: label generated as a feature — measure the label histogram.
	micro := MicroSpace(c.Classes)
	model, err := c.trainGAN(ds.Flows, micro, seed+1)
	if err != nil {
		return nil, err
	}
	_, genLabels := model.Generate(c.Synth*micro.K(), seed+2)
	ganCounts := make([]float64, micro.K())
	for _, l := range genLabels {
		ganCounts[l]++
	}
	res.GAN = stats.Normalize(ganCounts)
	res.ImbalanceGAN = stats.ImbalanceRatio(ganCounts)

	// Ours: invoke generation equally per class.
	synth, _, err := c.fineTune(ds)
	if err != nil {
		return nil, err
	}
	ours, err := synth.GenerateBalanced(c.Synth)
	if err != nil {
		return nil, err
	}
	oursCounts := make([]float64, micro.K())
	for _, f := range ours {
		id, err := micro.LabelOf(f)
		if err != nil {
			return nil, err
		}
		oursCounts[id]++
	}
	res.Ours = stats.Normalize(oursCounts)
	res.ImbalanceOurs = stats.ImbalanceRatio(oursCounts)
	return res, nil
}

// Fig2Result carries the rendered image and the compliance audit.
type Fig2Result struct {
	Class string
	// PNG is the color-processed synthetic flow image (rows = packets,
	// 1088 bit columns; red=1, green=0, grey=-1).
	PNG []byte
	// Rows is the packet count of the rendered flow.
	Rows int
	// RawProtocolCompliance is measured before constraint projection;
	// PostProtocolCompliance after (always 1 when ControlNet is on).
	RawProtocolCompliance  float64
	PostProtocolCompliance float64
	// SectionActive reports, per header section, the fraction of rows
	// with any populated bits — the Figure 2 visual: TCP and IPv4 full,
	// UDP and ICMP vacant (for Amazon).
	SectionActive map[string]float64
}

// RunFig2 fine-tunes on Train real flows of its one class and renders
// a synthetic flow.
func RunFig2(c Config) (*Fig2Result, error) {
	if err := c.validate(true); err != nil {
		return nil, err
	}
	class := c.Classes[0]
	ds, err := c.generate(c.Seed+fig2Seed, c.Train, 0)
	if err != nil {
		return nil, err
	}
	synth, _, err := c.fineTune(ds)
	if err != nil {
		return nil, err
	}
	res, err := synth.Generate(class, 1)
	if err != nil {
		return nil, err
	}
	m := res.Matrices[0]
	tpl, err := synth.Template(class)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{
		Class:                  class,
		Rows:                   m.NumRows,
		RawProtocolCompliance:  res.RawCompliance,
		PostProtocolCompliance: tpl.ProtocolCompliance(m),
		SectionActive:          sectionActivity(m),
	}
	var buf bytes.Buffer
	if err := imagerep.RenderPNG(&buf, imagerep.FromMatrix(m)); err != nil {
		return nil, err
	}
	out.PNG = buf.Bytes()
	return out, nil
}

// sectionActivity computes the per-section populated-row fractions.
func sectionActivity(m *nprint.Matrix) map[string]float64 {
	sections := map[string][2]int{
		"ipv4": {nprint.IPv4Offset, nprint.IPv4Bits},
		"tcp":  {nprint.TCPOffset, nprint.TCPBits},
		"udp":  {nprint.UDPOffset, nprint.UDPBits},
		"icmp": {nprint.ICMPOffset, nprint.ICMPBits},
	}
	out := map[string]float64{}
	for name, span := range sections {
		active := 0
		for r := 0; r < m.NumRows; r++ {
			if !nprint.SectionVacant(m.Row(r), span[0], span[1]) {
				active++
			}
		}
		if m.NumRows > 0 {
			out[name] = float64(active) / float64(m.NumRows)
		}
	}
	return out
}
