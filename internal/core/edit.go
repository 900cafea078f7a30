package core

import (
	"fmt"

	"trafficdiff/internal/diffusion"
	"trafficdiff/internal/flow"
	"trafficdiff/internal/nprint"
)

// The paper's §4 research agenda names downstream tasks for a traffic
// foundation model. Two are implemented on top of the trained
// synthesizer:
//
//   - Deblur restores missing/corrupted header sections of a flow
//     ("traffic deblurring");
//   - Translate re-renders a flow under a different class prompt
//     ("traffic-to-traffic translations", e.g. the paper's VPN
//     Netflix + YouTube -> VPN YouTube example).

// FieldMask names a bit-column span of the nprint row considered
// missing/corrupted.
type FieldMask struct {
	Off, Bits int
}

// Standard masks for whole header sections.
var (
	MaskIPv4 = FieldMask{Off: nprint.IPv4Offset, Bits: nprint.IPv4Bits}
	MaskTCP  = FieldMask{Off: nprint.TCPOffset, Bits: nprint.TCPBits}
	MaskUDP  = FieldMask{Off: nprint.UDPOffset, Bits: nprint.UDPBits}
	MaskICMP = FieldMask{Off: nprint.ICMPOffset, Bits: nprint.ICMPBits}
)

// Deblur restores the masked header regions of a flow using the
// trained diffusion model conditioned on the flow's class: the known
// bits anchor the reverse process, the missing region is generated,
// and the class's protocol template is projected before
// back-transforming to packets.
func (s *Synthesizer) Deblur(f *flow.Flow, class string, missing []FieldMask) (*GenerateResult, error) {
	ci, err := s.lookupClass(class)
	if err != nil {
		return nil, err
	}
	if len(missing) == 0 {
		return nil, fmt.Errorf("core: no fields masked")
	}
	for _, m := range missing {
		if m.Off < 0 || m.Bits <= 0 || m.Off+m.Bits > nprint.BitsPerPacket {
			return nil, fmt.Errorf("core: mask [%d,%d) out of row bounds", m.Off, m.Off+m.Bits)
		}
	}
	known, err := s.EncodeFlow(f)
	if err != nil {
		return nil, err
	}
	seed := s.nextRoot()
	img, err := diffusion.Inpaint(s.adapted, s.sched, diffusion.InpaintConfig{
		Known: known,
		Mask:  s.pixelMask(missing),
		Class: ci, GuidanceScale: s.cfg.GuidanceScale,
		Control: s.control(ci, s.cfg),
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	return s.postprocess(ci, class, s.cfg, img.Data, []uint64{seed})
}

// pixelMask maps full-resolution column masks to the model's
// downscaled pixel grid: a pixel is "known" unless any of its covered
// columns is masked missing.
func (s *Synthesizer) pixelMask(missing []FieldMask) []bool {
	h, w := s.ModelShape()
	missingCol := make([]bool, nprint.BitsPerPacket)
	for _, m := range missing {
		for c := m.Off; c < m.Off+m.Bits; c++ {
			missingCol[c] = true
		}
	}
	mask := make([]bool, h*w)
	for px := 0; px < w; px++ {
		known := true
		for c := px * s.cfg.DownW; c < (px+1)*s.cfg.DownW; c++ {
			if missingCol[c] {
				known = false
				break
			}
		}
		for row := 0; row < h; row++ {
			mask[row*w+px] = known
		}
	}
	return mask
}

// Translate re-renders a source flow under the target class's prompt
// with the given strength in (0,1] (the fraction of the noise schedule
// applied — higher discards more of the source's structure).
func (s *Synthesizer) Translate(f *flow.Flow, targetClass string, strength float64) (*GenerateResult, error) {
	ci, err := s.lookupClass(targetClass)
	if err != nil {
		return nil, err
	}
	src, err := s.EncodeFlow(f)
	if err != nil {
		return nil, err
	}
	seed := s.nextRoot()
	img, err := diffusion.Translate(s.adapted, s.sched, diffusion.TranslateConfig{
		Source:      src,
		TargetClass: ci, Strength: strength,
		GuidanceScale: s.cfg.GuidanceScale,
		Control:       s.control(ci, s.cfg),
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	return s.postprocess(ci, targetClass, s.cfg, img.Data, []uint64{seed})
}
