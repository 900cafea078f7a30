// Package controlnet supplies the controlling component of the
// pipeline (paper §3.1): it derives a per-class protocol template from
// a one-shot real example, feeds it to the denoiser as a conditioning
// image during sampling (through the models' zero-initialized control
// projections — the ControlNet mechanism), and enforces the template's
// hard structural constraints on quantized samples ("the generation
// ensures all packets strictly conform to the dominant protocol
// type").
package controlnet

import (
	"errors"
	"fmt"

	"trafficdiff/internal/imagerep"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/tensor"
)

// ColState classifies one nprint bit column across the example flow.
type ColState uint8

// Column states.
const (
	// ColFree columns vary across packets: generation is unconstrained.
	ColFree ColState = iota
	// ColVacant columns are vacant in every example packet (headers
	// the class's protocol does not carry).
	ColVacant
	// ColContent columns hold a bit (0/1) in every example packet.
	ColContent
)

// ErrEmptyExample reports a template built from a zero-row matrix.
var ErrEmptyExample = errors.New("controlnet: example flow has no packets")

// Template captures the structural constraints of one traffic class.
type Template struct {
	State []ColState // per bit column
	// Fill is the majority bit per content column, used to repair
	// cells the sampler left vacant.
	Fill []int8
	// Constant marks content columns whose bit value is identical in
	// every example packet — the class-invariant structure (protocol
	// constants, TTL, TOS, option layout) the one-shot control can
	// enforce outright.
	Constant []bool
	// Proto is the example's dominant transport protocol.
	Proto packet.IPProtocol
}

// FromExample derives a template from a one-shot example flow in
// nprint form.
func FromExample(m *nprint.Matrix) (*Template, error) {
	if m.NumRows == 0 {
		return nil, ErrEmptyExample
	}
	t := &Template{
		State:    make([]ColState, nprint.BitsPerPacket),
		Fill:     make([]int8, nprint.BitsPerPacket),
		Constant: make([]bool, nprint.BitsPerPacket),
	}
	for c := 0; c < nprint.BitsPerPacket; c++ {
		vacant, ones, zeros := 0, 0, 0
		for r := 0; r < m.NumRows; r++ {
			switch m.Row(r)[c] {
			case nprint.Vacant:
				vacant++
			case nprint.One:
				ones++
			default:
				zeros++
			}
		}
		switch {
		case vacant == m.NumRows:
			t.State[c] = ColVacant
			t.Fill[c] = nprint.Vacant
		case vacant == 0:
			t.State[c] = ColContent
			if ones >= zeros {
				t.Fill[c] = nprint.One
			} else {
				t.Fill[c] = nprint.Zero
			}
			t.Constant[c] = ones == m.NumRows || zeros == m.NumRows
		default:
			t.State[c] = ColFree
			t.Fill[c] = nprint.Zero
		}
	}
	t.Proto = dominantProto(t.State)
	return t, nil
}

// dominantProto infers the protocol from which transport section has
// content columns.
func dominantProto(state []ColState) packet.IPProtocol {
	active := func(off, bits int) bool {
		for c := off; c < off+bits; c++ {
			if state[c] != ColVacant {
				return true
			}
		}
		return false
	}
	switch {
	case active(nprint.TCPOffset, nprint.TCPBits):
		return packet.ProtoTCP
	case active(nprint.UDPOffset, nprint.UDPBits):
		return packet.ProtoUDP
	case active(nprint.ICMPOffset, nprint.ICMPBits):
		return packet.ProtoICMP
	default:
		return 0
	}
}

// ControlImage renders the template as a full-resolution one-row
// conditioning pattern: +1 for content columns, -1 for vacant, 0 for
// free.
func (t *Template) ControlImage() *imagerep.Image {
	im := imagerep.NewImage(1, nprint.BitsPerPacket)
	for c, s := range t.State {
		switch s {
		case ColContent:
			im.Set(0, c, 1)
		case ColVacant:
			im.Set(0, c, -1)
		}
	}
	return im
}

// ControlTensor produces the conditioning image at the model's
// resolution: the one-row pattern replicated to h' rows and
// mean-pooled down by (fh, fw) to [1, h, w]. fh*h rows and fw*w
// columns must equal the nprint geometry used for training.
func (t *Template) ControlTensor(h, w, fh, fw int) (*tensor.Tensor, error) {
	if w*fw != nprint.BitsPerPacket {
		return nil, fmt.Errorf("controlnet: w*fw = %d, want %d", w*fw, nprint.BitsPerPacket)
	}
	full := imagerep.NewImage(h*fh, nprint.BitsPerPacket)
	one := t.ControlImage()
	for r := 0; r < full.H; r++ {
		for c := 0; c < full.W; c++ {
			full.Set(r, c, one.At(0, c))
		}
	}
	down, err := imagerep.Downscale(full, fh, fw)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(down.Pix, 1, h, w), nil
}

// Enforcement is what one Enforce call measured and changed.
type Enforcement struct {
	// RawProtocolCompliance and RawCellCompliance are ProtocolCompliance
	// and Compliance of the matrix as it arrived.
	RawProtocolCompliance, RawCellCompliance float64
	// Repaired counts the cells Project and ProjectConstants changed.
	Repaired int
}

// Enforce is the template's whole post-sampling step on a quantized
// matrix, in place: measure raw compliance, Project, and with
// pinConstants also ProjectConstants. Every rule is per row, so one
// pass over the rows equals the four calls made in that order.
func (t *Template) Enforce(m *nprint.Matrix, pinConstants bool) Enforcement {
	c := t.rowPass(m, true, pinConstants)
	return Enforcement{
		RawProtocolCompliance: c.protocolCompliance(),
		RawCellCompliance:     c.cellCompliance(),
		Repaired:              c.projected + c.pinned,
	}
}

// Project enforces the template on a quantized nprint matrix in place:
// vacant columns are vacated, content columns that sampled Vacant get
// the column's fill bit. It returns the number of cells changed — the
// "repair distance" diagnostics report.
func (t *Template) Project(m *nprint.Matrix) int { return t.rowPass(m, true, false).projected }

// ProjectConstants additionally pins the template's class-invariant
// (constant) content columns to their example bit value on every
// active (non-padding) row — the strong form of one-shot structural
// control. It returns the number of cells changed.
func (t *Template) ProjectConstants(m *nprint.Matrix) int { return t.rowPass(m, false, true).pinned }

// Compliance reports the fraction of constrained cells (vacant or
// content columns) that already satisfy the template, in [0,1]. A
// matrix that Project has run on is always fully compliant.
func (t *Template) Compliance(m *nprint.Matrix) float64 {
	return t.rowPass(m, false, false).cellCompliance()
}

// ProtocolCompliance reports the fraction of rows whose populated
// transport section matches the template's dominant protocol — the
// Figure 2 property ("all packets adhere to the TCP protocol type").
func (t *Template) ProtocolCompliance(m *nprint.Matrix) float64 {
	return t.rowPass(m, false, false).protocolCompliance()
}

// rowCounts is what rowPass saw: of rows, protoRows carry exactly the
// template's transport section; of constrained cells (vacant or content
// columns), held already satisfied the template; projected and pinned
// cells were rewritten.
type rowCounts struct {
	rows, protoRows, constrained, held, projected, pinned int
}

func (c rowCounts) protocolCompliance() float64 {
	if c.rows == 0 {
		return 1
	}
	return float64(c.protoRows) / float64(c.rows)
}

func (c rowCounts) cellCompliance() float64 {
	if c.constrained == 0 {
		return 1
	}
	return float64(c.held) / float64(c.constrained)
}

// rowPass is the one implementation of the template's rules. Per row,
// in this order: test the row as it arrived against the protocol and
// the column constraints; with project, vacate vacant columns and fill
// content columns that sampled Vacant; with pin, set constant columns to
// their example bit unless the row is (now) all vacant — a padding row.
//
//tracelint:hotpath
func (t *Template) rowPass(m *nprint.Matrix, project, pin bool) (c rowCounts) {
	var off, bits int // stay 0 for an unknown protocol: no row matches
	switch t.Proto {
	case packet.ProtoTCP:
		off, bits = nprint.TCPOffset, nprint.TCPBits
	case packet.ProtoUDP:
		off, bits = nprint.UDPOffset, nprint.UDPBits
	case packet.ProtoICMP:
		off, bits = nprint.ICMPOffset, nprint.ICMPBits
	}
	// The rules are per column and the same for every row, so the
	// columns are read once: constrained columns as runs of one state (a
	// header section, its options), constant columns as a list. Both
	// live on the stack.
	var runs [nprint.BitsPerPacket]struct {
		a, b   uint16
		vacant bool
	}
	var constCols [nprint.BitsPerPacket]uint16
	nRuns, nConst, constrained := 0, 0, 0
	for a, b := 0, 0; a < len(t.State); a = b {
		s := t.State[a]
		for b = a + 1; b < len(t.State) && t.State[b] == s; b++ {
		}
		if s != ColFree {
			runs[nRuns].a, runs[nRuns].b, runs[nRuns].vacant = uint16(a), uint16(b), s == ColVacant
			nRuns++
			constrained += b - a
		}
	}
	if pin {
		for col, isConst := range t.Constant {
			if isConst {
				constCols[nConst] = uint16(col)
				nConst++
			}
		}
	}

	var protoRows, broken, pinned int
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		if bits > 0 && !nprint.SectionVacant(row, off, bits) && othersVacant(row, off) {
			protoRows++
		}
		// A run is counted by a loop with no store in it and rewritten
		// only if that found something.
		for _, run := range runs[:nRuns] {
			cells, n := row[run.a:run.b], 0
			if run.vacant {
				for _, v := range cells {
					if v != nprint.Vacant {
						n++
					}
				}
				if n > 0 && project {
					copy(cells, vacantCells[:])
				}
			} else {
				for _, v := range cells {
					if v == nprint.Vacant {
						n++
					}
				}
				if n > 0 && project {
					fill := t.Fill[run.a:run.b]
					for i, v := range cells {
						if v == nprint.Vacant {
							cells[i] = fill[i]
						}
					}
				}
			}
			broken += n
		}
		if nConst == 0 || nprint.SectionVacant(row, 0, nprint.BitsPerPacket) {
			continue
		}
		for _, col := range constCols[:nConst] {
			if row[col] != t.Fill[col] {
				row[col] = t.Fill[col]
				pinned++
			}
		}
	}
	c.rows, c.protoRows = m.NumRows, protoRows
	c.constrained = constrained * m.NumRows
	c.held = c.constrained - broken
	if project {
		c.projected = broken
	}
	c.pinned = pinned
	return c
}

// vacantCells is a row's worth of Vacant, the source vacated runs are
// copied from.
var vacantCells = func() (v [nprint.BitsPerPacket]int8) {
	for i := range v {
		v[i] = nprint.Vacant
	}
	return v
}()

// othersVacant reports whether every transport section except the one
// at keepOff is vacant.
func othersVacant(row []int8, keepOff int) bool {
	return (keepOff == nprint.TCPOffset || nprint.SectionVacant(row, nprint.TCPOffset, nprint.TCPBits)) &&
		(keepOff == nprint.UDPOffset || nprint.SectionVacant(row, nprint.UDPOffset, nprint.UDPBits)) &&
		(keepOff == nprint.ICMPOffset || nprint.SectionVacant(row, nprint.ICMPOffset, nprint.ICMPBits))
}
