// Package nprint implements the bit-level packet representation the
// paper trains on: each packet becomes a fixed 1088-bit vector covering
// all IPv4, TCP, UDP and ICMP header fields, with each bit encoded as
// 1 or 0 for present content and -1 for vacant positions (headers or
// options the packet does not carry). A flow becomes a matrix with one
// row per packet (up to 1024 rows), which the imagerep package renders
// as the image the diffusion model consumes.
//
// Section layout (matching the paper's Figure 2 column counts):
//
//	[0,    480)  IPv4  — 60 bytes: full option-capable header
//	[480,  960)  TCP   — 60 bytes: full option-capable header
//	[960, 1024)  UDP   — 8 bytes
//	[1024,1088)  ICMP  — 8 bytes
package nprint

import (
	"errors"
	"fmt"
)

// Section bit offsets and widths.
const (
	IPv4Offset = 0
	IPv4Bits   = 480
	TCPOffset  = IPv4Offset + IPv4Bits
	TCPBits    = 480
	UDPOffset  = TCPOffset + TCPBits
	UDPBits    = 64
	ICMPOffset = UDPOffset + UDPBits
	ICMPBits   = 64

	// BitsPerPacket is the row width: 1088 bit-level features.
	BitsPerPacket = IPv4Bits + TCPBits + UDPBits + ICMPBits

	// MaxPacketsPerFlow caps the rows per flow image (paper §3.1:
	// "up to 1024 packets").
	MaxPacketsPerFlow = 1024
)

// Bit values. Vacant marks header regions the packet does not carry.
const (
	Vacant int8 = -1
	Zero   int8 = 0
	One    int8 = 1
)

// ErrBadShape reports a matrix whose row width is not BitsPerPacket.
var ErrBadShape = errors.New("nprint: matrix width is not 1088 bits")

// Matrix is a flow's nprint representation: NumRows packets by
// BitsPerPacket bit-features, stored flat row-major.
type Matrix struct {
	NumRows int
	Data    []int8
}

// NewMatrix allocates an all-vacant matrix with rows packets.
func NewMatrix(rows int) *Matrix {
	m := &Matrix{NumRows: rows, Data: make([]int8, rows*BitsPerPacket)}
	for i := range m.Data {
		m.Data[i] = Vacant
	}
	return m
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []int8 {
	return m.Data[i*BitsPerPacket : (i+1)*BitsPerPacket]
}

// Validate checks the storage shape.
func (m *Matrix) Validate() error {
	if len(m.Data) != m.NumRows*BitsPerPacket {
		return fmt.Errorf("%w: %d rows but %d cells", ErrBadShape, m.NumRows, len(m.Data))
	}
	for i, v := range m.Data {
		if v != Vacant && v != Zero && v != One {
			return fmt.Errorf("nprint: cell %d holds %d, want -1/0/1", i, v)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{NumRows: m.NumRows, Data: append([]int8(nil), m.Data...)}
}

// SectionVacant reports whether row's [off, off+bits) span is entirely
// vacant.
func SectionVacant(row []int8, off, bits int) bool {
	for _, v := range row[off : off+bits] {
		if v != Vacant {
			return false
		}
	}
	return true
}

// SectionActive reports whether any bit in the span is 1.
func SectionActive(row []int8, off, bits int) bool {
	for _, v := range row[off : off+bits] {
		if v == One {
			return true
		}
	}
	return false
}

// writeBits encodes data MSB-first into row starting at bit offset off.
func writeBits(row []int8, off int, data []byte) {
	for i, b := range data {
		base := off + i*8
		for j := 0; j < 8; j++ {
			if b&(1<<(7-j)) != 0 {
				row[base+j] = One
			} else {
				row[base+j] = Zero
			}
		}
	}
}

// readBits decodes len(out) bytes MSB-first from row at bit offset off,
// mapping Vacant bits to 0.
func readBits(out []byte, row []int8, off int) {
	for i := range out {
		base := off + i*8
		var b byte
		for j := 0; j < 8; j++ {
			if row[base+j] == One {
				b |= 1 << (7 - j)
			}
		}
		out[i] = b
	}
}
