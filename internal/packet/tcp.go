package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCPFlags is the 8-bit TCP flags field (plus the reserved bits nprint
// tracks individually).
type TCPFlags uint16

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << 0
	FlagSYN TCPFlags = 1 << 1
	FlagRST TCPFlags = 1 << 2
	FlagPSH TCPFlags = 1 << 3
	FlagACK TCPFlags = 1 << 4
	FlagURG TCPFlags = 1 << 5
	FlagECE TCPFlags = 1 << 6
	FlagCWR TCPFlags = 1 << 7
	FlagNS  TCPFlags = 1 << 8
)

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"}, {FlagNS, "NS"},
	}
	var set []string
	for _, n := range names {
		if f&n.bit != 0 {
			set = append(set, n.name)
		}
	}
	if len(set) == 0 {
		return "none"
	}
	return strings.Join(set, "|")
}

// TCP is a TCP segment header. Options are raw bytes; nprint encodes
// the full 60-byte option-capable header (480 bits).
type TCP struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words
	Flags      TCPFlags
	Window     uint16
	Checksum   uint16
	Urgent     uint16
	Options    []byte

	// PayloadBytes is the segment payload, set by DecodeFromBytes.
	PayloadBytes []byte
}

// HeaderLen returns the header length in bytes implied by DataOffset.
func (t *TCP) HeaderLen() int { return int(t.DataOffset) * 4 }

// DecodeFromBytes parses a TCP header from data.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("%w: %d bytes for tcp header", ErrTruncated, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	if t.DataOffset < 5 {
		return fmt.Errorf("%w: tcp data offset %d < 5", ErrMalformed, t.DataOffset)
	}
	hlen := int(t.DataOffset) * 4
	if len(data) < hlen {
		return fmt.Errorf("%w: data offset %d needs %d bytes, have %d", ErrTruncated, t.DataOffset, hlen, len(data))
	}
	t.Flags = TCPFlags(binary.BigEndian.Uint16(data[12:14]) & 0x01ff)
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	if hlen > 20 {
		t.Options = data[20:hlen]
	} else {
		t.Options = nil
	}
	t.PayloadBytes = data[hlen:]
	return nil
}
