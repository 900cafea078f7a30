package packet

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDP is a UDP datagram header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16

	// PayloadBytes is the datagram payload, set by DecodeFromBytes,
	// bounded by the Length field when it is credible.
	PayloadBytes []byte
}

// DecodeFromBytes parses a UDP header from data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: %d bytes for udp header", ErrTruncated, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := len(data)
	if total := int(u.Length); total >= UDPHeaderLen && total <= len(data) {
		end = total
	}
	u.PayloadBytes = data[UDPHeaderLen:end]
	return nil
}
