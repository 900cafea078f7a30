package packet

import (
	"encoding/binary"
	"fmt"
)

// MACAddr is a 48-bit Ethernet hardware address.
type MACAddr [6]byte

// String formats the address in colon-hex notation.
func (m MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EthernetHeaderLen is the length of an untagged Ethernet II header.
const EthernetHeaderLen = 14

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	DstMAC    MACAddr
	SrcMAC    MACAddr
	EtherType EtherType

	// PayloadBytes is the frame payload, set by DecodeFromBytes.
	PayloadBytes []byte
}

// DecodeFromBytes parses an Ethernet II header from data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: %d bytes for ethernet header", ErrTruncated, len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.PayloadBytes = data[EthernetHeaderLen:]
	return nil
}
