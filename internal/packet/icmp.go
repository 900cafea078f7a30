package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMPv4HeaderLen is the length of the fixed ICMPv4 header part nprint
// encodes (type, code, checksum, rest-of-header).
const ICMPv4HeaderLen = 8

// ICMPv4 message types used by the workload generator.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMPv4 is an ICMPv4 message header.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	// RestOfHeader holds the 4 type-specific bytes (identifier and
	// sequence for echo messages).
	RestOfHeader [4]byte

	// PayloadBytes is the message body, set by DecodeFromBytes.
	PayloadBytes []byte
}

// ID returns the echo identifier for echo messages.
func (i *ICMPv4) ID() uint16 { return binary.BigEndian.Uint16(i.RestOfHeader[0:2]) }

// Seq returns the echo sequence number for echo messages.
func (i *ICMPv4) Seq() uint16 { return binary.BigEndian.Uint16(i.RestOfHeader[2:4]) }

// SetEcho fills RestOfHeader with an echo identifier and sequence.
func (i *ICMPv4) SetEcho(id, seq uint16) {
	binary.BigEndian.PutUint16(i.RestOfHeader[0:2], id)
	binary.BigEndian.PutUint16(i.RestOfHeader[2:4], seq)
}

// DecodeFromBytes parses an ICMPv4 header from data.
func (i *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPv4HeaderLen {
		return fmt.Errorf("%w: %d bytes for icmp header", ErrTruncated, len(data))
	}
	i.Type = data[0]
	i.Code = data[1]
	i.Checksum = binary.BigEndian.Uint16(data[2:4])
	copy(i.RestOfHeader[:], data[4:8])
	i.PayloadBytes = data[ICMPv4HeaderLen:]
	return nil
}
