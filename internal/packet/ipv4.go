package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPv4Flag holds the three-bit flags field of an IPv4 header.
type IPv4Flag uint8

// IPv4 header flags.
const (
	IPv4MoreFragments IPv4Flag = 1 << 0
	IPv4DontFragment  IPv4Flag = 1 << 1
	IPv4EvilBit       IPv4Flag = 1 << 2
)

// IPv4 is an IPv4 header. Options are kept as raw bytes; nprint
// encodes the full 60-byte option-capable header (480 bits) so options
// must round-trip.
type IPv4 struct {
	Version    uint8 // always 4 on serialize
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length including header
	ID         uint16
	Flags      IPv4Flag
	FragOffset uint16 // 13 bits, in 8-byte units
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	SrcIP      [4]byte
	DstIP      [4]byte
	Options    []byte

	// PayloadBytes is the IP payload, set by DecodeFromBytes, bounded
	// by the header's Length field when it is credible.
	PayloadBytes []byte
}

// Src returns the source address as a netip.Addr.
func (ip *IPv4) Src() netip.Addr { return netip.AddrFrom4(ip.SrcIP) }

// Dst returns the destination address as a netip.Addr.
func (ip *IPv4) Dst() netip.Addr { return netip.AddrFrom4(ip.DstIP) }

// HeaderLen returns the header length in bytes implied by IHL.
func (ip *IPv4) HeaderLen() int { return int(ip.IHL) * 4 }

// DecodeFromBytes parses an IPv4 header from data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("%w: %d bytes for ipv4 header", ErrTruncated, len(data))
	}
	ip.Version = data[0] >> 4
	ip.IHL = data[0] & 0x0f
	if ip.Version != 4 {
		return fmt.Errorf("%w: ip version %d", ErrMalformed, ip.Version)
	}
	if ip.IHL < 5 {
		return fmt.Errorf("%w: ihl %d < 5", ErrMalformed, ip.IHL)
	}
	hlen := int(ip.IHL) * 4
	if len(data) < hlen {
		return fmt.Errorf("%w: ihl %d needs %d bytes, have %d", ErrTruncated, ip.IHL, hlen, len(data))
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	flagsFrag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = IPv4Flag(flagsFrag >> 13)
	ip.FragOffset = flagsFrag & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	if hlen > 20 {
		ip.Options = data[20:hlen]
	} else {
		ip.Options = nil
	}
	end := len(data)
	if total := int(ip.Length); total >= hlen && total <= len(data) {
		end = total
	}
	ip.PayloadBytes = data[hlen:end]
	return nil
}

// VerifyChecksum reports whether the checksum in a decoded header is
// consistent with the header bytes.
func (ip *IPv4) VerifyChecksum(headerBytes []byte) bool {
	return Checksum(headerBytes) == 0
}
