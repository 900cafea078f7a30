// Package packet implements decoding and serialization of the packet
// layers the nprint representation covers: Ethernet, IPv4, TCP, UDP,
// and ICMPv4.
//
// The design follows the gopacket idioms: each layer type implements
// DecodeFromBytes to parse itself out of a byte slice, a Builder writes
// a layer stack's wire form into one frame, and a Packet bundles the
// decoded layer stack with capture metadata. Unlike gopacket, the layer set is
// closed (exactly the protocols nprint encodes), which lets decoding be
// allocation-light and the bit-level round trip be total.
package packet

import (
	"errors"
	"fmt"
	"time"
)

// IPProtocol is the IPv4 protocol number of the transport layer.
type IPProtocol uint8

// Transport protocol numbers used by the nprint representation.
const (
	ProtoICMP IPProtocol = 1
	ProtoTCP  IPProtocol = 6
	ProtoUDP  IPProtocol = 17
)

// String returns the conventional protocol name.
func (p IPProtocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProtocol(%d)", uint8(p))
	}
}

// EtherType identifies the network-layer protocol in an Ethernet frame.
type EtherType uint16

// EtherTypeIPv4 is the only ethertype the pipeline generates.
const EtherTypeIPv4 EtherType = 0x0800

// Decoding errors. Errors wrap ErrTruncated or ErrMalformed so callers
// can classify failures with errors.Is.
var (
	// ErrTruncated reports that the input ended before the layer's
	// fixed header or declared length.
	ErrTruncated = errors.New("packet: truncated input")
	// ErrMalformed reports that a header field holds an impossible
	// value (e.g. IPv4 IHL < 5).
	ErrMalformed = errors.New("packet: malformed header")
)

// Packet is a decoded packet: the raw bytes plus the parsed layer
// stack. Layers not present in the packet are nil.
type Packet struct {
	// Timestamp is the capture or synthesis time.
	Timestamp time.Time
	// Data is the full frame as captured.
	Data []byte

	Eth  *Ethernet
	IPv4 *IPv4
	TCP  *TCP
	UDP  *UDP
	ICMP *ICMPv4

	// Payload is the application payload after the deepest decoded
	// header, if any.
	Payload []byte

	// TruncatedAt names the layer at which decoding stopped due to an
	// error, or is empty if the whole packet decoded.
	TruncatedAt string
}

// TransportProtocol returns the transport protocol of the packet, or 0
// if it has no IPv4 layer.
func (p *Packet) TransportProtocol() IPProtocol {
	if p.IPv4 == nil {
		return 0
	}
	return p.IPv4.Protocol
}

// Length returns the captured frame length in bytes.
func (p *Packet) Length() int { return len(p.Data) }

// Decode parses an Ethernet frame into a Packet. Decoding is
// best-effort past the first error: the layers parsed so far are
// retained and TruncatedAt names the failing layer, mirroring
// gopacket's ErrorLayer behaviour so that partially corrupt captures
// remain usable.
func Decode(data []byte, ts time.Time) (*Packet, error) {
	p := &Packet{Timestamp: ts, Data: data}

	var eth Ethernet
	if err := eth.DecodeFromBytes(data); err != nil {
		p.TruncatedAt = "ethernet"
		return p, fmt.Errorf("ethernet: %w", err)
	}
	p.Eth = &eth
	if eth.EtherType != EtherTypeIPv4 {
		p.Payload = eth.PayloadBytes
		return p, nil
	}

	var ip IPv4
	if err := ip.DecodeFromBytes(eth.PayloadBytes); err != nil {
		p.TruncatedAt = "ipv4"
		return p, fmt.Errorf("ipv4: %w", err)
	}
	p.IPv4 = &ip

	switch ip.Protocol {
	case ProtoTCP:
		var tcp TCP
		if err := tcp.DecodeFromBytes(ip.PayloadBytes); err != nil {
			p.TruncatedAt = "tcp"
			return p, fmt.Errorf("tcp: %w", err)
		}
		p.TCP = &tcp
		p.Payload = tcp.PayloadBytes
	case ProtoUDP:
		var udp UDP
		if err := udp.DecodeFromBytes(ip.PayloadBytes); err != nil {
			p.TruncatedAt = "udp"
			return p, fmt.Errorf("udp: %w", err)
		}
		p.UDP = &udp
		p.Payload = udp.PayloadBytes
	case ProtoICMP:
		var icmp ICMPv4
		if err := icmp.DecodeFromBytes(ip.PayloadBytes); err != nil {
			p.TruncatedAt = "icmp"
			return p, fmt.Errorf("icmp: %w", err)
		}
		p.ICMP = &icmp
		p.Payload = icmp.PayloadBytes
	default:
		p.Payload = ip.PayloadBytes
	}
	return p, nil
}
