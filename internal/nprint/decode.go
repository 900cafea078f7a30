package nprint

import (
	"fmt"
	"time"

	"trafficdiff/internal/packet"
)

// DecodeOptions controls back-transformation from nprint bits to
// packets.
type DecodeOptions struct {
	// Repair recomputes lengths and checksums and reconciles an
	// inconsistent IP protocol field with the transport section that
	// is actually populated. Generated matrices are rarely bit-perfect,
	// and the paper's pipeline "back-transforms" them into replayable
	// pcaps, so Repair is the mode synthesis uses. Without Repair,
	// inconsistencies are decoding errors.
	Repair bool
	// Interval spaces the reconstructed packets' timestamps. Zero
	// means 1ms.
	Interval time.Duration
	// Start is the first packet's timestamp.
	Start time.Time
}

// DecodeRow reconstructs a single packet from one nprint row.
func DecodeRow(row []int8, ts time.Time, opts DecodeOptions) (*packet.Packet, error) {
	if len(row) != BitsPerPacket {
		return nil, ErrBadShape
	}
	if SectionVacant(row, IPv4Offset, IPv4Bits) {
		return nil, fmt.Errorf("nprint: row has no IPv4 header bits")
	}

	// Header bytes are read into stack arrays: the builders copy what
	// they keep, so nothing below outlives the call.
	var ipBytes [60]byte
	readBits(ipBytes[:], row, IPv4Offset)
	var ip packet.IPv4
	ihl := ipBytes[0] & 0x0f
	if ihl < 5 || ihl > 15 {
		if !opts.Repair {
			return nil, fmt.Errorf("nprint: invalid IHL %d", ihl)
		}
		ihl = 5
	}
	ip.Version = 4
	ip.IHL = ihl
	ip.TOS = ipBytes[1]
	ip.Length = u16(ipBytes[2:])
	ip.ID = u16(ipBytes[4:])
	flagsFrag := u16(ipBytes[6:])
	ip.Flags = packet.IPv4Flag(flagsFrag >> 13)
	ip.FragOffset = flagsFrag & 0x1fff
	ip.TTL = ipBytes[8]
	ip.Protocol = packet.IPProtocol(ipBytes[9])
	ip.Checksum = u16(ipBytes[10:])
	copy(ip.SrcIP[:], ipBytes[12:16])
	copy(ip.DstIP[:], ipBytes[16:20])
	if ihl > 5 {
		ip.Options = ipBytes[20 : int(ihl)*4]
	}

	proto, err := resolveProtocol(row, ip.Protocol, opts.Repair)
	if err != nil {
		return nil, err
	}

	var b packet.Builder
	switch proto {
	case packet.ProtoTCP:
		var tb [60]byte
		readBits(tb[:], row, TCPOffset)
		var tcp packet.TCP
		tcp.SrcPort = u16(tb[0:])
		tcp.DstPort = u16(tb[2:])
		tcp.Seq = u32(tb[4:])
		tcp.Ack = u32(tb[8:])
		off := tb[12] >> 4
		if off < 5 || off > 15 {
			if !opts.Repair {
				return nil, fmt.Errorf("nprint: invalid TCP data offset %d", off)
			}
			off = 5
		}
		tcp.Flags = packet.TCPFlags(u16(tb[12:]) & 0x1ff)
		tcp.Window = u16(tb[14:])
		tcp.Urgent = u16(tb[18:])
		if off > 5 {
			tcp.Options = tb[20 : int(off)*4]
		}
		return b.BuildTCP(ts, ip, tcp, payloadFor(ip, int(off)*4, opts.Repair)), nil
	case packet.ProtoUDP:
		var ub [8]byte
		readBits(ub[:], row, UDPOffset)
		udp := packet.UDP{SrcPort: u16(ub[0:]), DstPort: u16(ub[2:])}
		return b.BuildUDP(ts, ip, udp, payloadFor(ip, 8, opts.Repair)), nil
	case packet.ProtoICMP:
		var ib [8]byte
		readBits(ib[:], row, ICMPOffset)
		icmp := packet.ICMPv4{Type: ib[0], Code: ib[1]}
		copy(icmp.RestOfHeader[:], ib[4:8])
		return b.BuildICMP(ts, ip, icmp, payloadFor(ip, 8, opts.Repair)), nil
	}
	return nil, fmt.Errorf("nprint: unsupported protocol %d", uint8(proto))
}

// resolveProtocol reconciles the IP header's protocol byte with the
// transport sections present in the row.
func resolveProtocol(row []int8, declared packet.IPProtocol, repair bool) (packet.IPProtocol, error) {
	tcpPresent := !SectionVacant(row, TCPOffset, TCPBits)
	udpPresent := !SectionVacant(row, UDPOffset, UDPBits)
	icmpPresent := !SectionVacant(row, ICMPOffset, ICMPBits)

	matches := func(p packet.IPProtocol) bool {
		switch p {
		case packet.ProtoTCP:
			return tcpPresent
		case packet.ProtoUDP:
			return udpPresent
		case packet.ProtoICMP:
			return icmpPresent
		}
		return false
	}
	if matches(declared) {
		return declared, nil
	}
	if !repair {
		return 0, fmt.Errorf("nprint: protocol byte %d disagrees with populated sections (tcp=%v udp=%v icmp=%v)",
			uint8(declared), tcpPresent, udpPresent, icmpPresent)
	}
	// Repair: trust the populated section; prefer the widest header so
	// a row with several populated sections stays deterministic.
	switch {
	case tcpPresent:
		return packet.ProtoTCP, nil
	case udpPresent:
		return packet.ProtoUDP, nil
	case icmpPresent:
		return packet.ProtoICMP, nil
	}
	return 0, fmt.Errorf("nprint: no transport section populated")
}

// payloadFor sizes a zero payload so the reconstructed packet's total
// length approximates the original IP Length field. nprint does not
// carry payload bytes, so content is zeros, but preserving sizes keeps
// packet-size distributions intact for replay. In repair mode the
// total is clamped to a standard 1500-byte Ethernet MTU: generated
// Length bits can decode to arbitrary values, and frames beyond the
// MTU would not be replayable on a real link. The payload is a view of
// zeroPayload, which the builders only copy from.
func payloadFor(ip packet.IPv4, transportHeaderLen int, repair bool) []byte {
	total := int(ip.Length)
	maxPayload := 65535
	if repair {
		mtuPayload := 1500 - ip.HeaderLen() - transportHeaderLen
		if mtuPayload < 0 {
			mtuPayload = 0
		}
		maxPayload = mtuPayload
	}
	want := total - ip.HeaderLen() - transportHeaderLen
	if want <= 0 {
		return nil
	}
	if want > maxPayload {
		want = maxPayload
	}
	return zeroPayload[:want]
}

// zeroPayload is the largest payload payloadFor sizes, all zeros; it is
// never written.
var zeroPayload [65535]byte

// ToPackets back-transforms a matrix into packets. Rows that fail to
// decode are skipped in Repair mode and counted in skipped; without
// Repair the first failure aborts.
func ToPackets(m *Matrix, opts DecodeOptions) (pkts []*packet.Packet, skipped int, err error) {
	interval := opts.Interval
	if interval <= 0 {
		interval = time.Millisecond
	}
	ts := opts.Start
	if ts.IsZero() {
		ts = time.Unix(0, 0).UTC()
	}
	for i := 0; i < m.NumRows; i++ {
		p, derr := DecodeRow(m.Row(i), ts.Add(time.Duration(i)*interval), opts)
		if derr != nil {
			if opts.Repair {
				skipped++
				continue
			}
			return pkts, skipped, fmt.Errorf("row %d: %w", i, derr)
		}
		pkts = append(pkts, p)
	}
	return pkts, skipped, nil
}

func u16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
