package packet

import (
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

// legacyFrame is the builder as it was before it wrote in place: each
// layer appended to a fresh slice, then copied into the next. It is the
// byte oracle for TestBuildMatchesLegacyBytes.
func legacyFrame(eth Ethernet, ip IPv4, proto IPProtocol, l4 []byte, payload []byte) []byte {
	pad := func(opts []byte) []byte {
		if len(opts)%4 == 0 {
			return opts
		}
		p := make([]byte, (len(opts)+3)/4*4)
		copy(p, opts)
		return p
	}
	seg := append(append([]byte(nil), l4...), payload...)
	switch proto {
	case ProtoTCP:
		binary.BigEndian.PutUint16(seg[16:], PseudoHeaderChecksum(ip.SrcIP, ip.DstIP, ProtoTCP, seg))
	case ProtoUDP:
		binary.BigEndian.PutUint16(seg[4:], uint16(len(seg)))
		sum := PseudoHeaderChecksum(ip.SrcIP, ip.DstIP, ProtoUDP, seg)
		if sum == 0 {
			sum = 0xffff
		}
		binary.BigEndian.PutUint16(seg[6:], sum)
	case ProtoICMP:
		binary.BigEndian.PutUint16(seg[2:], Checksum(seg))
	}
	opts := pad(ip.Options)
	hlen := 20 + len(opts)
	var hdr []byte
	hdr = append(hdr, 4<<4|uint8(hlen/4), ip.TOS)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(hlen+len(seg)))
	hdr = binary.BigEndian.AppendUint16(hdr, ip.ID)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(ip.Flags)<<13|ip.FragOffset&0x1fff)
	hdr = append(hdr, ip.TTL, byte(proto), 0, 0)
	hdr = append(hdr, ip.SrcIP[:]...)
	hdr = append(hdr, ip.DstIP[:]...)
	hdr = append(hdr, opts...)
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
	frame := append(append([]byte(nil), eth.DstMAC[:]...), eth.SrcMAC[:]...)
	frame = binary.BigEndian.AppendUint16(frame, uint16(EtherTypeIPv4))
	frame = append(frame, hdr...)
	return append(frame, seg...)
}

// legacyTCPHeader is the TCP header legacyFrame prepends, checksum zero.
func legacyTCPHeader(t TCP) []byte {
	opts := t.Options
	if len(opts)%4 != 0 {
		opts = append(append([]byte(nil), opts...), make([]byte, 4-len(opts)%4)...)
	}
	var h []byte
	h = binary.BigEndian.AppendUint16(h, t.SrcPort)
	h = binary.BigEndian.AppendUint16(h, t.DstPort)
	h = binary.BigEndian.AppendUint32(h, t.Seq)
	h = binary.BigEndian.AppendUint32(h, t.Ack)
	h = binary.BigEndian.AppendUint16(h, uint16((20+len(opts))/4)<<12|uint16(t.Flags)&0x01ff)
	h = binary.BigEndian.AppendUint16(h, t.Window)
	h = append(h, 0, 0)
	h = binary.BigEndian.AppendUint16(h, t.Urgent)
	return append(h, opts...)
}

// layerInput is one random build: every header field, options of up to
// 40 bytes and a payload.
type layerInput struct {
	Eth                   Ethernet
	TOS, TTL, IPFlags     uint8
	ID, Frag              uint16
	Src, Dst              [4]byte
	IPOpts, TCPOpts       []byte
	SrcPort, DstPort      uint16
	Seq, Ack              uint32
	TCPFlags, Window, Urg uint16
	ICMPType, ICMPCode    uint8
	Rest                  [4]byte
	Payload               []byte
	Proto                 uint8
}

func (in layerInput) build() (*Packet, []byte) {
	var b Builder
	b.Eth = in.Eth
	ip := IPv4{TOS: in.TOS, ID: in.ID, Flags: IPv4Flag(in.IPFlags), FragOffset: in.Frag, TTL: in.TTL,
		SrcIP: in.Src, DstIP: in.Dst, Options: in.IPOpts[:min(len(in.IPOpts), 40)]}
	switch in.Proto % 3 {
	case 0:
		tcp := TCP{SrcPort: in.SrcPort, DstPort: in.DstPort, Seq: in.Seq, Ack: in.Ack, Flags: TCPFlags(in.TCPFlags),
			Window: in.Window, Urgent: in.Urg, Options: in.TCPOpts[:min(len(in.TCPOpts), 40)]}
		return b.BuildTCP(testTime, ip, tcp, in.Payload),
			legacyFrame(in.Eth, ip, ProtoTCP, legacyTCPHeader(tcp), in.Payload)
	case 1:
		udp := UDP{SrcPort: in.SrcPort, DstPort: in.DstPort}
		hdr := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, in.SrcPort), in.DstPort)
		return b.BuildUDP(testTime, ip, udp, in.Payload),
			legacyFrame(in.Eth, ip, ProtoUDP, append(hdr, 0, 0, 0, 0), in.Payload)
	default:
		icmp := ICMPv4{Type: in.ICMPType, Code: in.ICMPCode, RestOfHeader: in.Rest}
		return b.BuildICMP(testTime, ip, icmp, in.Payload),
			legacyFrame(in.Eth, ip, ProtoICMP, append([]byte{in.ICMPType, in.ICMPCode, 0, 0}, in.Rest[:]...), in.Payload)
	}
}

// TestBuildMatchesDecode is the builder's contract: the Packet it
// returns is the Packet Decode reads from its bytes, and the bytes are
// those of the old append-and-copy builder.
func TestBuildMatchesDecode(t *testing.T) {
	f := func(in layerInput) bool {
		p, legacy := in.build()
		d, err := Decode(p.Data, p.Timestamp)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(p, d) && string(p.Data) == string(legacy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocs pins the builder's allocations: the frame, the
// packet with its Ethernet and IPv4 layers, and the transport layer.
func TestBuildAllocs(t *testing.T) {
	var b Builder
	payload := make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() {
		b.BuildTCP(testTime, sampleIP(), TCP{SrcPort: 1, DstPort: 2}, payload)
	}); n != 3 {
		t.Fatalf("BuildTCP made %v allocations, want 3", n)
	}
}
