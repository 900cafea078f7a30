package packet

import (
	"encoding/binary"
	"time"
)

// Builder assembles complete Ethernet/IPv4 frames from layer structs.
// It sizes each frame once and writes every header in place, top-down
// (the closed layer set lets each layer size itself without
// look-ahead), and returns the Packet made of the layer structs it
// wrote: the Packet Decode returns for the same bytes
// (TestBuildMatchesDecode, FuzzDecode).
//
// Lengths, header lengths and checksums are computed, and options are
// padded to a 32-bit boundary with End-of-Options. The caller keeps
// each header's options within the 40 bytes it can describe and the
// IPv4 packet within its 65 535-byte total length; the builder does not
// check either.
type Builder struct {
	// Eth defaults for every built frame. EtherType is forced to IPv4.
	Eth Ethernet
}

// BuildTCP assembles an Ethernet+IPv4+TCP frame. ip.Protocol is set;
// payload may be nil.
//
//tracelint:hotpath
func (b *Builder) BuildTCP(ts time.Time, ip IPv4, tcp TCP, payload []byte) *Packet {
	ip.Protocol = ProtoTCP
	hlen := headerLen(tcp.Options)
	p, seg := b.frame(ts, ip, hlen, payload)
	//tracelint:allow hotalloc — the transport layer of the returned packet
	l := new(TCP)
	l.SrcPort, l.DstPort, l.Seq, l.Ack = tcp.SrcPort, tcp.DstPort, tcp.Seq, tcp.Ack
	l.Flags, l.Window, l.Urgent = tcp.Flags, tcp.Window, tcp.Urgent
	l.put(seg, hlen, tcp.Options, ip.SrcIP, ip.DstIP)
	p.TCP, p.Payload = l, l.PayloadBytes
	return p
}

// BuildUDP assembles an Ethernet+IPv4+UDP frame.
//
//tracelint:hotpath
func (b *Builder) BuildUDP(ts time.Time, ip IPv4, udp UDP, payload []byte) *Packet {
	ip.Protocol = ProtoUDP
	p, seg := b.frame(ts, ip, UDPHeaderLen, payload)
	//tracelint:allow hotalloc — the transport layer of the returned packet
	l := new(UDP)
	l.SrcPort, l.DstPort = udp.SrcPort, udp.DstPort
	l.put(seg, ip.SrcIP, ip.DstIP)
	p.UDP, p.Payload = l, l.PayloadBytes
	return p
}

// BuildICMP assembles an Ethernet+IPv4+ICMPv4 frame.
//
//tracelint:hotpath
func (b *Builder) BuildICMP(ts time.Time, ip IPv4, icmp ICMPv4, payload []byte) *Packet {
	ip.Protocol = ProtoICMP
	p, seg := b.frame(ts, ip, ICMPv4HeaderLen, payload)
	//tracelint:allow hotalloc — the transport layer of the returned packet
	l := new(ICMPv4)
	l.Type, l.Code, l.RestOfHeader = icmp.Type, icmp.Code, icmp.RestOfHeader
	l.put(seg)
	p.ICMP, p.Payload = l, l.PayloadBytes
	return p
}

// ipFrame is a built packet with its Ethernet and IPv4 layers, in one
// allocation.
type ipFrame struct {
	pkt Packet
	eth Ethernet
	ip  IPv4
}

// frame allocates the frame for ip carrying a transport header of
// l4Len bytes and payload, writes the Ethernet header, the IPv4 header
// and the payload in place, and returns the packet with its Eth and
// IPv4 layers set and the transport segment, whose header is still
// zero. The layers are filled field by field, never from a caller's
// slice (options, payloads): those are only copied from, so a caller's
// stack arrays stay on its stack.
func (b *Builder) frame(ts time.Time, ip IPv4, l4Len int, payload []byte) (*Packet, []byte) {
	hlen := headerLen(ip.Options)
	//tracelint:allow hotalloc — the frame is the packet's bytes, sized once
	data := make([]byte, EthernetHeaderLen+hlen+l4Len+len(payload))
	//tracelint:allow hotalloc — the returned packet, with its Ethernet and IPv4 layers
	f := new(ipFrame)
	f.eth.DstMAC, f.eth.SrcMAC, f.eth.EtherType = b.Eth.DstMAC, b.Eth.SrcMAC, EtherTypeIPv4
	f.eth.put(data)
	f.ip.TOS, f.ip.ID, f.ip.Flags, f.ip.FragOffset = ip.TOS, ip.ID, ip.Flags, ip.FragOffset
	f.ip.TTL, f.ip.Protocol, f.ip.SrcIP, f.ip.DstIP = ip.TTL, ip.Protocol, ip.SrcIP, ip.DstIP
	f.ip.put(f.eth.PayloadBytes, hlen, ip.Options)
	seg := f.ip.PayloadBytes
	copy(seg[l4Len:], payload)
	f.pkt.Timestamp, f.pkt.Data, f.pkt.Eth, f.pkt.IPv4 = ts, data, &f.eth, &f.ip
	return &f.pkt, seg
}

// headerLen is the length of a 20-byte IPv4 or TCP header carrying
// opts.
func headerLen(opts []byte) int { return 20 + (len(opts)+3)/4*4 }

// putOptions copies opts into hdr[20:hlen], hlen from headerLen, and
// returns the options as Decode reads them back: padded, or nil when
// there are none.
func putOptions(hdr []byte, hlen int, opts []byte) []byte {
	if hlen == 20 {
		return nil
	}
	copy(hdr[20:hlen], opts)
	return hdr[20:hlen]
}

// The put methods below write a layer's header into zeroed bytes of a
// frame and set every field Decode derives from them (lengths,
// checksums, truncated flag bits, the option and payload views).

// put writes the header at the start of frame.
func (e *Ethernet) put(frame []byte) {
	copy(frame[0:6], e.DstMAC[:])
	copy(frame[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(frame[12:14], uint16(e.EtherType))
	e.PayloadBytes = frame[EthernetHeaderLen:]
}

// put writes the hlen-byte header carrying opts at the start of pkt,
// the whole IPv4 packet.
func (ip *IPv4) put(pkt []byte, hlen int, opts []byte) {
	ip.Version, ip.IHL = 4, uint8(hlen/4)
	ip.Length = uint16(len(pkt))
	ip.Flags &= 7
	ip.FragOffset &= 0x1fff
	pkt[0], pkt[1] = 4<<4|ip.IHL, ip.TOS
	binary.BigEndian.PutUint16(pkt[2:], ip.Length)
	binary.BigEndian.PutUint16(pkt[4:], ip.ID)
	binary.BigEndian.PutUint16(pkt[6:], uint16(ip.Flags)<<13|ip.FragOffset)
	pkt[8], pkt[9] = ip.TTL, byte(ip.Protocol)
	copy(pkt[12:16], ip.SrcIP[:])
	copy(pkt[16:20], ip.DstIP[:])
	ip.Options = putOptions(pkt, hlen, opts)
	ip.Checksum = Checksum(pkt[:hlen])
	binary.BigEndian.PutUint16(pkt[10:], ip.Checksum)
	ip.PayloadBytes = pkt[hlen:]
}

// put writes the hlen-byte header carrying opts at the start of seg,
// the segment with its payload in place, checksummed over the
// pseudo-header of src and dst.
func (t *TCP) put(seg []byte, hlen int, opts []byte, src, dst [4]byte) {
	t.DataOffset = uint8(hlen / 4)
	t.Flags &= 0x01ff
	binary.BigEndian.PutUint16(seg[0:], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:], t.Seq)
	binary.BigEndian.PutUint32(seg[8:], t.Ack)
	binary.BigEndian.PutUint16(seg[12:], uint16(t.DataOffset)<<12|uint16(t.Flags))
	binary.BigEndian.PutUint16(seg[14:], t.Window)
	binary.BigEndian.PutUint16(seg[18:], t.Urgent)
	t.Options = putOptions(seg, hlen, opts)
	t.Checksum = PseudoHeaderChecksum(src, dst, ProtoTCP, seg)
	binary.BigEndian.PutUint16(seg[16:], t.Checksum)
	t.PayloadBytes = seg[hlen:]
}

// put writes the header at the start of seg, the datagram with its
// payload in place.
func (u *UDP) put(seg []byte, src, dst [4]byte) {
	u.Length = uint16(len(seg))
	binary.BigEndian.PutUint16(seg[0:], u.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], u.DstPort)
	binary.BigEndian.PutUint16(seg[4:], u.Length)
	u.Checksum = PseudoHeaderChecksum(src, dst, ProtoUDP, seg)
	if u.Checksum == 0 {
		u.Checksum = 0xffff // RFC 768: zero means "no checksum"
	}
	binary.BigEndian.PutUint16(seg[6:], u.Checksum)
	u.PayloadBytes = seg[UDPHeaderLen:]
}

// put writes the header at the start of msg, the message with its body
// in place.
func (i *ICMPv4) put(msg []byte) {
	msg[0], msg[1] = i.Type, i.Code
	copy(msg[4:8], i.RestOfHeader[:])
	i.Checksum = Checksum(msg)
	binary.BigEndian.PutUint16(msg[2:], i.Checksum)
	i.PayloadBytes = msg[ICMPv4HeaderLen:]
}
