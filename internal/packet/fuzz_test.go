package packet

import (
	"reflect"
	"testing"
	"time"
)

// FuzzDecode asserts the decoder never panics and that whatever it
// does decode rebuilds into a frame whose decode is the built Packet
// itself (the builder's contract, TestBuildMatchesDecode). Runs its seed
// corpus under plain `go test`; `go test -fuzz=FuzzDecode` explores
// further.
func FuzzDecode(f *testing.F) {
	// Seed with a valid TCP frame and interesting corruptions.
	var b Builder
	ip := IPv4{TTL: 64, SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}}
	valid := b.BuildTCP(time.Unix(0, 0), ip, TCP{SrcPort: 80, DstPort: 443, Flags: FlagSYN}, []byte("x")).Data
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte{})
	short := append([]byte(nil), valid...)
	short[14] = 0x45 | 0x0a // weird IHL nibble
	f.Add(short)
	udp := b.BuildUDP(time.Unix(0, 0), ip, UDP{SrcPort: 53, DstPort: 53}, nil).Data
	f.Add(udp)
	icmpFrame := func() []byte {
		var ic ICMPv4
		ic.Type = ICMPEchoRequest
		return b.BuildICMP(time.Unix(0, 0), ip, ic, nil).Data
	}()
	f.Add(icmpFrame)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data, time.Unix(0, 0))
		if p == nil {
			t.Fatal("Decode returned nil packet")
		}
		if err != nil {
			return // partial decode is fine; no panic is the property
		}
		// Fully decoded IPv4 packets must re-serialize losslessly
		// enough to decode again.
		if p.IPv4 == nil {
			return
		}
		var rb Builder
		rb.Eth = *p.Eth
		var re *Packet
		switch {
		case p.TCP != nil:
			re = rb.BuildTCP(p.Timestamp, *p.IPv4, *p.TCP, p.Payload)
		case p.UDP != nil:
			re = rb.BuildUDP(p.Timestamp, *p.IPv4, *p.UDP, p.Payload)
		case p.ICMP != nil:
			re = rb.BuildICMP(p.Timestamp, *p.IPv4, *p.ICMP, p.Payload)
		default:
			return
		}
		if re.IPv4 == nil {
			t.Fatal("rebuilt packet lost IPv4 layer")
		}
		if re.IPv4.TTL != p.IPv4.TTL || re.IPv4.Protocol != p.IPv4.Protocol {
			t.Fatal("rebuilt packet changed header fields")
		}
		if d, err := Decode(re.Data, re.Timestamp); err != nil || !reflect.DeepEqual(d, re) {
			t.Fatalf("rebuilt packet is not its own decode (err %v)", err)
		}
	})
}
