package netfunc

import (
	"math"
	"strings"
	"testing"
	"time"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/workload"
)

func workloadPackets(t testing.TB, class string, flows int) []*packet.Packet {
	t.Helper()
	g := workload.NewGenerator(3)
	g.MaxPackets = 20
	p, ok := workload.ProfileByName(class)
	if !ok {
		t.Fatalf("unknown class %s", class)
	}
	var pkts []*packet.Packet
	for i := 0; i < flows; i++ {
		pkts = append(pkts, g.GenerateFlow(p).Packets...)
	}
	return pkts
}

func TestFlowMonitorCounts(t *testing.T) {
	pkts := workloadPackets(t, "amazon", 3)
	m := NewFlowMonitor()
	st := Replay(pkts, []NF{m})
	if st.Packets != len(pkts) || st.Accepted != len(pkts) {
		t.Fatalf("stats %+v", st)
	}
	if len(m.Flows()) != 3 {
		t.Fatalf("flows = %d, want 3", len(m.Flows()))
	}
	if !strings.Contains(m.Report(), "3 flows") {
		t.Errorf("report = %s", m.Report())
	}
}

func TestChecksumVerifierAcceptsRealTraffic(t *testing.T) {
	for _, class := range []string{"amazon", "teams", "other"} {
		pkts := workloadPackets(t, class, 2)
		v := NewChecksumVerifier()
		st := Replay(pkts, []NF{v})
		if st.Accepted != len(pkts) {
			t.Fatalf("%s: %d of %d packets dropped by checksum verifier: %s",
				class, len(pkts)-st.Accepted, len(pkts), v.Report())
		}
	}
}

func TestChecksumVerifierDropsCorrupted(t *testing.T) {
	pkts := workloadPackets(t, "amazon", 1)
	// Corrupt a byte in the first packet's IP header.
	bad := pkts[0]
	bad.Data[packet.EthernetHeaderLen+8] ^= 0xff
	v := NewChecksumVerifier()
	if v.Process(bad) != Drop {
		t.Fatal("corrupted packet accepted")
	}
}

func TestTCPStateCheckerAcceptsWellFormedFlow(t *testing.T) {
	pkts := workloadPackets(t, "netflix", 2)
	c := NewTCPStateChecker()
	Replay(pkts, []NF{c})
	if c.Violations() != 0 {
		t.Fatalf("well-formed flows produced %d violations: %s", c.Violations(), c.Report())
	}
}

func TestTCPStateCheckerFlagsDataBeforeHandshake(t *testing.T) {
	var b packet.Builder
	ip := packet.IPv4{TTL: 64, SrcIP: [4]byte{1, 1, 1, 1}, DstIP: [4]byte{2, 2, 2, 2}}
	// Data packet with no preceding SYN.
	data := b.BuildTCP(time.Unix(0, 0), ip, packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK | packet.FlagPSH}, []byte("x"))
	c := NewTCPStateChecker()
	if c.Process(data) != Accept { // counting mode: accept but record
		t.Fatal("counting mode should accept")
	}
	if c.Violations() != 1 {
		t.Fatalf("violations = %d", c.Violations())
	}
	strict := NewTCPStateChecker()
	strict.Strict = true
	if strict.Process(data) != Drop {
		t.Fatal("strict mode should drop")
	}
}

func TestTCPStateCheckerSynOnEstablished(t *testing.T) {
	var b packet.Builder
	ip := packet.IPv4{TTL: 64, SrcIP: [4]byte{1, 1, 1, 1}, DstIP: [4]byte{2, 2, 2, 2}}
	ipR := packet.IPv4{TTL: 64, SrcIP: [4]byte{2, 2, 2, 2}, DstIP: [4]byte{1, 1, 1, 1}}
	ts := time.Unix(0, 0)
	c := NewTCPStateChecker()
	c.Process(b.BuildTCP(ts, ip, packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}, nil))
	c.Process(b.BuildTCP(ts, ipR, packet.TCP{SrcPort: 2, DstPort: 1, Flags: packet.FlagSYN | packet.FlagACK}, nil))
	c.Process(b.BuildTCP(ts, ip, packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}, nil))
	if c.Violations() != 0 {
		t.Fatalf("handshake flagged: %s", c.Report())
	}
	c.Process(b.BuildTCP(ts, ip, packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}, nil))
	if c.Violations() != 1 {
		t.Fatalf("SYN on established not flagged: %s", c.Report())
	}
}

func TestConformance(t *testing.T) {
	var b packet.Builder
	ip := packet.IPv4{TTL: 64, SrcIP: [4]byte{1, 1, 1, 1}, DstIP: [4]byte{2, 2, 2, 2}}
	ipR := packet.IPv4{TTL: 64, SrcIP: [4]byte{2, 2, 2, 2}, DstIP: [4]byte{1, 1, 1, 1}}
	ts := time.Unix(0, 0)
	tcp := func(ip packet.IPv4, src, dst uint16, flags packet.TCPFlags) *packet.Packet {
		return b.BuildTCP(ts, ip, packet.TCP{SrcPort: src, DstPort: dst, Flags: flags}, nil)
	}
	handshake := []*packet.Packet{
		tcp(ip, 1, 2, packet.FlagSYN),
		tcp(ipR, 2, 1, packet.FlagSYN|packet.FlagACK),
		tcp(ip, 1, 2, packet.FlagACK),
	}
	udp := b.BuildUDP(ts, ip, packet.UDP{SrcPort: 53, DstPort: 53}, []byte("q"))
	cases := []struct {
		name string
		pkts []*packet.Packet
		want float64
	}{
		{"all conformant", append(handshake[:3:3], tcp(ip, 1, 2, packet.FlagACK|packet.FlagPSH)), 1},
		{"one violation", append(handshake[:3:3], tcp(ip, 1, 2, packet.FlagSYN)), 0.75},
		{"no tcp", []*packet.Packet{udp}, 1},
	}
	for _, tc := range cases {
		got := Conformance([]*flow.Flow{{Packets: tc.pkts}})
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: conformance = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	pkts := workloadPackets(t, "teams", 1)
	if len(pkts) < 6 {
		t.Skip("flow too short for the test")
	}
	rl := NewRateLimiter(5)
	st := Replay(pkts, []NF{rl})
	if st.Accepted != 5 {
		t.Fatalf("accepted %d, want 5", st.Accepted)
	}
	if st.DroppedBy["rate-limiter"] != len(pkts)-5 {
		t.Fatalf("dropped %v", st.DroppedBy)
	}
}

func TestPipelineShortCircuits(t *testing.T) {
	pkts := workloadPackets(t, "zoom", 1)
	rl := NewRateLimiter(0) // drops everything
	m := NewFlowMonitor()
	st := Replay(pkts, []NF{rl, m})
	if st.Accepted != 0 {
		t.Fatal("limiter should drop all")
	}
	if len(m.Flows()) != 0 {
		t.Fatal("monitor saw packets after drop")
	}
}

func TestReportFormatting(t *testing.T) {
	pkts := workloadPackets(t, "amazon", 1)
	pipeline := []NF{NewChecksumVerifier(), NewTCPStateChecker(), NewFlowMonitor()}
	st := Replay(pkts, pipeline)
	rep := Report(st, pipeline)
	for _, want := range []string{"replayed", "checksum-verifier", "tcp-state-checker", "flow-monitor"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
