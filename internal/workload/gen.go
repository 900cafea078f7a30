package workload

import (
	"encoding/binary"
	"math"
	"time"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/stats"
)

// Generator produces labeled flows from profiles. It is deterministic
// for a given seed and not safe for concurrent use.
type Generator struct {
	rng *stats.RNG
	b   packet.Builder
	// MaxPackets truncates generated flows (0 = no cap). Keeping flows
	// short makes tests fast; experiments set this to the paper's 1024.
	MaxPackets int

	now time.Time
}

// NewGenerator returns a generator seeded with seed, starting its
// clock at a fixed epoch so datasets are reproducible.
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		rng: stats.NewRNG(seed),
		now: time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
	}
}

// sampleSize draws a payload size from a SizeProfile, clamped to
// [0, 1460].
func sampleSize(r *stats.RNG, sp SizeProfile) int {
	cat := stats.NewCategorical(sp.Weights)
	i := cat.SampleIndex(r)
	v := sp.Modes[i] + float64(sp.Jitter*r.NormFloat64())
	if v < 0 {
		v = 0
	}
	if v > 1460 {
		v = 1460
	}
	return int(v)
}

// flowLen draws the packet count for a flow of p.
func (g *Generator) flowLen(p Profile) int {
	n := int(stats.LogNormal{Mu: p.FlowLenMean, Sigma: p.FlowLenSigma}.Sample(g.rng))
	if n < 4 {
		n = 4
	}
	if g.MaxPackets > 0 && n > g.MaxPackets {
		n = g.MaxPackets
	}
	return n
}

// interArrival draws the gap to the next packet.
func (g *Generator) interArrival(p Profile) time.Duration {
	ms := stats.LogNormal{
		Mu:    math.Log(p.InterArrivalMeanMs),
		Sigma: p.InterArrivalSigmaMs * 0.3,
	}.Sample(g.rng)
	if ms < 0.05 {
		ms = 0.05
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// addrs draws a (client, server) address pair. Client addresses live
// in 10/8; server addresses are derived from the profile name so each
// service occupies a stable but distinct block (they are excluded from
// classification features regardless, per the paper's footnote 1).
func (g *Generator) addrs(p Profile) (client, server [4]byte) {
	client = [4]byte{10, byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))}
	h := uint32(2166136261)
	for _, c := range p.Name {
		h = (h ^ uint32(c)) * 16777619
	}
	var block [4]byte
	binary.BigEndian.PutUint32(block[:], h)
	server = [4]byte{byte(23 + block[0]%160), block[1], block[2], byte(1 + g.rng.Intn(254))}
	return client, server
}

// serverPort draws a server port with Zipf preference for the first
// candidates ("port consolidation").
func (g *Generator) serverPort(p Profile) uint16 {
	if len(p.ServerPorts) == 1 {
		return p.ServerPorts[0]
	}
	z := stats.NewZipf(len(p.ServerPorts), 1.5)
	return p.ServerPorts[z.SampleRank(g.rng)-1]
}

// GenerateFlow produces one labeled flow for profile p.
func (g *Generator) GenerateFlow(p Profile) *flow.Flow {
	// Space flows out in capture time.
	g.now = g.now.Add(time.Duration(1+g.rng.Intn(2000)) * time.Millisecond)
	switch p.protoFor(g.rng) {
	case packet.ProtoTCP:
		return g.tcpFlow(p)
	case packet.ProtoUDP:
		return g.udpFlow(p)
	default:
		return g.icmpFlow(p)
	}
}

// tcpState tracks one direction's sequence space.
type tcpState struct {
	seq uint32
}

// tcpFlow simulates a full stateful TCP conversation: three-way
// handshake, windowed data transfer with correct sequence/ack
// progression and per-profile option usage, and FIN teardown.
func (g *Generator) tcpFlow(p Profile) *flow.Flow {
	client, server := g.addrs(p)
	cPort := uint16(32768 + g.rng.Intn(28000))
	sPort := g.serverPort(p)
	n := g.flowLen(p)

	f := &flow.Flow{Label: p.Name}
	ts := g.now
	cli := tcpState{seq: uint32(g.rng.Uint64())}
	srv := tcpState{seq: uint32(g.rng.Uint64())}

	window := func() uint16 {
		w := int(p.WindowBase)
		if p.WindowJitter > 0 {
			w += g.rng.Intn(int(p.WindowJitter))
		}
		if w > 65535 {
			w = 65535
		}
		return uint16(w)
	}

	clientIP := func() packet.IPv4 {
		return packet.IPv4{TTL: p.ClientTTL, TOS: p.TOS, ID: uint16(g.rng.Intn(65536)),
			Flags: packet.IPv4DontFragment, SrcIP: client, DstIP: server}
	}
	serverIP := func() packet.IPv4 {
		return packet.IPv4{TTL: p.TTL, TOS: p.TOS, ID: uint16(g.rng.Intn(65536)),
			Flags: packet.IPv4DontFragment, SrcIP: server, DstIP: client}
	}

	synOpts := func() []byte {
		opts := []byte{2, 4, byte(p.MSS >> 8), byte(p.MSS)}
		if p.UseSACK {
			opts = append(opts, 4, 2)
		}
		if p.WScale > 0 {
			opts = append(opts, 3, 3, p.WScale)
		}
		for len(opts)%4 != 0 {
			opts = append(opts, 1) // NOP pad
		}
		return opts
	}
	tsOpts := func() []byte {
		if !p.UseTimestamp {
			return nil
		}
		opt := make([]byte, 12)
		opt[0], opt[1] = 1, 1 // NOP NOP
		opt[2], opt[3] = 8, 10
		binary.BigEndian.PutUint32(opt[4:], uint32(ts.UnixMilli()))
		binary.BigEndian.PutUint32(opt[8:], uint32(ts.UnixMilli())-10)
		return opt
	}

	emit := func(fromClient bool, flags packet.TCPFlags, opts []byte, payloadLen int) {
		var ip packet.IPv4
		var tcp packet.TCP
		if fromClient {
			ip = clientIP()
			tcp = packet.TCP{SrcPort: cPort, DstPort: sPort, Seq: cli.seq, Ack: srv.seq}
		} else {
			ip = serverIP()
			tcp = packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: srv.seq, Ack: cli.seq}
		}
		tcp.Flags = flags
		tcp.Window = window()
		tcp.Options = opts
		f.Append(g.b.BuildTCP(ts, ip, tcp, make([]byte, payloadLen)))
		consumed := uint32(payloadLen)
		if flags&(packet.FlagSYN|packet.FlagFIN) != 0 {
			consumed++
		}
		if fromClient {
			cli.seq += consumed
		} else {
			srv.seq += consumed
		}
		ts = ts.Add(g.interArrival(p))
	}

	// Handshake.
	emit(true, packet.FlagSYN, synOpts(), 0)
	emit(false, packet.FlagSYN|packet.FlagACK, synOpts(), 0)
	emit(true, packet.FlagACK, nil, 0)

	// Data phase with per-burst direction persistence.
	dataPkts := n - 7 // reserve handshake(3) + teardown(4)
	if dataPkts < 1 {
		dataPkts = 1
	}
	sent := 0
	for sent < dataPkts {
		down := g.rng.Bool(p.DownUpRatio)
		burst := 1
		if p.BurstLen > 1 {
			burst = 1 + g.rng.Intn(int(p.BurstLen))
		}
		for i := 0; i < burst && sent < dataPkts; i++ {
			flags := packet.FlagACK
			if p.PushEvery > 0 && sent%p.PushEvery == 0 {
				flags |= packet.FlagPSH
			}
			var size int
			if down {
				size = sampleSize(g.rng, p.Down)
			} else {
				size = sampleSize(g.rng, p.Up)
			}
			emit(!down, flags, tsOpts(), size)
			sent++
		}
	}

	// Teardown: FIN/ACK exchange both ways.
	emit(true, packet.FlagFIN|packet.FlagACK, nil, 0)
	emit(false, packet.FlagACK, nil, 0)
	emit(false, packet.FlagFIN|packet.FlagACK, nil, 0)
	emit(true, packet.FlagACK, nil, 0)

	return g.trim(f, n)
}

// udpFlow simulates a bidirectional datagram stream (RTP-like for
// conferencing, QUIC-like for streaming).
func (g *Generator) udpFlow(p Profile) *flow.Flow {
	client, server := g.addrs(p)
	cPort := uint16(32768 + g.rng.Intn(28000))
	sPort := g.serverPort(p)
	n := g.flowLen(p)

	f := &flow.Flow{Label: p.Name}
	ts := g.now
	for i := 0; i < n; i++ {
		down := g.rng.Bool(p.DownUpRatio)
		var ip packet.IPv4
		var udp packet.UDP
		var size int
		if down {
			ip = packet.IPv4{TTL: p.TTL, TOS: p.TOS, ID: uint16(g.rng.Intn(65536)), SrcIP: server, DstIP: client}
			udp = packet.UDP{SrcPort: sPort, DstPort: cPort}
			size = sampleSize(g.rng, p.Down)
		} else {
			ip = packet.IPv4{TTL: p.ClientTTL, TOS: p.TOS, ID: uint16(g.rng.Intn(65536)), SrcIP: client, DstIP: server}
			udp = packet.UDP{SrcPort: cPort, DstPort: sPort}
			size = sampleSize(g.rng, p.Up)
		}
		f.Append(g.b.BuildUDP(ts, ip, udp, make([]byte, size)))
		ts = ts.Add(g.interArrival(p))
	}
	return f
}

// icmpFlow simulates an echo request/reply ping train (IoT keepalives).
func (g *Generator) icmpFlow(p Profile) *flow.Flow {
	client, server := g.addrs(p)
	n := g.flowLen(p)
	if n%2 == 1 {
		n++ // request/reply pairs
	}
	id := uint16(g.rng.Intn(65536))
	f := &flow.Flow{Label: p.Name}
	ts := g.now
	for i := 0; i < n/2; i++ {
		var req packet.ICMPv4
		req.Type = packet.ICMPEchoRequest
		req.SetEcho(id, uint16(i))
		ipReq := packet.IPv4{TTL: p.ClientTTL, ID: uint16(g.rng.Intn(65536)), SrcIP: client, DstIP: server}
		f.Append(g.b.BuildICMP(ts, ipReq, req, make([]byte, 56)))
		ts = ts.Add(time.Duration(1+g.rng.Intn(20)) * time.Millisecond)

		var rep packet.ICMPv4
		rep.Type = packet.ICMPEchoReply
		rep.SetEcho(id, uint16(i))
		ipRep := packet.IPv4{TTL: p.TTL, ID: uint16(g.rng.Intn(65536)), SrcIP: server, DstIP: client}
		f.Append(g.b.BuildICMP(ts, ipRep, rep, make([]byte, 56)))
		ts = ts.Add(g.interArrival(p))
	}
	return f
}

// trim caps the flow at n packets (TCP generation may run slightly
// over the sampled length because teardown always completes).
func (g *Generator) trim(f *flow.Flow, n int) *flow.Flow {
	if g.MaxPackets > 0 && n > g.MaxPackets {
		n = g.MaxPackets
	}
	if n > 0 && len(f.Packets) > n {
		f.Packets = f.Packets[:n]
	}
	return f
}
