package netfunc

import (
	"fmt"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/packet"
)

// FlowMonitor counts flows, packets and bytes (a NetFlow-exporter
// style passive NF). It never drops.
type FlowMonitor struct {
	table   *flow.Table
	packets int
	bytes   int
}

// NewFlowMonitor returns an empty monitor.
func NewFlowMonitor() *FlowMonitor { return &FlowMonitor{table: flow.NewTable()} }

// Name implements NF.
func (m *FlowMonitor) Name() string { return "flow-monitor" }

// Process implements NF.
func (m *FlowMonitor) Process(p *packet.Packet) Verdict {
	m.table.Add(p)
	m.packets++
	m.bytes += p.Length()
	return Accept
}

// Report implements NF.
func (m *FlowMonitor) Report() string {
	return fmt.Sprintf("%d flows, %d packets, %d bytes", m.table.Len(), m.packets, m.bytes)
}

// Flows exposes the assembled flow table.
func (m *FlowMonitor) Flows() []*flow.Flow { return m.table.Flows() }

// ChecksumVerifier drops packets whose IPv4 or transport checksum does
// not verify — replayed synthetic traffic must carry valid checksums
// to pass middleboxes.
type ChecksumVerifier struct {
	checked, bad int
}

// NewChecksumVerifier returns a fresh verifier.
func NewChecksumVerifier() *ChecksumVerifier { return &ChecksumVerifier{} }

// Name implements NF.
func (v *ChecksumVerifier) Name() string { return "checksum-verifier" }

// Process implements NF.
func (v *ChecksumVerifier) Process(p *packet.Packet) Verdict {
	if p.IPv4 == nil {
		return Accept // not ours to judge
	}
	v.checked++
	hlen := p.IPv4.HeaderLen()
	ipStart := packet.EthernetHeaderLen
	if len(p.Data) < ipStart+hlen {
		v.bad++
		return Drop
	}
	if packet.Checksum(p.Data[ipStart:ipStart+hlen]) != 0 {
		v.bad++
		return Drop
	}
	seg := p.Data[ipStart+hlen:]
	switch {
	case p.TCP != nil:
		if packet.PseudoHeaderChecksum(p.IPv4.SrcIP, p.IPv4.DstIP, packet.ProtoTCP, seg) != 0 {
			v.bad++
			return Drop
		}
	case p.UDP != nil:
		if p.UDP.Checksum != 0 && // zero = checksum disabled (RFC 768)
			packet.PseudoHeaderChecksum(p.IPv4.SrcIP, p.IPv4.DstIP, packet.ProtoUDP, seg) != 0 &&
			p.UDP.Checksum != 0xffff {
			v.bad++
			return Drop
		}
	case p.ICMP != nil:
		if packet.Checksum(seg) != 0 {
			v.bad++
			return Drop
		}
	}
	return Accept
}

// Report implements NF.
func (v *ChecksumVerifier) Report() string {
	return fmt.Sprintf("%d checked, %d bad", v.checked, v.bad)
}

// tcpConnState tracks one direction-normalized flow's handshake
// progress.
type tcpConnState int

const (
	stateNew tcpConnState = iota
	stateSynSeen
	stateSynAckSeen
	stateEstablished
	stateClosed
)

// TCPStateChecker is a stateful conformance monitor: it tracks each
// TCP flow's three-way handshake and counts packets that arrive out of
// protocol order (data before handshake completion, SYN on an
// established flow, traffic after close). In strict mode those packets
// drop; otherwise they are counted only — the diagnostic the paper's
// §4 "replayable synthetic network traces" challenge calls for.
type TCPStateChecker struct {
	// Strict drops non-conforming packets instead of just counting.
	Strict bool

	conns      map[flow.Key]tcpConnState
	violations int
	conforming int
}

// NewTCPStateChecker returns a checker in counting (non-strict) mode.
func NewTCPStateChecker() *TCPStateChecker {
	return &TCPStateChecker{conns: map[flow.Key]tcpConnState{}}
}

// Name implements NF.
func (c *TCPStateChecker) Name() string { return "tcp-state-checker" }

// Process implements NF.
func (c *TCPStateChecker) Process(p *packet.Packet) Verdict {
	if p.TCP == nil {
		return Accept
	}
	k, ok := flow.KeyOf(p)
	if !ok {
		return Accept
	}
	st := c.conns[k]
	fl := p.TCP.Flags
	next := st
	violation := false
	switch st {
	case stateNew:
		if fl&packet.FlagSYN != 0 && fl&packet.FlagACK == 0 {
			next = stateSynSeen
		} else {
			violation = true
		}
	case stateSynSeen:
		switch {
		case fl&packet.FlagSYN != 0 && fl&packet.FlagACK != 0:
			next = stateSynAckSeen
		case fl&packet.FlagSYN != 0:
			// retransmitted SYN: allowed
		default:
			violation = true
		}
	case stateSynAckSeen:
		if fl&packet.FlagACK != 0 && fl&packet.FlagSYN == 0 {
			next = stateEstablished
		} else if fl&packet.FlagSYN != 0 && fl&packet.FlagACK != 0 {
			// retransmitted SYN/ACK: allowed
		} else {
			violation = true
		}
	case stateEstablished:
		switch {
		case fl&packet.FlagSYN != 0:
			violation = true
		case fl&packet.FlagRST != 0:
			next = stateClosed
		case fl&packet.FlagFIN != 0:
			next = stateClosed // simplified: first FIN closes
		}
	case stateClosed:
		// FIN/ACK teardown continues; data is a violation.
		if fl&(packet.FlagFIN|packet.FlagACK|packet.FlagRST) == 0 || len(p.Payload) > 0 {
			violation = true
		}
	}
	if violation {
		c.violations++
		if c.Strict {
			return Drop
		}
	} else {
		c.conforming++
		c.conns[k] = next
	}
	return Accept
}

// Report implements NF.
func (c *TCPStateChecker) Report() string {
	total := c.conforming + c.violations
	rate := 0.0
	if total > 0 {
		rate = float64(c.conforming) / float64(total)
	}
	return fmt.Sprintf("%d tcp packets, %d conforming (%.1f%%), %d violations, %d connections",
		total, c.conforming, 100*rate, c.violations, len(c.conns))
}

// Violations exposes the violation count.
func (c *TCPStateChecker) Violations() int { return c.violations }

// Conformance replays flows, in order, through one counting
// TCPStateChecker and returns the share of TCP packets that conform
// (1 = fully replayable handshake ordering). Flows without TCP packets
// conform vacuously: the result is 1, never NaN.
func Conformance(flows []*flow.Flow) float64 {
	c := NewTCPStateChecker()
	total := 0
	for _, f := range flows {
		for _, p := range f.Packets {
			if p.TCP != nil {
				total++
			}
			c.Process(p)
		}
	}
	if total == 0 {
		return 1
	}
	return float64(total-c.Violations()) / float64(total)
}

// RateLimiter enforces a token-bucket packet rate keyed by flow.
type RateLimiter struct {
	// PacketsPerFlow is the bucket size: packets allowed per flow
	// before drops start (a simple burst limiter for replay tests).
	PacketsPerFlow int

	seen    map[flow.Key]int
	dropped int
}

// NewRateLimiter returns a limiter allowing n packets per flow.
func NewRateLimiter(n int) *RateLimiter {
	return &RateLimiter{PacketsPerFlow: n, seen: map[flow.Key]int{}}
}

// Name implements NF.
func (r *RateLimiter) Name() string { return "rate-limiter" }

// Process implements NF.
func (r *RateLimiter) Process(p *packet.Packet) Verdict {
	k, ok := flow.KeyOf(p)
	if !ok {
		return Accept
	}
	r.seen[k]++
	if r.seen[k] > r.PacketsPerFlow {
		r.dropped++
		return Drop
	}
	return Accept
}

// Report implements NF.
func (r *RateLimiter) Report() string {
	return fmt.Sprintf("limit %d pkts/flow, %d dropped", r.PacketsPerFlow, r.dropped)
}
