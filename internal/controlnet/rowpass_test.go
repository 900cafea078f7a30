package controlnet

import (
	"slices"
	"testing"
	"time"

	"trafficdiff/internal/nprint"
	"trafficdiff/internal/packet"
	"trafficdiff/internal/stats"
)

// The four functions below are the template rules as they were written
// before rowPass: one loop over the matrix each. They are the reference
// the single pass and its exported views are compared against.

func refProject(t *Template, m *nprint.Matrix) int {
	changed := 0
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		for c, s := range t.State {
			switch s {
			case ColVacant:
				if row[c] != nprint.Vacant {
					row[c] = nprint.Vacant
					changed++
				}
			case ColContent:
				if row[c] == nprint.Vacant {
					row[c] = t.Fill[c]
					changed++
				}
			}
		}
	}
	return changed
}

func refProjectConstants(t *Template, m *nprint.Matrix) int {
	changed := 0
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		if nprint.SectionVacant(row, 0, nprint.BitsPerPacket) {
			continue
		}
		for c, isConst := range t.Constant {
			if isConst && row[c] != t.Fill[c] {
				row[c] = t.Fill[c]
				changed++
			}
		}
	}
	return changed
}

func refCompliance(t *Template, m *nprint.Matrix) float64 {
	if m.NumRows == 0 {
		return 1
	}
	constrained, ok := 0, 0
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		for c, s := range t.State {
			switch s {
			case ColVacant:
				constrained++
				if row[c] == nprint.Vacant {
					ok++
				}
			case ColContent:
				constrained++
				if row[c] != nprint.Vacant {
					ok++
				}
			}
		}
	}
	if constrained == 0 {
		return 1
	}
	return float64(ok) / float64(constrained)
}

func refProtocolCompliance(t *Template, m *nprint.Matrix) float64 {
	if m.NumRows == 0 {
		return 1
	}
	sections := map[packet.IPProtocol][2]int{
		packet.ProtoTCP:  {nprint.TCPOffset, nprint.TCPBits},
		packet.ProtoUDP:  {nprint.UDPOffset, nprint.UDPBits},
		packet.ProtoICMP: {nprint.ICMPOffset, nprint.ICMPBits},
	}
	own, known := sections[t.Proto]
	if !known {
		return 0
	}
	match := 0
	for r := 0; r < m.NumRows; r++ {
		row := m.Row(r)
		ok := !nprint.SectionVacant(row, own[0], own[1])
		for proto, s := range sections {
			if proto != t.Proto && !nprint.SectionVacant(row, s[0], s[1]) {
				ok = false
			}
		}
		if ok {
			match++
		}
	}
	return float64(match) / float64(m.NumRows)
}

// icmpExample is eight echo requests: only the IPv4 and ICMP sections
// are populated.
func icmpExample(t testing.TB) *nprint.Matrix {
	t.Helper()
	var b packet.Builder
	m := nprint.NewMatrix(8)
	for i := 0; i < m.NumRows; i++ {
		ip := packet.IPv4{TTL: 64, ID: uint16(i), SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}}
		icmp := packet.ICMPv4{Type: 8}
		icmp.SetEcho(7, uint16(i))
		nprint.EncodePacket(m.Row(i), b.BuildICMP(time.Unix(0, 0), ip, icmp, nil))
	}
	return m
}

// passTemplates are the templates the pass is checked on: one per
// protocol, and one whose example carried no transport header at all.
func passTemplates(t *testing.T) map[string]*Template {
	t.Helper()
	bare := icmpExample(t)
	for r := 0; r < bare.NumRows; r++ {
		for c := nprint.ICMPOffset; c < nprint.ICMPOffset+nprint.ICMPBits; c++ {
			bare.Row(r)[c] = nprint.Vacant
		}
	}
	out := map[string]*Template{}
	for name, example := range map[string]*nprint.Matrix{
		"tcp": tcpExample(t), "udp": udpExample(t), "icmp": icmpExample(t), "no-proto": bare,
	} {
		tpl, err := FromExample(example)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tpl
	}
	want := map[string]packet.IPProtocol{"tcp": packet.ProtoTCP, "udp": packet.ProtoUDP, "icmp": packet.ProtoICMP, "no-proto": 0}
	for name, tpl := range out {
		if tpl.Proto != want[name] {
			t.Fatalf("%s template has protocol %v", name, tpl.Proto)
		}
	}
	// Templates are plain data: this one breaks every habit FromExample
	// has — few content columns, constants on free and vacant columns —
	// so that the order of the rules within a row shows in the result.
	r := stats.NewRNG(5)
	odd := &Template{
		State:    make([]ColState, nprint.BitsPerPacket),
		Fill:     make([]int8, nprint.BitsPerPacket),
		Constant: make([]bool, nprint.BitsPerPacket),
		Proto:    packet.ProtoUDP,
	}
	for c := range odd.State {
		odd.State[c] = ColState(r.Intn(3))
		if r.Intn(40) != 0 && odd.State[c] == ColContent {
			odd.State[c] = ColVacant
		}
		odd.Fill[c] = int8(r.Intn(3) - 1)
		odd.Constant[c] = r.Intn(10) == 0
	}
	out["hand-made"] = odd
	return out
}

// passMatrix draws a matrix shaped like a quantized sample: rows of
// independent random cells, rows that follow the template with a few
// cells disturbed, all-vacant padding rows, and rows whose only
// non-vacant cells sit in columns the template vacates — after Project
// those are vacant wherever the template has no content column, and
// non-vacant (so constants are pinned) only because Project filled the
// content columns.
func passMatrix(r *stats.RNG, tpl *Template, rows int) *nprint.Matrix {
	m := nprint.NewMatrix(rows)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		switch r.Intn(4) {
		case 0:
			for c := range row {
				row[c] = int8(r.Intn(3) - 1)
			}
		case 1:
			copy(row, tpl.Fill)
			for k := 0; k < 20; k++ {
				row[r.Intn(len(row))] = int8(r.Intn(3) - 1)
			}
		case 2: // padding: stays all vacant
		case 3:
			for c, s := range tpl.State {
				if s == ColVacant && r.Intn(8) == 0 {
					row[c] = nprint.One
				}
			}
		}
	}
	return m
}

// TestRowPassMatchesFourCalls compares Enforce, bitwise, against the
// reference rules run in the order generation ran them —
// ProtocolCompliance, Compliance, Project, then ProjectConstants when
// pinning — and each exported view against its reference on its own.
func TestRowPassMatchesFourCalls(t *testing.T) {
	r := stats.NewRNG(27)
	for name, tpl := range passTemplates(t) {
		for trial := 0; trial < 12; trial++ {
			raw := passMatrix(r, tpl, trial) // trial 0: no rows
			for _, pin := range []bool{false, true} {
				want := raw.Clone()
				wantProto, wantCell := refProtocolCompliance(tpl, want), refCompliance(tpl, want)
				wantRepaired := refProject(tpl, want)
				if pin {
					wantRepaired += refProjectConstants(tpl, want)
				}
				got := raw.Clone()
				e := tpl.Enforce(got, pin)
				if e.RawProtocolCompliance != wantProto || e.RawCellCompliance != wantCell || e.Repaired != wantRepaired {
					t.Errorf("%s trial %d pin=%v: Enforce = %+v, want {%v %v %d}", name, trial, pin, e, wantProto, wantCell, wantRepaired)
				}
				if !slices.Equal(got.Data, want.Data) {
					t.Errorf("%s trial %d pin=%v: enforced matrix differs from the four-call one", name, trial, pin)
				}
			}

			if got, want := tpl.ProtocolCompliance(raw), refProtocolCompliance(tpl, raw); got != want {
				t.Errorf("%s trial %d: ProtocolCompliance = %v, want %v", name, trial, got, want)
			}
			if got, want := tpl.Compliance(raw), refCompliance(tpl, raw); got != want {
				t.Errorf("%s trial %d: Compliance = %v, want %v", name, trial, got, want)
			}
			a, b := raw.Clone(), raw.Clone()
			if got, want := tpl.Project(a), refProject(tpl, b); got != want || !slices.Equal(a.Data, b.Data) {
				t.Errorf("%s trial %d: Project changed %d cells, want %d (or the cells differ)", name, trial, got, want)
			}
			// On its own ProjectConstants sees unprojected rows.
			a, b = raw.Clone(), raw.Clone()
			if got, want := tpl.ProjectConstants(a), refProjectConstants(tpl, b); got != want || !slices.Equal(a.Data, b.Data) {
				t.Errorf("%s trial %d: ProjectConstants changed %d cells, want %d (or the cells differ)", name, trial, got, want)
			}
		}
	}
}

// TestEnforcePinsRowsProjectPopulated is the ordering case spelled out
// on a hand-made template, where a constant column need not be a
// content column (FromExample's always are, and Project's fill already
// equals the pinned value there): whether a row is padding is decided
// after Project, so a vacant row Project populates has its constants
// pinned, and a row Project vacates entirely is left alone.
func TestEnforcePinsRowsProjectPopulated(t *testing.T) {
	blank := func() *Template {
		return &Template{
			State:    make([]ColState, nprint.BitsPerPacket),
			Fill:     make([]int8, nprint.BitsPerPacket),
			Constant: make([]bool, nprint.BitsPerPacket),
		}
	}
	fills := blank()
	fills.State[0], fills.Fill[0] = ColContent, nprint.One
	fills.Constant[1], fills.Fill[1] = true, nprint.Zero // a free column, pinned
	m := nprint.NewMatrix(1)
	if e := fills.Enforce(m, true); e.Repaired != 2 || m.Row(0)[0] != nprint.One || m.Row(0)[1] != nprint.Zero {
		t.Fatalf("vacant row under a filling template: %+v, cells %v", e, m.Row(0)[:2])
	}

	vacates := blank()
	vacates.State[2], vacates.Fill[2] = ColVacant, nprint.Vacant
	vacates.Constant[1], vacates.Fill[1] = true, nprint.Zero
	m = nprint.NewMatrix(1)
	m.Row(0)[2] = nprint.One
	if e := vacates.Enforce(m, true); e.Repaired != 1 || !nprint.SectionVacant(m.Row(0), 0, nprint.BitsPerPacket) {
		t.Fatalf("row vacated by Project was pinned: %+v, cells %v", e, m.Row(0)[:3])
	}
}

// TestEnforceAllocs: the pass works in place.
func TestEnforceAllocs(t *testing.T) {
	tpl := passTemplates(t)["tcp"]
	m := passMatrix(stats.NewRNG(3), tpl, 32)
	if n := testing.AllocsPerRun(20, func() { tpl.Enforce(m, true) }); n != 0 {
		t.Fatalf("%v allocations per Enforce, want 0", n)
	}
}
