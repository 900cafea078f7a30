package nprint

import (
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV asserts the CSV parser never panics and rejects anything
// that isn't 1088 values of {-1,0,1} per line.
func FuzzReadCSV(f *testing.F) {
	good := strings.Repeat("0,", BitsPerPacket-1) + "1"
	f.Add("# header\n" + good + "\n")
	f.Add(good)
	f.Add("")
	f.Add("1,2,3")
	f.Add(strings.Repeat("-1,", BitsPerPacket-1) + "x")

	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted matrix fails validation: %v", verr)
		}
	})
}

// FuzzDecodeRow asserts the row decoder never panics on arbitrary
// ternary rows: it either errors or produces a decodable packet.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{0}, false)
	f.Add([]byte{1, 2, 0, 1}, true)
	f.Fuzz(func(t *testing.T, raw []byte, repair bool) {
		row := make([]int8, BitsPerPacket)
		for i := range row {
			if len(raw) == 0 {
				row[i] = Vacant
				continue
			}
			switch raw[i%len(raw)] % 3 {
			case 0:
				row[i] = Vacant
			case 1:
				row[i] = Zero
			default:
				row[i] = One
			}
		}
		p, err := DecodeRow(row, time.Unix(0, 0), DecodeOptions{Repair: repair})
		if err != nil {
			return
		}
		if p == nil || p.IPv4 == nil {
			t.Fatal("successful decode produced packet without IPv4")
		}
		if len(p.Data) < 34 {
			t.Fatalf("implausibly short frame: %d bytes", len(p.Data))
		}
	})
}

// FuzzWriteCSV asserts the table-driven writer is byte-equal to the
// reference writer for arbitrary int8 cells — values outside {-1,0,1}
// are still written as their decimal — and that legal matrices come
// back unchanged through ReadCSV.
func FuzzWriteCSV(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0, 1}, uint8(2)) // -1, 0, 1 cycling: a legal matrix
	f.Add([]byte{0x80, 0x7f, 2, 0xfe}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, rows uint8) {
		m := NewMatrix(int(rows % 5))
		if len(raw) > 0 {
			for i := range m.Data {
				m.Data[i] = int8(raw[i%len(raw)])
			}
		}
		checkCSV(t, m)
	})
}
