package nprint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trafficdiff/internal/flow"
)

func TestCSVRoundTrip(t *testing.T) {
	f := &flow.Flow{}
	for i := 0; i < 3; i++ {
		f.Append(buildTCP(t, nil, 10*i))
	}
	in := FromFlow(f, 0)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows != in.NumRows {
		t.Fatalf("rows %d != %d", out.NumRows, in.NumRows)
	}
	for i := range in.Data {
		if in.Data[i] != out.Data[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestCSVEmptyMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, NewMatrix(0)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows != 0 {
		t.Fatalf("rows = %d", out.NumRows)
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"short row":    "1,0,-1\n",
		"bad value":    strings.Repeat("2,", BitsPerPacket-1) + "2\n",
		"non-numeric":  strings.Repeat("x,", BitsPerPacket-1) + "x\n",
		"out of range": strings.Repeat("-1,", BitsPerPacket-1) + "9\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCSVSkipsComments(t *testing.T) {
	row := strings.Repeat("0,", BitsPerPacket-1) + "1"
	data := "# header\n\n" + row + "\n# trailer\n"
	m, err := ReadCSV(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 1 || m.Row(0)[BitsPerPacket-1] != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

// referenceCSV is the writer WriteCSV replaced — strconv per cell
// through a bufio.Writer — kept as the byte-for-byte reference.
func referenceCSV(m *Matrix) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	fmt.Fprintf(bw, "# nprint bits=%d ipv4=%d tcp=%d udp=%d icmp=%d rows=%d\n",
		BitsPerPacket, IPv4Bits, TCPBits, UDPBits, ICMPBits, m.NumRows)
	for r := 0; r < m.NumRows; r++ {
		for c, v := range m.Row(r) {
			if c > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Itoa(int(v)))
		}
		bw.WriteByte('\n')
	}
	bw.Flush()
	return buf.Bytes()
}

// checkCSV asserts WriteCSV's bytes equal the reference writer's, and
// for a legal matrix that ReadCSV returns the same cells.
func checkCSV(t testing.TB, m *Matrix) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), referenceCSV(m)) {
		t.Fatalf("WriteCSV bytes differ from the reference writer's (%d rows)", m.NumRows)
	}
	if m.Validate() != nil {
		return
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows != m.NumRows || !slices.Equal(back.Data, m.Data) {
		t.Fatal("ReadCSV(WriteCSV(m)) != m")
	}
}

func TestWriteCSVMatchesReference(t *testing.T) {
	checkCSV(t, NewMatrix(0))
	checkCSV(t, NewMatrix(3)) // all vacant: the widest rows
	cycle := NewMatrix(5)
	for i := range cycle.Data {
		cycle.Data[i] = int8(i%3 - 1)
	}
	checkCSV(t, cycle)
	illegal := NewMatrix(2)
	for i := range illegal.Data {
		illegal.Data[i] = int8(i) // every int8, -128 and 127 included
	}
	checkCSV(t, illegal)
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after--; w.after < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteCSVReportsWriteErrors(t *testing.T) {
	for after := 0; after < 3; after++ { // header, first row, second row
		if err := WriteCSV(&failingWriter{after: after}, NewMatrix(2)); err == nil {
			t.Errorf("write %d failed but WriteCSV returned nil", after)
		}
	}
}

// TestWriteCSVAllocs pins the writer to a constant number of
// allocations per matrix — the line buffer and the header's formatting
// — whatever the row count or the share of "-1" cells.
func TestWriteCSVAllocs(t *testing.T) {
	var buf bytes.Buffer
	for _, rows := range []int{1, 32, 256} {
		m := NewMatrix(rows)
		buf.Reset()
		buf.Grow(3*len(m.Data) + 128)
		if n := testing.AllocsPerRun(10, func() {
			buf.Reset()
			if err := WriteCSV(&buf, m); err != nil {
				t.Fatal(err)
			}
		}); n > 4 {
			t.Fatalf("%d rows: %v allocations per WriteCSV, want at most 4", rows, n)
		}
	}
}

// TestDecodeRowAllocs pins what decoding one TCP row costs: the zero
// payload, the packet builder's growing buffers, the frame the packet
// keeps and its layer structs — 16 as measured; a heap slice per header
// group read (IPv4, TCP) made it 18.
func TestDecodeRowAllocs(t *testing.T) {
	f := &flow.Flow{}
	f.Append(buildTCP(t, nil, 100))
	row := FromFlow(f, 0).Row(0)
	got := testing.AllocsPerRun(50, func() {
		if _, err := DecodeRow(row, t0, DecodeOptions{Repair: true}); err != nil {
			t.Fatal(err)
		}
	})
	// The frame, the packet with its Ethernet and IPv4 layers, and the
	// transport layer.
	if got > 3 {
		t.Fatalf("%v allocations per decoded row, want at most 3", got)
	}
}
