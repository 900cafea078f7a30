package nprint

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV serializes a matrix as the nprint tool's CSV layout: one
// row per packet, 1088 comma-separated values in {-1,0,1}, preceded by
// a header line naming the sections. Each line is built in one buffer
// reused across rows and handed to w whole.
func WriteCSV(w io.Writer, m *Matrix) error {
	line := make([]byte, 0, 3*BitsPerPacket) // widest legal row: "-1," per cell
	line = fmt.Appendf(line, "# nprint bits=%d ipv4=%d tcp=%d udp=%d icmp=%d rows=%d\n",
		BitsPerPacket, IPv4Bits, TCPBits, UDPBits, ICMPBits, m.NumRows)
	if _, err := w.Write(line); err != nil {
		return err
	}
	for r := 0; r < m.NumRows; r++ {
		line = line[:0]
		for _, v := range m.Row(r) {
			switch v {
			case Vacant:
				line = append(line, '-', '1', ',')
			case Zero:
				line = append(line, '0', ',')
			case One:
				line = append(line, '1', ',')
			default: // not a legal cell; written as the decimal it holds
				line = append(strconv.AppendInt(line, int64(v), 10), ',')
			}
		}
		line[len(line)-1] = '\n'
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses the WriteCSV format. Lines beginning with '#' are
// ignored; every data line must carry exactly 1088 values in
// {-1,0,1}.
func ReadCSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var rows [][]int8
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != BitsPerPacket {
			return nil, fmt.Errorf("nprint: line %d has %d values, want %d", lineNo, len(parts), BitsPerPacket)
		}
		row := make([]int8, BitsPerPacket)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("nprint: line %d col %d: %w", lineNo, i, err)
			}
			if v < -1 || v > 1 {
				return nil, fmt.Errorf("nprint: line %d col %d: value %d not in {-1,0,1}", lineNo, i, v)
			}
			row[i] = int8(v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m := NewMatrix(len(rows))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m, nil
}
