package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 11, 28, 9, 30, 0, 123456000, time.UTC)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{
		{1, 2, 3, 4},
		{},
		bytes.Repeat([]byte{0xaa}, 1500),
	}
	for i, p := range packets {
		if err := w.WritePacket(t0.Add(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("link type = %d", r.LinkType())
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(packets) {
		t.Fatalf("read %d records, want %d", len(recs), len(packets))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, packets[i]) {
			t.Errorf("record %d data mismatch", i)
		}
		want := t0.Add(time.Duration(i) * time.Millisecond)
		if !rec.Timestamp.Equal(want) {
			t.Errorf("record %d ts = %v, want %v", i, rec.Timestamp, want)
		}
	}
}

func TestNanosecondResolution(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewNanoWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	ts := t0.Add(789 * time.Nanosecond)
	if err := w.WritePacket(ts, []byte{1}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Nanosecond() {
		t.Error("reader did not detect nanosecond magic")
	}
	rec, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Timestamp.Equal(ts) {
		t.Errorf("ts = %v, want %v (nanosecond precision lost)", rec.Timestamp, ts)
	}
}

func TestMicrosecondTruncatesNanos(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	ts := t0.Add(789 * time.Nanosecond) // sub-microsecond part must drop
	_ = w.WritePacket(ts, []byte{1})
	r, _ := NewReader(&buf)
	rec, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Timestamp.Nanosecond()%1000 != 0 {
		t.Errorf("microsecond file kept sub-microsecond precision: %v", rec.Timestamp)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-construct a big-endian microsecond file with one record.
	var buf bytes.Buffer
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], 1)
	buf.Write(hdr[:])
	var rec [16]byte
	binary.BigEndian.PutUint32(rec[0:4], 1700000000)
	binary.BigEndian.PutUint32(rec[4:8], 42)
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec[:])
	buf.Write([]byte{9, 8, 7})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp.Unix() != 1700000000 || got.Timestamp.Nanosecond() != 42000 {
		t.Errorf("timestamp = %v", got.Timestamp)
	}
	if !bytes.Equal(got.Data, []byte{9, 8, 7}) {
		t.Errorf("data = %v", got.Data)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedFileHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte{0xd4, 0xc3}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	_ = w.WritePacket(t0, []byte{1, 2, 3, 4, 5})
	cut := buf.Bytes()[:buf.Len()-2] // drop last 2 payload bytes

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadRecord()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestHugeCapLenAllocatesWhatArrives feeds a header whose snap length
// (0xffff0000) admits a record claiming almost 4 GiB, followed by 1 KB
// of body: the read fails as truncated, and what it allocated follows
// the bytes supplied, not the length claimed. A record within the
// default snap length still reads whole.
func TestHugeCapLenAllocatesWhatArrives(t *testing.T) {
	file := func(caplen uint32, body int) []byte {
		b := make([]byte, 24+16+body)
		binary.LittleEndian.PutUint32(b[0:], MagicMicroseconds)
		binary.LittleEndian.PutUint16(b[4:], 2)
		binary.LittleEndian.PutUint16(b[6:], 4)
		binary.LittleEndian.PutUint32(b[16:], 0xffff0000)
		binary.LittleEndian.PutUint32(b[20:], uint32(LinkTypeEthernet))
		binary.LittleEndian.PutUint32(b[32:], caplen)
		binary.LittleEndian.PutUint32(b[36:], caplen)
		return b
	}
	huge := file(0xfffe0000, 1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadRecord()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading 1 KB of a record claiming %d bytes allocated %d bytes", uint32(0xfffe0000), got)
	}

	// A body larger than DefaultSnapLen but fully present reads whole.
	big := file(DefaultSnapLen+100, DefaultSnapLen+100)
	for i := range big[40:] {
		big[40+i] = byte(i)
	}
	r, err = NewReader(bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Data, big[40:]) {
		t.Errorf("record data: %d bytes read, want the %d supplied", len(rec.Data), len(big)-40)
	}
}

func TestTruncatedRecordHeaderKeepsEarlierRecords(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	_ = w.WritePacket(t0, []byte{1, 2, 3})
	_ = w.WritePacket(t0, []byte{4, 5, 6})
	cut := buf.Bytes()[:24+16+3+8] // second record header cut short

	r, _ := NewReader(bytes.NewReader(cut))
	recs, err := r.ReadAll()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("earlier records lost: %v", recs)
	}
}

func TestOrigLenPreserved(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	_ = w.WriteRecord(Record{Timestamp: t0, OrigLen: 9000, Data: []byte{1, 2}})
	r, _ := NewReader(&buf)
	rec, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if rec.OrigLen != 9000 {
		t.Errorf("OrigLen = %d, want 9000", rec.OrigLen)
	}
}

func TestEmptyFileReadAll(t *testing.T) {
	var buf bytes.Buffer
	_, _ = NewWriter(&buf, LinkTypeEthernet)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// Property: any packet payload round-trips byte-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte, sec uint32, usec uint16) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeEthernet)
		if err != nil {
			return false
		}
		ts := time.Unix(int64(sec), int64(usec)*1000).UTC()
		if err := w.WritePacket(ts, data); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		rec, err := r.ReadRecord()
		if err != nil {
			return false
		}
		return bytes.Equal(rec.Data, data) && rec.Timestamp.Equal(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
