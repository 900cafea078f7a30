// Package pcap reads and writes capture files in the classic libpcap
// format (the .pcap files tcpdump and Wireshark produce).
//
// Both microsecond (magic 0xa1b2c3d4) and nanosecond (0xa1b23c4d)
// timestamp resolutions are supported, in either byte order. The
// reader is failure-tolerant: a truncated trailing record yields
// io.ErrUnexpectedEOF rather than a panic, and earlier records remain
// readable, matching how real capture files are often cut off
// mid-write.
package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers identifying pcap files.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType identifies the layer-2 framing of the capture.
type LinkType uint32

// LinkTypeEthernet is DLT_EN10MB, the only link type the pipeline emits.
const LinkTypeEthernet LinkType = 1

// DefaultSnapLen is the snapshot length written into new file headers.
const DefaultSnapLen = 65535

// ErrBadMagic reports that the stream does not begin with a known pcap
// magic number.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Record is one captured packet as stored in the file.
type Record struct {
	Timestamp time.Time
	// OrigLen is the packet's original length on the wire, which may
	// exceed len(Data) if the capture was truncated by the snap length.
	OrigLen int
	Data    []byte
}

// Writer writes a pcap file.
type Writer struct {
	w     io.Writer
	nanos bool
}

// NewWriter writes a microsecond-resolution pcap file header to w and
// returns a Writer. linkType is typically LinkTypeEthernet.
func NewWriter(w io.Writer, linkType LinkType) (*Writer, error) {
	return newWriter(w, linkType, false)
}

// NewNanoWriter is NewWriter with nanosecond timestamp resolution.
func NewNanoWriter(w io.Writer, linkType LinkType) (*Writer, error) {
	return newWriter(w, linkType, true)
}

func newWriter(w io.Writer, linkType LinkType, nanos bool) (*Writer, error) {
	var hdr [24]byte
	magic := uint32(MagicMicroseconds)
	if nanos {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(linkType))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: w, nanos: nanos}, nil
}

// WriteRecord appends one packet record.
func (w *Writer) WriteRecord(rec Record) error {
	var hdr [16]byte
	ts := rec.Timestamp
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	frac := uint32(ts.Nanosecond())
	if !w.nanos {
		frac /= 1000
	}
	binary.LittleEndian.PutUint32(hdr[4:8], frac)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(rec.Data)))
	orig := rec.OrigLen
	if orig < len(rec.Data) {
		orig = len(rec.Data)
	}
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(orig))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(rec.Data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// WritePacket is a convenience wrapper over WriteRecord.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	return w.WriteRecord(Record{Timestamp: ts, OrigLen: len(data), Data: data})
}

// Reader reads a pcap file.
type Reader struct {
	r        io.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType LinkType
	snapLen  uint32
}

// NewReader parses the file header from r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	rd := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		rd.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		rd.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %08x", ErrBadMagic, magicLE)
	}
	rd.snapLen = rd.order.Uint32(hdr[16:20])
	rd.linkType = LinkType(rd.order.Uint32(hdr[20:24]))
	return rd, nil
}

// LinkType returns the capture's layer-2 type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Nanosecond reports whether timestamps carry nanosecond resolution.
func (r *Reader) Nanosecond() bool { return r.nanos }

// ReadRecord reads the next packet record. It returns io.EOF at a
// clean end of file and io.ErrUnexpectedEOF if the file ends inside a
// record.
func (r *Reader) ReadRecord() (Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("pcap: truncated record header: %w", io.ErrUnexpectedEOF)
		}
		return Record{}, err // io.EOF passes through untouched
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	caplen := r.order.Uint32(hdr[8:12])
	origlen := r.order.Uint32(hdr[12:16])
	if caplen > r.snapLen && r.snapLen > 0 && caplen > DefaultSnapLen {
		return Record{}, fmt.Errorf("pcap: record capture length %d exceeds snap length %d", caplen, r.snapLen)
	}
	data, err := readBody(r.r, caplen)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("pcap: truncated record body: %w", err)
	}
	nanos := int64(frac)
	if !r.nanos {
		nanos *= 1000
	}
	return Record{
		Timestamp: time.Unix(int64(sec), nanos).UTC(),
		OrigLen:   int(origlen),
		Data:      data,
	}, nil
}

// readBody reads exactly n bytes. The header's capture length is
// untrusted (a snap length near 4 GiB lets it claim as much), so a body
// longer than any DefaultSnapLen record is read into a buffer that
// grows with the bytes the stream actually supplies, instead of being
// allocated whole before any of them arrive.
func readBody(r io.Reader, n uint32) ([]byte, error) {
	if n <= DefaultSnapLen {
		data := make([]byte, n)
		_, err := io.ReadFull(r, data)
		return data, err
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadAll reads records until EOF. If the file is truncated mid-record
// it returns the records read so far along with the error.
func (r *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
