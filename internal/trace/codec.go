package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Trace streams at rest. A Writer stores records as a stream of
// columnar segments (segment.go) with no stream header: every segment
// frames and checksums itself, so continuing a stream — a restarted
// manager appending to its spool — is a plain append, and
// DecodeSegments reads any such stream back. A sealed segment is one
// contiguous write, the property the PICL flush cost model
// f(l) = c0 + c1·l depends on.
//
// The fixed-width record layout (PutRecord, GetRecord) is the transfer
// protocol's flat data frame.

// RecordSize is the encoded size of one fixed-width record in bytes.
const RecordSize = 4 + 4 + 1 + 2 + 8 + 8 + 8 + 1 // +1 pad to 36

// spoolSegmentRecords is how many records a Writer buffers before it
// seals them as one segment: enough to spread a segment's fixed header,
// footer and per-source index (80 B plus 24 B per source) to under a
// byte per record at 16 sources, few enough that a stream which is
// never flushed still reaches its io.Writer a segment at a time.
const spoolSegmentRecords = 512

// Writer encodes records to an io.Writer as a segment stream. It seals
// a segment every spoolSegmentRecords records and at Flush, so the
// bytes depend only on the records and on where Flush was called.
type Writer struct {
	w    *bufio.Writer
	pend []Record // not yet sealed; fewer than spoolSegmentRecords
	seg  []byte   // encode scratch for one segment
}

// NewWriter creates a trace Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	one := [1]Record{r}
	return tw.WriteAll(one[:])
}

// WriteAll appends all records.
func (tw *Writer) WriteAll(rs []Record) error {
	for len(rs) > 0 {
		n := min(len(rs), spoolSegmentRecords-len(tw.pend))
		tw.pend = append(tw.pend, rs[:n]...)
		rs = rs[n:]
		if len(tw.pend) == spoolSegmentRecords {
			if err := tw.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal encodes the pending records as one segment and hands it to the
// buffered writer in one write.
func (tw *Writer) seal() error {
	tw.seg = AppendSegment(tw.seg[:0], tw.pend)
	tw.pend = tw.pend[:0]
	_, err := tw.w.Write(tw.seg)
	return err
}

// Flush seals the pending records, if any, as one segment and flushes
// buffered output. A stream flushed before any record is empty.
func (tw *Writer) Flush() error {
	if len(tw.pend) > 0 {
		if err := tw.seal(); err != nil {
			return err
		}
	}
	return tw.w.Flush()
}

// PutRecord encodes r into the first RecordSize bytes of buf. It is
// the in-place building block the batch wire path uses to encode a
// whole frame after a single slice grow.
func PutRecord(buf []byte, r Record) {
	_ = buf[RecordSize-1] // one bounds check for the whole record
	binary.LittleEndian.PutUint32(buf[0:], uint32(r.Node))
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.Process))
	buf[8] = byte(r.Kind)
	binary.LittleEndian.PutUint16(buf[9:], r.Tag)
	binary.LittleEndian.PutUint64(buf[11:], uint64(r.Time))
	binary.LittleEndian.PutUint64(buf[19:], r.Logical)
	binary.LittleEndian.PutUint64(buf[27:], uint64(r.Payload))
	buf[35] = 0
}

// GetRecord decodes a record from the first RecordSize bytes of buf —
// the zero-copy dual of PutRecord, letting readers decode straight out
// of a frame body without a per-record staging copy.
func GetRecord(buf []byte) Record {
	_ = buf[RecordSize-1]
	return Record{
		Node:    int32(binary.LittleEndian.Uint32(buf[0:])),
		Process: int32(binary.LittleEndian.Uint32(buf[4:])),
		Kind:    Kind(buf[8]),
		Tag:     binary.LittleEndian.Uint16(buf[9:]),
		Time:    int64(binary.LittleEndian.Uint64(buf[11:])),
		Logical: binary.LittleEndian.Uint64(buf[19:]),
		Payload: int64(binary.LittleEndian.Uint64(buf[27:])),
	}
}
