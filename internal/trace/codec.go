package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format. Each file starts with a magic/version header;
// records are fixed-width little-endian, chosen so a flush of l
// records is a single contiguous write — the property the PICL flush
// cost model f(l) = c0 + c1·l depends on.

const (
	magic         = 0x50524953 // "PRIS"
	formatVersion = 1
	// RecordSize is the encoded size of one record in bytes.
	RecordSize = 4 + 4 + 1 + 2 + 8 + 8 + 8 + 1 // +1 pad to 36
)

// ErrBadHeader is returned when a trace header is malformed.
var ErrBadHeader = errors.New("trace: bad header")

// Writer encodes records to an io.Writer in the binary trace format.
type Writer struct {
	w       *bufio.Writer
	wrote   int
	started bool
	// buf is the per-record encode scratch; keeping it on the struct
	// rather than the stack stops it escaping into a fresh heap
	// allocation at every Write (the slice is passed through the
	// io.Writer interface).
	buf [RecordSize]byte
	// batch is the WriteAll coalescing scratch: a chunk of records is
	// encoded here and handed to the underlying writer as one write,
	// so a flush of l records costs O(l/chunk) writes instead of l.
	batch []byte
}

// NewWriter creates a trace Writer on w. The header is written lazily
// on the first record (or by Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// NewAppendWriter creates a Writer that continues an existing trace
// stream: no header is emitted, because the stream's original header
// already covers the appended records. Use it when w is positioned at
// the end of a file a previous Writer started — writing a fresh header
// there would corrupt the stream for every subsequent reader.
func NewAppendWriter(w io.Writer) *Writer {
	tw := NewWriter(w)
	tw.started = true
	return tw
}

func (tw *Writer) writeHeader() error {
	if tw.started {
		return nil
	}
	tw.started = true
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:], magic)
	binary.LittleEndian.PutUint32(h[4:], formatVersion)
	_, err := tw.w.Write(h[:])
	return err
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	EncodeRecord(&tw.buf, r)
	if _, err := tw.w.Write(tw.buf[:]); err != nil {
		return err
	}
	tw.wrote++
	return nil
}

// writeAllChunk bounds the WriteAll coalescing scratch (records per
// encoded chunk): large enough to amortize the per-write overhead,
// small enough that the scratch stays cache- and pool-friendly.
const writeAllChunk = 512

// WriteAll appends all records, coalescing the encode into chunked
// bulk writes instead of one buffered write per record.
func (tw *Writer) WriteAll(rs []Record) error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	for len(rs) > 0 {
		n := len(rs)
		if n > writeAllChunk {
			n = writeAllChunk
		}
		need := n * RecordSize
		if cap(tw.batch) < need {
			tw.batch = make([]byte, need)
		}
		buf := tw.batch[:need]
		for i, r := range rs[:n] {
			PutRecord(buf[i*RecordSize:], r)
		}
		if _, err := tw.w.Write(buf); err != nil {
			return err
		}
		tw.wrote += n
		rs = rs[n:]
	}
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() int { return tw.wrote }

// Flush writes the header if needed and flushes buffered output.
func (tw *Writer) Flush() error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// PutRecord encodes r into the first RecordSize bytes of buf. It is
// the in-place building block the batch wire path uses to encode a
// whole frame after a single slice grow; EncodeRecord wraps it for
// fixed-array callers.
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

// EncodeRecord encodes r into buf.
func EncodeRecord(buf *[RecordSize]byte, r Record) { PutRecord(buf[:], r) }

// DecodeRecord decodes a record from buf.
func DecodeRecord(buf *[RecordSize]byte) Record { return GetRecord(buf[:]) }

// Reader decodes records from an io.Reader.
type Reader struct {
	r       *bufio.Reader
	started bool
	buf     [RecordSize]byte // per-record decode scratch, see Writer.buf
}

// NewReader creates a trace Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (tr *Reader) readHeader() error {
	if tr.started {
		return nil
	}
	tr.started = true
	var h [8]byte
	if _, err := io.ReadFull(tr.r, h[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != magic {
		return fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != formatVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadHeader, v)
	}
	return nil
}

// Read returns the next record, or io.EOF at end of trace.
func (tr *Reader) Read() (Record, error) {
	if err := tr.readHeader(); err != nil {
		return Record{}, err
	}
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	r := DecodeRecord(&tr.buf)
	if !r.Kind.Valid() {
		return Record{}, fmt.Errorf("trace: invalid kind %d", r.Kind)
	}
	return r, nil
}

// ReadAll reads records until EOF.
func (tr *Reader) ReadAll() ([]Record, error) { return tr.ReadAllHint(0) }

// ReadAllHint reads records until EOF, pre-sizing the result for n
// records. Callers that know the encoded size (spool bytes divided by
// RecordSize) avoid the append regrowth copies of a cold ReadAll.
func (tr *Reader) ReadAllHint(n int) ([]Record, error) {
	out := make([]Record, 0, n)
	for {
		r, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
