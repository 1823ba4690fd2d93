package trace

// Columnar trace segments. A segment is the unit of compressed trace
// retention: one run of records stored column-by-column, each column
// under the encoding its distribution favors, with a footer index that
// lets a reader answer "does this segment matter to my query?" from a
// handful of bytes instead of a full decode.
//
//	┌ header ──────────────────────────────────────────────────┐
//	│ magic u32 │ version u32 │ segLen u32 │ count u32          │
//	├ columns (concatenated, offsets in the footer) ───────────┤
//	│ 0 time     delta-of-delta zigzag varints                  │
//	│ 1 logical  delta-of-delta zigzag varints (ingest ticks)   │
//	│ 2 node     run-length (len uvarint, value zigzag varint)  │
//	│ 3 process  run-length (len uvarint, value zigzag varint)  │
//	│ 4 kind     dictionary (size uvarint, kinds) + RLE indexes │
//	│ 5 tag      delta zigzag varints                           │
//	│ 6 payload  delta zigzag varints                           │
//	├ footer ──────────────────────────────────────────────────┤
//	│ colOff[7] u32 │ colEnd u32                                │
//	│ minTime i64 │ maxTime i64                                 │
//	│ nSources u32 │ nSources × {node i32, count u32,           │
//	│                            minTime i64, maxTime i64}      │
//	│ crc32c u32 │ footerLen u32 │ footerMagic u32              │
//	└──────────────────────────────────────────────────────────┘
//
// The crc32c covers every byte between the header and the crc field
// itself — columns and footer index alike.
//
// Timestamps and ingest ticks are near-monotone, so their second
// differences are small and encode in one to three bytes (measured
// shares in colcodec.go); node and process
// ids arrive in long constant runs (a spill run is a sequence of
// per-source batches); kinds draw from a tiny alphabet. The flat codec
// spends a fixed RecordSize = 36 bytes per record; a segment of the
// pipeline-benchmark workload spends well under 9.
//
// All fixed-width integers are little-endian. Signed varint values use
// zigzag encoding. Delta arithmetic is two's-complement wrapping in
// both directions, so every int64/uint64 bit pattern round-trips
// exactly.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

const (
	segMagic     = 0x47455350 // "PSEG"
	segFootMagic = 0x50455347 // "GSEP"
	segVersion   = 1

	segHeaderSize = 16
	// segFooterBase is the footer size with zero sources; each source
	// range adds segSourceSize bytes.
	segFooterBase = 64
	segSourceSize = 24
	// segMinSize is the smallest well-formed segment (empty, no
	// sources).
	segMinSize = segHeaderSize + segFooterBase
	// MaxSegmentBytes bounds a single segment's encoded size.
	// ParseSegmentHeader refuses larger length claims, so a file framer
	// never sizes a read by one.
	MaxSegmentBytes = 1 << 30
)

// ErrBadSegment is returned for structurally invalid or corrupt
// segment bytes. Decoders never panic on hostile input; they wrap this
// sentinel with a description of what failed.
var ErrBadSegment = errors.New("trace: bad segment")

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// SegmentHeaderSize is the fixed 16-byte prefix every encoded segment
// starts with: magic, version, encoded length, record count.
const SegmentHeaderSize = segHeaderSize

// ParseSegmentHeader validates a segment's fixed header prefix and
// returns its record count and total encoded length (header through
// footer). Callers use it to frame segments inside a larger file
// without touching column bytes; Parse re-validates the full framing.
func ParseSegmentHeader(hdr []byte) (count, segLen int, err error) {
	if len(hdr) < SegmentHeaderSize {
		return 0, 0, fmt.Errorf("%w: %d bytes is shorter than a header", ErrBadSegment, len(hdr))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != segMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x", ErrBadSegment, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadSegment, v)
	}
	segLen = int(binary.LittleEndian.Uint32(hdr[8:]))
	if segLen < segMinSize || segLen > MaxSegmentBytes {
		return 0, 0, fmt.Errorf("%w: segment length %d outside [%d, %d]", ErrBadSegment, segLen, segMinSize, MaxSegmentBytes)
	}
	return int(binary.LittleEndian.Uint32(hdr[12:])), segLen, nil
}

// SourceRange is one per-source entry in a segment's footer index: how
// many of the segment's records a node contributed and the time span
// they cover.
type SourceRange struct {
	Node    int32
	Count   int
	MinTime int64
	MaxTime int64
}

// AppendSegment appends the columnar segment encoding of rs to dst and
// returns the extended slice. The records are stored in the given
// order and decode byte-identically. The column encoder lives in
// colcodec.go, shared with the wire frame codec.
func AppendSegment(dst []byte, rs []Record) []byte {
	base := len(dst)
	// Header; segLen is patched once the total is known.
	dst = binary.LittleEndian.AppendUint32(dst, segMagic)
	dst = binary.LittleEndian.AppendUint32(dst, segVersion)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))

	// Columns: the wire frame body, byte for byte.
	var cc ColumnCodec
	var colOff [numColumns]int
	dst = cc.appendColumns(dst, rs, &colOff)
	colEnd := uint32(len(dst) - base)

	// Footer.
	for _, off := range colOff {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(off-base))
	}
	dst = binary.LittleEndian.AppendUint32(dst, colEnd)
	minT, maxT := timeRange(rs)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(minT))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(maxT))
	sources := collectSources(rs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sources)))
	for _, s := range sources {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Node))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Count))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.MinTime))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.MaxTime))
	}
	// The checksum covers the columns AND the footer index (everything
	// between the header and the crc field itself): a flipped index
	// byte must fail loudly, not silently misdirect range queries.
	crc := crc32.Checksum(dst[base+segHeaderSize:], segCRC)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	footerLen := uint32(segFooterBase + segSourceSize*len(sources))
	dst = binary.LittleEndian.AppendUint32(dst, footerLen)
	dst = binary.LittleEndian.AppendUint32(dst, segFootMagic)

	binary.LittleEndian.PutUint32(dst[base+8:], uint32(len(dst)-base))
	return dst
}

// timeRange returns the min and max capture time over rs (zeros for an
// empty run).
func timeRange(rs []Record) (int64, int64) {
	if len(rs) == 0 {
		return 0, 0
	}
	minT, maxT := rs[0].Time, rs[0].Time
	for i := 1; i < len(rs); i++ {
		if t := rs[i].Time; t < minT {
			minT = t
		} else if t > maxT {
			maxT = t
		}
	}
	return minT, maxT
}

// collectSources returns per-node counts and time spans over rs, sorted
// by node. Records arrive in per-source runs (one LIS flush each), so
// the previous record's entry is tried before the search.
func collectSources(rs []Record) []SourceRange {
	var dst []SourceRange
	j := 0
	for i := range rs {
		r := &rs[i]
		if j == len(dst) || dst[j].Node != r.Node {
			j = 0
			for j < len(dst) && dst[j].Node != r.Node {
				j++
			}
			if j == len(dst) {
				dst = append(dst, SourceRange{Node: r.Node, MinTime: r.Time, MaxTime: r.Time})
			}
		}
		s := &dst[j]
		s.Count++
		s.MinTime = min(s.MinTime, r.Time)
		s.MaxTime = max(s.MaxTime, r.Time)
	}
	slices.SortFunc(dst, func(a, b SourceRange) int { return int(a.Node) - int(b.Node) })
	return dst
}

// Segment is a parsed columnar segment: the footer index is decoded,
// the columns stay lazy until a decode call. The zero value is ready;
// Parse may be called repeatedly to reuse the index and decode scratch
// across segments.
type Segment struct {
	buf      []byte
	count    int
	minTime  int64
	maxTime  int64
	sources  []SourceRange
	colOff   [numColumns + 1]int
	filtered []Record // reused scratch for filtered decodes
}

// Parse reads the segment at the start of buf, returning the bytes
// following it. It validates framing, the footer index and the column
// checksum; the per-column decode work is deferred to the Append*
// methods. The Segment aliases buf, which must stay immutable while
// the Segment is in use.
func (s *Segment) Parse(buf []byte) ([]byte, error) {
	if len(buf) < segHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrBadSegment, len(buf))
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != segMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadSegment, m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSegment, v)
	}
	segLen := int(binary.LittleEndian.Uint32(buf[8:]))
	if segLen < segMinSize || segLen > len(buf) {
		return nil, fmt.Errorf("%w: segment length %d outside [%d, %d]", ErrBadSegment, segLen, segMinSize, len(buf))
	}
	count := int(binary.LittleEndian.Uint32(buf[12:]))
	b := buf[:segLen]

	if m := binary.LittleEndian.Uint32(b[segLen-4:]); m != segFootMagic {
		return nil, fmt.Errorf("%w: bad footer magic %#x", ErrBadSegment, m)
	}
	footerLen := int(binary.LittleEndian.Uint32(b[segLen-8:]))
	if footerLen < segFooterBase || footerLen > segLen-segHeaderSize {
		return nil, fmt.Errorf("%w: footer length %d outside [%d, %d]", ErrBadSegment, footerLen, segFooterBase, segLen-segHeaderSize)
	}
	foot := b[segLen-footerLen:]
	var colOff [numColumns + 1]int
	for i := 0; i < numColumns; i++ {
		colOff[i] = int(binary.LittleEndian.Uint32(foot[4*i:]))
	}
	colEnd := int(binary.LittleEndian.Uint32(foot[4*numColumns:]))
	colOff[numColumns] = colEnd
	if colEnd != segLen-footerLen {
		return nil, fmt.Errorf("%w: column end %d does not meet footer start %d", ErrBadSegment, colEnd, segLen-footerLen)
	}
	prev := segHeaderSize
	for i := 0; i <= numColumns; i++ {
		if colOff[i] < prev || colOff[i] > colEnd {
			return nil, fmt.Errorf("%w: column %d offset %d outside [%d, %d]", ErrBadSegment, i, colOff[i], prev, colEnd)
		}
		prev = colOff[i]
	}
	if colOff[0] != segHeaderSize {
		return nil, fmt.Errorf("%w: first column starts at %d, want %d", ErrBadSegment, colOff[0], segHeaderSize)
	}
	// Every varint column spends at least one byte per record, so an
	// absurd count claim is caught before any decode buffer is sized
	// by it.
	for _, c := range [...]int{0, 1, 5, 6} {
		if colOff[c+1]-colOff[c] < count {
			return nil, fmt.Errorf("%w: column %d has %d bytes for %d records", ErrBadSegment, c, colOff[c+1]-colOff[c], count)
		}
	}
	minTime := int64(binary.LittleEndian.Uint64(foot[32:]))
	maxTime := int64(binary.LittleEndian.Uint64(foot[40:]))
	nSources := int(binary.LittleEndian.Uint32(foot[48:]))
	if footerLen != segFooterBase+segSourceSize*nSources {
		return nil, fmt.Errorf("%w: footer length %d does not fit %d sources", ErrBadSegment, footerLen, nSources)
	}
	sources := s.sources[:0]
	total := 0
	prevNode := int64(math.MinInt64)
	for i := 0; i < nSources; i++ {
		off := 52 + segSourceSize*i
		sr := SourceRange{
			Node:    int32(binary.LittleEndian.Uint32(foot[off:])),
			Count:   int(binary.LittleEndian.Uint32(foot[off+4:])),
			MinTime: int64(binary.LittleEndian.Uint64(foot[off+8:])),
			MaxTime: int64(binary.LittleEndian.Uint64(foot[off+16:])),
		}
		if int64(sr.Node) <= prevNode {
			return nil, fmt.Errorf("%w: source index not strictly ascending at node %d", ErrBadSegment, sr.Node)
		}
		prevNode = int64(sr.Node)
		total += sr.Count
		sources = append(sources, sr)
	}
	if total != count {
		return nil, fmt.Errorf("%w: source counts sum to %d, segment claims %d records", ErrBadSegment, total, count)
	}
	if want := binary.LittleEndian.Uint32(foot[52+segSourceSize*nSources:]); crc32.Checksum(b[segHeaderSize:segLen-12], segCRC) != want {
		return nil, fmt.Errorf("%w: segment checksum mismatch", ErrBadSegment)
	}

	s.buf = b
	s.count = count
	s.minTime, s.maxTime = minTime, maxTime
	s.sources = sources
	s.colOff = colOff
	return buf[segLen:], nil
}

// DecodeSegments decodes a stream of concatenated segments, such as a
// Writer's output, appending the records to dst. It returns the
// extended slice and n, the length of the prefix of buf that whole
// segments cover. At the first torn or corrupt segment it stops with an
// error wrapping ErrBadSegment; the records and n then cover the
// segments before it. The error also wraps io.ErrUnexpectedEOF when
// that segment is only cut short by the end of buf — the torn tail a
// crash mid-write leaves — and not corrupt or of another format.
func DecodeSegments(dst []Record, buf []byte) ([]Record, int, error) {
	var seg Segment
	n := 0
	for n < len(buf) {
		rest, err := seg.Parse(buf[n:])
		if err == nil {
			dst, err = seg.AppendRecords(dst)
		}
		if err != nil {
			if cutShort(buf[n:]) {
				return dst, n, fmt.Errorf("%w (segment at byte %d cut short: %w)", err, n, io.ErrUnexpectedEOF)
			}
			return dst, n, fmt.Errorf("%w (segment at byte %d)", err, n)
		}
		n = len(buf) - len(rest)
	}
	return dst, n, nil
}

// cutShort reports whether b is the start of a segment that runs past
// the end of b: the magic and version bytes present are right, and a
// whole header claims more bytes than b holds.
func cutShort(b []byte) bool {
	if len(b) >= segHeaderSize {
		_, segLen, err := ParseSegmentHeader(b)
		return err == nil && segLen > len(b)
	}
	var want [8]byte
	binary.LittleEndian.PutUint32(want[0:], segMagic)
	binary.LittleEndian.PutUint32(want[4:], segVersion)
	k := min(len(b), len(want))
	return string(b[:k]) == string(want[:k])
}

// Count returns the number of records in the segment.
func (s *Segment) Count() int { return s.count }

// Len returns the segment's encoded length in bytes.
func (s *Segment) Len() int { return len(s.buf) }

// MinTime returns the earliest capture time in the segment.
func (s *Segment) MinTime() int64 { return s.minTime }

// MaxTime returns the latest capture time in the segment.
func (s *Segment) MaxTime() int64 { return s.maxTime }

// Sources returns the per-source footer index, sorted by node. The
// slice is owned by the Segment and valid until the next Parse.
func (s *Segment) Sources() []SourceRange { return s.sources }

// Overlaps reports whether any record's time could fall in
// [minT, maxT] — the segment-skipping test for time-range reads.
func (s *Segment) Overlaps(minT, maxT int64) bool {
	return s.count > 0 && s.minTime <= maxT && s.maxTime >= minT
}

// HasSource reports whether the segment holds records from node — the
// segment-skipping test for per-source reads.
func (s *Segment) HasSource(node int32) bool {
	_, ok := slices.BinarySearchFunc(s.sources, node, func(sr SourceRange, n int32) int {
		return int(sr.Node) - int(n)
	})
	return ok
}

// AppendRecords decodes every record in the segment, appending to dst.
// The footer's column offsets let the four varint columns decode in
// one pass (decodeColumnsAt); every column must be consumed exactly.
// On error dst is returned at its original length. With sufficient
// capacity in dst the decode performs no allocation.
func (s *Segment) AppendRecords(dst []Record) ([]Record, error) {
	base := len(dst)
	dst = slices.Grow(dst, s.count)[:base+s.count]
	if err := decodeColumnsAt(s.buf, &s.colOff, dst[base:]); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// AppendRange decodes the records whose capture time falls in
// [minT, maxT], appending to dst. Segments whose footer excludes the
// range are skipped without touching the columns.
func (s *Segment) AppendRange(dst []Record, minT, maxT int64) ([]Record, error) {
	if !s.Overlaps(minT, maxT) {
		return dst, nil
	}
	var err error
	s.filtered, err = s.AppendRecords(s.filtered[:0])
	if err != nil {
		return dst, err
	}
	for _, r := range s.filtered {
		if r.Time >= minT && r.Time <= maxT {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// AppendSource decodes the records contributed by node, appending to
// dst. Segments without that source are skipped via the footer index.
func (s *Segment) AppendSource(dst []Record, node int32) ([]Record, error) {
	if !s.HasSource(node) {
		return dst, nil
	}
	var err error
	s.filtered, err = s.AppendRecords(s.filtered[:0])
	if err != nil {
		return dst, err
	}
	for _, r := range s.filtered {
		if r.Node == node {
			dst = append(dst, r)
		}
	}
	return dst, nil
}
