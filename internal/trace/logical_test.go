package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// withSources gives the records of rs the sources ids lists, drawn at
// random, and stamps each with its source's capture sequence, counting
// up by one from a base below 1<<24: the logical column of the base
// form.
func withSources(rng *rand.Rand, rs []Record, ids []SourceKey) []Record {
	next := map[SourceKey]uint64{}
	for i := range rs {
		k := ids[rng.Intn(len(ids))]
		if _, ok := next[k]; !ok {
			next[k] = uint64(rng.Intn(1 << 24))
		}
		rs[i].Node, rs[i].Process, rs[i].Logical = k.Node, k.Process, next[k]
		next[k]++
	}
	return rs
}

// sourceIDs lists n sources over two processes a node, from node 0 up.
func sourceIDs(n int) []SourceKey {
	ids := make([]SourceKey, n)
	for i := range ids {
		ids[i] = SourceKey{Node: int32(i / 2), Process: int32(i % 2)}
	}
	return ids
}

// logicalForm returns the form byte of the logical column of rs's
// encoding, after decoding it through both entries and the serial
// reference (decodeBoth).
func logicalForm(t *testing.T, what string, rs []Record) byte {
	t.Helper()
	decodeBoth(t, what, rs)
	var cc ColumnCodec
	var off [numColumns]int
	buf := cc.appendColumns(nil, rs, &off)
	return buf[off[1]]
}

// logicalSizes returns what the logical column of rs costs in each
// form, past the form byte: the base form's count and bases, and the
// delta form's varints.
func logicalSizes(rs []Record) (bases, deltas int) {
	seen := map[SourceKey]bool{}
	for _, r := range rs {
		if k := (SourceKey{r.Node, r.Process}); !seen[k] {
			seen[k] = true
			bases += uvarintLen(r.Logical)
		}
	}
	bases += uvarintLen(uint64(len(seen)))
	var prev, prevDelta int64
	for _, r := range rs {
		delta := int64(r.Logical) - prev
		deltas += uvarintLen(zigzag(delta - prevDelta))
		prev, prevDelta = int64(r.Logical), delta
	}
	return bases, deltas
}

// TestLogicalFormSelection pins which form the encoder gives the
// logical column, the data alone choosing: per-source contiguous frames
// take the base form up to the source table's 32 sources of small ids,
// and the delta form past them (300 sources, node ids past 32, process
// ids past 8, negative ids); one gap anywhere falls back to the delta
// form; a sequence that wraps from MaxUint64 to 0 still counts up by
// one; and a frame of only new sources takes whichever form is
// smaller. Every case round-trips through both decoder entries and the
// serial reference.
func TestLogicalFormSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, sources := range [...]int{1, 2, 8, 16, 32, 33, 300} {
		for _, n := range [...]int{64, 512, 8192} {
			rs := withSources(rng, mixBatch(rng, n, measuredMix), sourceIDs(sources))
			// A short frame may not draw every source.
			seen := map[SourceKey]bool{}
			for _, r := range rs {
				seen[SourceKey{r.Node, r.Process}] = true
			}
			want := byte(logicalBases)
			if len(seen) > smallSources {
				want = logicalDelta
			}
			what := fmt.Sprintf("%d of %d sources, %d records", len(seen), sources, n)
			if got := logicalForm(t, what, rs); got != want {
				t.Fatalf("%s: form %d, want form %d", what, got, want)
			}
			// One record of one source skips a sequence number: every
			// later record of that source follows the gap.
			at := n/2 + rng.Intn(n/2)
			k := SourceKey{rs[at].Node, rs[at].Process}
			gap := append([]Record(nil), rs...)
			for i := at; i < n; i++ {
				if (SourceKey{gap[i].Node, gap[i].Process}) == k {
					gap[i].Logical++
				}
			}
			if got := logicalForm(t, what+" with a gap", gap); got != logicalDelta {
				t.Fatalf("%s with a gap at record %d: form %d, want the delta form", what, at, got)
			}
		}
	}
	// Sources the small table cannot index, among them a process id
	// whose slot arithmetic could wrap round to that of a small one.
	for _, ids := range [][]SourceKey{
		{{Node: -1}, {Node: 0}, {Node: 1, Process: 1}},
		{{Node: 64}, {Node: 3}},
		{{Node: 2, Process: 8}, {Node: 2}},
		{{Node: math.MinInt32, Process: math.MaxInt32}},
		{{Node: 0}, {Node: 0, Process: math.MinInt32}},
		{{Node: 1, Process: 1 << 30}, {Node: 1}},
	} {
		what := fmt.Sprintf("sources %v", ids)
		rs := withSources(rng, mixBatch(rng, 256, measuredMix), ids)
		if got := logicalForm(t, what, rs); got != logicalDelta {
			t.Fatalf("%s: form %d, want the delta form", what, got)
		}
	}
	// Two sources a wrapped slot would merge into one, whose records
	// together count up by one: the frame is not per-source contiguous.
	merged := []Record{{Logical: 5}, {Process: math.MinInt32, Logical: 6}, {Logical: 7}}
	if got := logicalForm(t, "merged sources", merged); got != logicalDelta {
		t.Fatalf("merged sources: form %d, want the delta form", got)
	}
	// A source whose sequence wraps from MaxUint64 to 0 mid-frame.
	rs := withSources(rng, mixBatch(rng, 64, measuredMix), sourceIDs(2))
	for i := range rs {
		rs[i].Logical -= 20
	}
	if got := logicalForm(t, "wrapping", rs); got != logicalBases {
		t.Fatalf("wrapping: form %d, want the base form", got)
	}
	// Every record a new source: the bases cost at least a byte a
	// record, so the form follows the sizes, on a tie the base form.
	ids := sourceIDs(smallSources)
	for _, c := range []struct {
		name    string
		logical func(i int) uint64
	}{
		{"consecutive stamps", func(i int) uint64 { return uint64(i) }},
		{"equal one-byte bases", func(i int) uint64 { return 5 }},
		{"scattered large bases", func(i int) uint64 { return rng.Uint64() }},
		{"scattered small bases", func(i int) uint64 { return uint64(rng.Intn(100)) }},
	} {
		rs := mixBatch(rng, len(ids), measuredMix)
		for i := range rs {
			rs[i].Node, rs[i].Process, rs[i].Logical = ids[i].Node, ids[i].Process, c.logical(i)
		}
		bases, deltas := logicalSizes(rs)
		want := byte(logicalDelta)
		if bases <= deltas {
			want = logicalBases
		}
		if got := logicalForm(t, c.name, rs); got != want {
			t.Fatalf("all new sources, %s: form %d with bases of %d bytes and deltas of %d, want form %d", c.name, got, bases, deltas, want)
		}
	}
}

// TestLogicalLamportColumn pins the delta form against the format it
// extends: a Lamport-stamped batch (one stamp per record across
// sources) encodes to the bytes the encoder wrote before the base form
// existed, plus its one form byte. The length and checksum are those
// of that encoder's output for the same records.
func TestLogicalLamportColumn(t *testing.T) {
	const (
		beforeLen = 5705
		beforeCRC = 0x7c92df1a
	)
	rs := mixBatch(rand.New(rand.NewSource(49)), 512, measuredMix)
	for i := range rs {
		rs[i].Logical = 1000 + uint64(i) + uint64(i/7)
	}
	var cc ColumnCodec
	var off [numColumns]int
	buf := cc.appendColumns(nil, rs, &off)
	if buf[off[1]] != logicalDelta {
		t.Fatalf("form %d, want the delta form", buf[off[1]])
	}
	before := append(append([]byte(nil), buf[:off[1]]...), buf[off[1]+1:]...)
	if len(before) != beforeLen || crc32.ChecksumIEEE(before) != beforeCRC {
		t.Fatalf("without its form byte: %d bytes, crc %#x; want %d bytes, crc %#x", len(before), crc32.ChecksumIEEE(before), beforeLen, beforeCRC)
	}
	decodeBoth(t, "lamport", rs)
}

// hostileBase is a logical column that decoders must reject in a
// batch of hostileBaseRecords records, and the error each decoder entry
// must return.
type hostileBase struct {
	name    string
	col     []byte // the logical column, form byte included
	wire    string // DecodeColumns's error
	segment string // a segment decode's error
	node    int32  // the batch's first node id, when not 1
}

// hostileBaseRecords is the record count every hostileBase is decoded
// as: two sources, (node, 0) and then (node+1, 0), alternating.
const hostileBaseRecords = 8

var hostileBases = func() []hostileBase {
	bad := func(what string) string { return fmt.Sprintf("%v: %s", ErrBadSegment, what) }
	return []hostileBase{
		{
			name:    "base count above the record count",
			col:     []byte{logicalBases, hostileBaseRecords + 1, 5, 9},
			wire:    bad("logical column claims 9 bases for 8 records"),
			segment: bad("logical column claims 9 bases for 8 records"),
		},
		{
			name:    "fewer bases than distinct sources",
			col:     []byte{logicalBases, 1, 5},
			wire:    bad("logical column has 1 bases for more sources"),
			segment: bad("logical column has 1 bases for more sources"),
		},
		{
			name:    "more bases than distinct sources",
			col:     []byte{logicalBases, 3, 5, 9, 11},
			wire:    bad("logical column has 3 bases for 2 sources"),
			segment: bad("logical column has 3 bases for 2 sources"),
		},
		{
			// The wire decoder finds the column's end by its count of
			// varints, so a short list reads on into the node column,
			// which then fails; a segment's footer ends the column.
			name:    "truncated base list",
			col:     []byte{logicalBases, 2, 5},
			wire:    bad("process run of 4 exceeds remaining 2 records"),
			segment: bad("truncated or overlong base of source 1 in logical column"),
		},
		{
			name:    "truncated base",
			col:     []byte{logicalBases, 2, 5, 0x89},
			wire:    bad("process run of 4 exceeds remaining 2 records"),
			segment: bad("truncated or overlong base of source 1 in logical column"),
		},
		{
			name:    "overlong base",
			col:     append([]byte{logicalBases, 2, 5}, append(bytes.Repeat([]byte{0x80}, 10), 1)...),
			wire:    bad("truncated or overlong base of source 1 in logical column"),
			segment: bad("truncated or overlong base of source 1 in logical column"),
		},
		{
			// On the wire the node column's first byte reads as the
			// form byte; a segment's footer shows the empty column.
			name:    "no form byte",
			col:     nil,
			wire:    bad("node run of 8 exceeds remaining 2 records"),
			segment: bad("column 1 has no form byte"),
		},
		{
			name:    "bases for sources outside the table",
			col:     []byte{logicalBases, 2, 5, 9},
			wire:    bad("logical column has bases for 2 sources outside the source table"),
			segment: bad("logical column has bases for 2 sources outside the source table"),
			node:    -1,
		},
		{
			name:    "unknown form",
			col:     []byte{2, 0},
			wire:    bad("logical column of unknown form 2"),
			segment: bad("logical column of unknown form 2"),
		},
	}
}()

// hostileBaseBatch is the batch a hostileBase replaces the logical
// column of, its sources' nodes from node up.
func hostileBaseBatch(node int32) []Record {
	rs := mixBatch(rand.New(rand.NewSource(8)), hostileBaseRecords, measuredMix)
	for i := range rs {
		rs[i].Node, rs[i].Process, rs[i].Logical = node+int32(i%2), 0, uint64(5+i/2)
	}
	return rs
}

// withLogicalCol returns the wire body and the segment of h's batch
// with its logical column replaced by h.col.
func withLogicalCol(tb testing.TB, h hostileBase) (body, seg []byte) {
	tb.Helper()
	node := h.node
	if node == 0 {
		node = 1
	}
	in := hostileBaseBatch(node)
	var off [numColumns]int
	var cc ColumnCodec
	buf := cc.appendColumns(nil, in, &off)
	body = append(append(append([]byte(nil), buf[:off[1]]...), h.col...), buf[off[2]:]...)
	return body, withColumn(tb, AppendSegment(nil, in), 1, h.col)
}

// TestLogicalHostileBases pins the error each decoder entry returns for
// each malformed base-form column, and that the serial reference
// rejects it too; none may panic.
func TestLogicalHostileBases(t *testing.T) {
	for _, h := range hostileBases {
		body, seg := withLogicalCol(t, h)
		if err := serialDecodeColumns(body, make([]Record, hostileBaseRecords)); !errors.Is(err, ErrBadSegment) {
			t.Errorf("%s: serial decode error %v, want ErrBadSegment", h.name, err)
		}
		if err := DecodeColumns(body, make([]Record, hostileBaseRecords)); err == nil || err.Error() != h.wire {
			t.Errorf("%s: wire decode error %v, want %q", h.name, err, h.wire)
		}
		var s Segment
		_, err := s.Parse(seg)
		if err == nil {
			_, err = s.AppendRecords(nil)
		}
		if err == nil || err.Error() != h.segment {
			t.Errorf("%s: segment decode error %v, want %q", h.name, err, h.segment)
		}
	}
}

// TestSegmentVersionRefused pins that a segment of the first version,
// whose logical column had no form byte, is refused by every entry
// that frames or parses segments, with the unsupported-version error.
func TestSegmentVersionRefused(t *testing.T) {
	seg := AppendSegment(nil, hostileBaseBatch(1))
	binary.LittleEndian.PutUint32(seg[4:], 1)
	want := fmt.Sprintf("%v: unsupported version 1", ErrBadSegment)
	if _, _, err := ParseSegmentHeader(seg); err == nil || err.Error() != want {
		t.Errorf("ParseSegmentHeader: %v, want %q", err, want)
	}
	var s Segment
	if _, err := s.Parse(seg); err == nil || err.Error() != want {
		t.Errorf("Parse: %v, want %q", err, want)
	}
	if _, n, err := DecodeSegments(nil, seg); n != 0 || !errors.Is(err, ErrBadSegment) {
		t.Errorf("DecodeSegments: %d bytes, %v; want 0 and ErrBadSegment", n, err)
	}
}
