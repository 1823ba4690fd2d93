package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prism/internal/raceflag"
)

// extremesBatch builds records from int64/uint64/int32 extremes, so
// deltas wrap and most varints run to 9–10 bytes (5 for run values).
// Kinds stay valid: a dictionary entry outside the defined set is a
// decode error, not an extreme.
func extremesBatch(rng *rand.Rand, n int) []Record {
	i64 := [...]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1}
	i32 := [...]int32{math.MinInt32, math.MaxInt32, 0, -1}
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = Record{
			Node:    i32[rng.Intn(len(i32))],
			Process: i32[rng.Intn(len(i32))],
			Kind:    Kind(rng.Intn(int(numKinds))),
			Tag:     uint16(rng.Intn(2)) * math.MaxUint16,
			Time:    i64[rng.Intn(len(i64))],
			Logical: uint64(i64[rng.Intn(len(i64))]),
			Payload: i64[rng.Intn(len(i64))],
		}
	}
	return rs
}

// serialDecodeColumns decodes a wire body one column after another,
// each starting where the last ended, so it needs no column boundaries.
// It is the reference the differential tests and both decoder fuzzers
// hold the production decoders to, and shares none of their column
// loops: every column, run columns included, is a plain loop over one
// varint at a time.
func serialDecodeColumns(buf []byte, out []Record) error {
	// uvarint reads one varint of column ci from the front of buf.
	uvarint := func(ci int) (uint64, error) {
		if len(buf) > 0 && buf[0] < 0x80 {
			u := uint64(buf[0])
			buf = buf[1:]
			return u, nil
		}
		u, rest, err := uvarintSlow(buf, colNames[ci])
		buf = rest
		return u, err
	}
	var prev, prevDelta int64
	for i := range out {
		u, err := uvarint(0)
		if err != nil {
			return err
		}
		prevDelta += unzigzag(u)
		prev += prevDelta
		out[i].Time = prev
	}
	prev, prevDelta = 0, 0
	for i := range out {
		u, err := uvarint(1)
		if err != nil {
			return err
		}
		prevDelta += unzigzag(u)
		prev += prevDelta
		out[i].Logical = uint64(prev)
	}
	for _, ci := range [...]int{2, 3} {
		for i := 0; i < len(out); {
			runLen, err := uvarint(ci)
			if err != nil {
				return err
			}
			u, err := uvarint(ci)
			if err != nil {
				return err
			}
			if runLen == 0 || runLen > uint64(len(out)-i) {
				return fmt.Errorf("%w: %s run of %d exceeds remaining %d records", ErrBadSegment, colNames[ci], runLen, len(out)-i)
			}
			for ; runLen > 0; runLen-- {
				if ci == 2 {
					out[i].Node = int32(unzigzag(u))
				} else {
					out[i].Process = int32(unzigzag(u))
				}
				i++
			}
		}
	}
	dictLen, err := uvarint(4)
	if err != nil {
		return err
	}
	if dictLen > 256 || dictLen > uint64(len(buf)) {
		return fmt.Errorf("%w: kind dictionary of %d entries in %d bytes", ErrBadSegment, dictLen, len(buf))
	}
	dict := buf[:dictLen]
	buf = buf[dictLen:]
	for _, k := range dict {
		if !Kind(k).Valid() {
			return fmt.Errorf("%w: kind dictionary holds invalid kind %d", ErrBadSegment, k)
		}
	}
	for i := 0; i < len(out); {
		runLen, err := uvarint(4)
		if err != nil {
			return err
		}
		if len(buf) == 0 {
			return fmt.Errorf("%w: kind run missing dictionary index", ErrBadSegment)
		}
		idx := buf[0]
		buf = buf[1:]
		if runLen == 0 || runLen > uint64(len(out)-i) {
			return fmt.Errorf("%w: kind run of %d exceeds remaining %d records", ErrBadSegment, runLen, len(out)-i)
		}
		if uint64(idx) >= dictLen {
			return fmt.Errorf("%w: kind dictionary index %d out of %d", ErrBadSegment, idx, dictLen)
		}
		for ; runLen > 0; runLen-- {
			out[i].Kind = Kind(dict[idx])
			i++
		}
	}
	prev = 0
	for i := range out {
		u, err := uvarint(5)
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		out[i].Tag = uint16(prev)
	}
	prev = 0
	for i := range out {
		u, err := uvarint(6)
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		out[i].Payload = prev
	}
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after columns", ErrBadSegment, len(buf))
	}
	return nil
}

// serialAppendColumns is the reference the production encoder is held
// to byte for byte: the plain per-column loops, one appendUvarint per
// varint, with a branch on every run's end and every varint's length.
// It records in off where each column starts, as appendColumns does.
func serialAppendColumns(dst []byte, rs []Record, off *[numColumns]int) []byte {
	uvarint := func(u uint64) {
		if u < 0x80 {
			dst = append(dst, byte(u))
			return
		}
		dst = binary.AppendUvarint(dst, u)
	}
	off[0] = len(dst)
	var prev, prevDelta int64
	for i := range rs {
		v := rs[i].Time
		delta := v - prev
		uvarint(zigzag(delta - prevDelta))
		prev, prevDelta = v, delta
	}
	off[1] = len(dst)
	prev, prevDelta = 0, 0
	for i := range rs {
		v := int64(rs[i].Logical)
		delta := v - prev
		uvarint(zigzag(delta - prevDelta))
		prev, prevDelta = v, delta
	}
	for _, ci := range [...]int{2, 3} {
		off[ci] = len(dst)
		field := func(i int) int32 {
			if ci == 2 {
				return rs[i].Node
			}
			return rs[i].Process
		}
		for i := 0; i < len(rs); {
			v := field(i)
			j := i + 1
			for j < len(rs) && field(j) == v {
				j++
			}
			uvarint(uint64(j - i))
			uvarint(zigzag(int64(v)))
			i = j
		}
	}
	off[4] = len(dst)
	var idx [256]int16
	for i := range idx {
		idx[i] = -1
	}
	var dict []byte
	for i := range rs {
		if k := byte(rs[i].Kind); idx[k] < 0 {
			idx[k] = int16(len(dict))
			dict = append(dict, k)
		}
	}
	uvarint(uint64(len(dict)))
	dst = append(dst, dict...)
	for i := 0; i < len(rs); {
		k := rs[i].Kind
		j := i + 1
		for j < len(rs) && rs[j].Kind == k {
			j++
		}
		uvarint(uint64(j - i))
		dst = append(dst, byte(idx[byte(k)]))
		i = j
	}
	off[5] = len(dst)
	prev = 0
	for i := range rs {
		v := int64(rs[i].Tag)
		uvarint(zigzag(v - prev))
		prev = v
	}
	off[6] = len(dst)
	prev = 0
	for i := range rs {
		v := rs[i].Payload
		uvarint(zigzag(v - prev))
		prev = v
	}
	return dst
}

// decodeBoth decodes in through a segment, through its wire column
// bytes and through the serial reference, failing unless all three
// return it exactly and the segment's column region is the wire body
// byte for byte.
func decodeBoth(t *testing.T, what string, in []Record) {
	t.Helper()
	buf := AppendSegment(nil, in)
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatalf("%s: parse: %v", what, err)
	}
	got, err := seg.AppendRecords(nil)
	if err != nil {
		t.Fatalf("%s: segment decode: %v", what, err)
	}
	recordsEqual(t, what+" segment", got, in)

	var cc ColumnCodec
	cols := cc.AppendColumns(nil, in)
	if !bytes.Equal(buf[seg.colOff[0]:seg.colOff[numColumns]], cols) {
		t.Fatalf("%s: segment columns differ from the wire body", what)
	}
	wire := make([]Record, len(in))
	if err := DecodeColumns(cols, wire); err != nil {
		t.Fatalf("%s: wire decode: %v", what, err)
	}
	recordsEqual(t, what+" wire", wire, in)
	serial := make([]Record, len(in))
	if err := serialDecodeColumns(cols, serial); err != nil {
		t.Fatalf("%s: serial decode: %v", what, err)
	}
	recordsEqual(t, what+" serial", serial, in)
}

func recordsEqual(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// TestColumnDecodersAgree runs the segment decoder, the wire decoder
// and the serial reference over the same seeded batches, and pins the
// one-codec invariant on each (a segment's column region is the wire
// body of the same records): one-byte columns, the measured length
// mix, 9–10-byte varints from wrapping extremes, the property test's
// random shapes, and short batches whose varints all sit within the
// final 3 bytes of their columns (the per-record fallback).
func TestColumnDecodersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 20; iter++ {
		n := 1 + rng.Intn(3000)
		decodeBoth(t, "one-byte", mixBatch(rng, n, oneByteMix))
		decodeBoth(t, "measured-mix", mixBatch(rng, n, measuredMix))
		decodeBoth(t, "extremes", extremesBatch(rng, n))
		decodeBoth(t, "random", randomBatch(rng, n))
	}
	for n := 0; n <= 8; n++ {
		for iter := 0; iter < 20; iter++ {
			decodeBoth(t, "short", mixBatch(rng, n, measuredMix))
		}
	}
}

// TestMixBatchLengths checks the benchmark generator reproduces the
// measured varint-length shares it claims to, within one and a half
// points (about four standard errors at 8192 draws).
func TestMixBatchLengths(t *testing.T) {
	in := mixBatch(rand.New(rand.NewSource(1)), decodeBenchRecords, measuredMix)
	var off [numColumns]int
	var cc ColumnCodec
	buf := cc.appendColumns(nil, in, &off)
	end := append(off[1:], len(buf))
	for k, ci := range [...]int{0, 1, 5, 6} {
		var counts [3]int
		for _, v := range splitVarints(buf[off[ci]:end[ci]]) {
			counts[len(v)-1]++
		}
		for l, want := range measuredMix[k] {
			if got := 100 * float64(counts[l]) / float64(len(in)); math.Abs(got-want) > 1.5 {
				t.Errorf("%s column: %.1f %% of varints are %d bytes, want %.1f %%", colNames[ci], got, l+1, want)
			}
		}
	}
}

// splitVarints cuts a varint column after every byte with a clear high
// bit; a trailing partial varint is the last piece.
func splitVarints(col []byte) [][]byte {
	var out [][]byte
	for start, i := 0, 0; i < len(col); i++ {
		if col[i] < 0x80 || i == len(col)-1 {
			out = append(out, col[start:i+1])
			start = i + 1
		}
	}
	return out
}

// resum recomputes a segment's checksum after a test edits it.
func resum(seg []byte) {
	n := len(seg)
	binary.LittleEndian.PutUint32(seg[n-12:], crc32.Checksum(seg[segHeaderSize:n-12], segCRC))
}

// withColumn returns a copy of the segment in buf with column ci
// replaced by col, the footer offsets, length and checksum patched so
// Parse accepts it.
func withColumn(t testing.TB, buf []byte, ci int, col []byte) []byte {
	t.Helper()
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatal(err)
	}
	off := seg.colOff
	delta := len(col) - (off[ci+1] - off[ci])
	out := append([]byte(nil), buf[:off[ci]]...)
	out = append(out, col...)
	out = append(out, buf[off[ci+1]:]...)
	foot := out[off[numColumns]+delta:]
	for j := ci + 1; j <= numColumns; j++ {
		binary.LittleEndian.PutUint32(foot[4*j:], uint32(off[j]+delta))
	}
	binary.LittleEndian.PutUint32(out[8:], uint32(len(out)))
	resum(out)
	return out
}

// expectBadSegment parses buf and decodes it behind a three-record
// prefix: the decode must fail with ErrBadSegment naming one of names
// and hand the prefix back untouched.
func expectBadSegment(t *testing.T, what string, buf []byte, names ...string) {
	t.Helper()
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatalf("%s: parse: %v", what, err)
	}
	prefix := []Record{{Node: 1}, {Node: 2}, {Node: 3}}
	dst := append(make([]Record, 0, 3+seg.Count()), prefix...)
	got, err := seg.AppendRecords(dst)
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("%s: decode error %v, want ErrBadSegment", what, err)
	}
	named := false
	for _, name := range names {
		named = named || strings.Contains(err.Error(), name)
	}
	if !named {
		t.Fatalf("%s: error %q names none of %q", what, err, names)
	}
	recordsEqual(t, what+" prefix", got, prefix)
}

// TestSegmentDecodeHostileVarints breaks one varint of each interleaved
// column, at the first, a middle and the last record: an overlong
// 11-byte varint, or a truncated one (the last record's terminator
// dropped, an earlier one's continuation bit set so it swallows the
// next).
func TestSegmentDecodeHostileVarints(t *testing.T) {
	const n = 64
	in := mixBatch(rand.New(rand.NewSource(3)), n, measuredMix)
	buf := AppendSegment(nil, in)
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatal(err)
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, ci := range [...]int{0, 1, 5, 6} {
		varints := splitVarints(buf[seg.colOff[ci]:seg.colOff[ci+1]])
		for _, r := range [...]int{0, n / 2, n - 1} {
			for _, mode := range [...]string{"overlong", "truncated"} {
				bad := append([]byte(nil), varints[r]...)
				switch {
				case mode == "overlong":
					bad = overlong
				case r == n-1:
					bad = bad[:len(bad)-1]
				default:
					bad[len(bad)-1] |= 0x80
				}
				var col []byte
				for i, v := range varints {
					if i == r {
						v = bad
					}
					col = append(col, v...)
				}
				what := colNames[ci] + " " + mode
				expectBadSegment(t, what, withColumn(t, buf, ci, col), colNames[ci])
			}
		}
	}
}

// TestSegmentDecodeShiftedOffsets moves each inner column boundary in
// the footer by one byte either way and re-seals the checksum: the
// columns on both sides still parse, and the decode must reject the
// segment by naming one of them.
func TestSegmentDecodeShiftedOffsets(t *testing.T) {
	in := mixBatch(rand.New(rand.NewSource(4)), 64, measuredMix)
	buf := AppendSegment(nil, in)
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatal(err)
	}
	foot := seg.colOff[numColumns]
	for ci := 1; ci < numColumns; ci++ {
		for _, d := range [...]int{-1, 1} {
			b := append([]byte(nil), buf...)
			binary.LittleEndian.PutUint32(b[foot+4*ci:], uint32(seg.colOff[ci]+d))
			resum(b)
			expectBadSegment(t, colNames[ci]+" boundary shifted", b, colNames[ci-1], colNames[ci])
		}
	}
}

// TestSegmentDecodeTrailingBytes gives each column one byte more than
// its records use, leaving every other column intact: only the
// exact-consumption check can catch it.
func TestSegmentDecodeTrailingBytes(t *testing.T) {
	in := mixBatch(rand.New(rand.NewSource(5)), 64, measuredMix)
	buf := AppendSegment(nil, in)
	var seg Segment
	if _, err := seg.Parse(buf); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < numColumns; ci++ {
		col := append(buf[seg.colOff[ci]:seg.colOff[ci+1]:seg.colOff[ci+1]], 0)
		expectBadSegment(t, colNames[ci]+" trailing", withColumn(t, buf, ci, col), colNames[ci])
	}
}

// expectBadColumns decodes body as n records through DecodeColumns and
// the serial reference: both must fail with ErrBadSegment, and
// DecodeColumns's error must name one of names.
func expectBadColumns(t *testing.T, what string, body []byte, n int, names ...string) {
	t.Helper()
	if err := serialDecodeColumns(body, make([]Record, n)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("%s: serial decode error %v, want ErrBadSegment", what, err)
	}
	err := DecodeColumns(body, make([]Record, n))
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("%s: decode error %v, want ErrBadSegment", what, err)
	}
	named := false
	for _, name := range names {
		named = named || strings.Contains(err.Error(), name)
	}
	if !named {
		t.Fatalf("%s: error %q names none of %q", what, err, names)
	}
}

// TestColumnsDecodeHostileVarints breaks one varint of each varint
// column of a wire body, at the first, a middle and the last record.
// An overlong 11-byte varint and a body cut short inside the varint
// must be blamed on that column. A varint whose terminator gains its
// continuation bit swallows the next varint, which may belong to the
// next column: those bytes read as a valid column followed by a short
// one, so the blame may fall on any later column. A column of
// continuation bytes to the end of the body has no terminator for
// either decoder to find.
func TestColumnsDecodeHostileVarints(t *testing.T) {
	const n = 64
	in := mixBatch(rand.New(rand.NewSource(3)), n, measuredMix)
	var off [numColumns]int
	var cc ColumnCodec
	buf := cc.appendColumns(nil, in, &off)
	end := append(off[1:], len(buf))
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, ci := range [...]int{0, 1, 5, 6} {
		varints := splitVarints(buf[off[ci]:end[ci]])
		for _, r := range [...]int{0, n / 2, n - 1} {
			start := off[ci]
			for _, v := range varints[:r] {
				start += len(v)
			}
			v := varints[r]
			what := fmt.Sprintf("%s record %d", colNames[ci], r)
			cut := buf[:start+len(v)-1]
			expectBadColumns(t, what+" cut", cut, n, colNames[ci])
			body := append(append(append([]byte(nil), buf[:start]...), overlong...), buf[start+len(v):]...)
			expectBadColumns(t, what+" overlong", body, n, colNames[ci])
			body = append([]byte(nil), buf...)
			body[start+len(v)-1] |= 0x80
			expectBadColumns(t, what+" swallowed", body, n, colNames[ci:]...)
		}
		body := append(append([]byte(nil), buf[:off[ci]]...), bytes.Repeat([]byte{0x80}, end[ci]-off[ci])...)
		expectBadColumns(t, colNames[ci]+" continuation only", body, n, colNames[ci])
	}
	expectBadColumns(t, "spare trailing byte", append(buf, 0), n, colNames[6])
}

// TestSkipVarints pins the terminator count that finds a wire body's
// column boundaries: where the n-th terminator falls against the 8-byte
// words counted whole, columns shorter than one word, and n = 0.
func TestSkipVarints(t *testing.T) {
	cont := func(k int) []byte { return bytes.Repeat([]byte{0x80}, k) }
	ones := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	cases := []struct {
		name string
		col  []byte
		n    int
		rest int // bytes left after the n-th terminator; -1 for an error
	}{
		{"n=0 empty", nil, 0, 0},
		{"n=0", ones, 0, len(ones)},
		{"inside word", append(cont(3), 1, 0x80, 0x80, 0x80, 2, 9), 1, 5},
		{"last byte of word", append(cont(7), 1, 9), 1, 1},
		{"first byte of next word", append(cont(8), 1, 9), 1, 1},
		{"eighth of eight in word", ones, 8, len(ones) - 8},
		{"ninth, first of next word", ones, 9, len(ones) - 9},
		{"sixteenth, last of second word", ones, 16, 1},
		{"all", ones, len(ones), 0},
		{"one short", ones, len(ones) + 1, -1},
		{"shorter than a word", []byte{0x81, 1, 5}, 1, 1},
		{"shorter than a word, all", []byte{0x81, 1, 5}, 2, 0},
		{"shorter than a word, one short", []byte{0x81, 1, 5}, 3, -1},
		{"continuation only", cont(20), 1, -1},
		{"empty", nil, 1, -1},
	}
	for _, c := range cases {
		rest, err := skipVarints(c.col, c.n, 5)
		switch {
		case c.rest < 0 && !errors.Is(err, ErrBadSegment):
			t.Errorf("%s: error %v, want ErrBadSegment", c.name, err)
		case c.rest < 0 && !strings.Contains(err.Error(), "tag"):
			t.Errorf("%s: error %q does not name the tag column", c.name, err)
		case c.rest >= 0 && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.rest >= 0 && len(rest) != c.rest:
			t.Errorf("%s: %d bytes left, want %d", c.name, len(rest), c.rest)
		}
	}
}

// FuzzColumnsDecode holds DecodeColumns to the serial reference on
// arbitrary bytes and record counts below 600: it must never panic,
// must accept exactly the bodies the reference accepts and decode them
// to the same records, and must wrap ErrBadSegment on every rejection.
func FuzzColumnsDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	var cc ColumnCodec
	add := func(rs []Record) { f.Add(cc.AppendColumns(nil, rs), uint16(len(rs))) }
	add(mixBatch(rng, 512, measuredMix))
	add(mixBatch(rng, 32, measuredMix))
	add(extremesBatch(rng, 40))
	for n := 0; n <= 7; n++ {
		add(mixBatch(rng, n, measuredMix))
	}
	for _, ci := range [...]int{2, 3, 4} {
		for _, e := range runEdges {
			add(runEdgeBatch(rng, ci, e))
		}
	}
	for _, b := range badRunCols {
		body, _ := withRunCol(f, b)
		f.Add(body, uint16(badRunRecords))
	}
	f.Fuzz(func(t *testing.T, body []byte, count uint16) {
		n := int(count) % 600
		got, want := make([]Record, n), make([]Record, n)
		err := DecodeColumns(body, got)
		refErr := serialDecodeColumns(body, want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("error %v does not wrap ErrBadSegment", err)
			}
			return
		}
		recordsEqual(t, "decoded", got, want)
	})
}

// encodeMatches encodes in behind dst with the production encoder and
// the serial reference, failing unless both return the same bytes, dst
// included, and record the same column starts.
func encodeMatches(t testing.TB, what string, dst []byte, in []Record) {
	t.Helper()
	var off, refOff [numColumns]int
	want := serialAppendColumns(append([]byte(nil), dst...), in, &refOff)
	var cc ColumnCodec
	got := cc.appendColumns(dst, in, &off)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the reference\n got  %x\n want %x", what, got, want)
	}
	if off != refOff {
		t.Fatalf("%s: column starts %v, reference %v", what, off, refOff)
	}
}

// TestColumnsEncodeMatchesReference holds the column encoder to the
// serial reference byte for byte: both measured shapes, wrapping
// extremes, every run edge on the node, process and kind columns, run
// lengths and run values on either side of the one-byte pair, empty and
// one-record batches, and output appended behind a prefix into a dst
// that must grow.
func TestColumnsEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for iter := 0; iter < 20; iter++ {
		n := 1 + rng.Intn(3000)
		encodeMatches(t, "mix one-byte", nil, mixBatch(rng, n, oneByteMix))
		encodeMatches(t, "mix measured", nil, mixBatch(rng, n, measuredMix))
		encodeMatches(t, "flat", nil, flatFrame(rng, n, measuredMix))
		encodeMatches(t, "extremes", nil, extremesBatch(rng, n))
		encodeMatches(t, "random", nil, randomBatch(rng, n))
	}
	for _, ci := range [...]int{2, 3, 4} {
		for _, e := range runEdges {
			encodeMatches(t, colNames[ci]+" "+e.name, nil, runEdgeBatch(rng, ci, e))
		}
		for _, l := range [...]int{127, 128, 129, 16383, 16384} {
			for _, runs := range [][]int{{l}, {1, l}, {l, 1}, {2, l, 3}} {
				e := runEdge{fmt.Sprintf("runs %v", runs), runs, []int32{1, 2, 3}}
				encodeMatches(t, colNames[ci]+" "+e.name, nil, runEdgeBatch(rng, ci, e))
			}
		}
	}
	// Zigzag forms 63, 64, 127 and 128: the last one-byte values and the
	// first two-byte ones.
	for _, ci := range [...]int{2, 3} {
		for _, v := range [...]int32{-32, 32, -64, 64} {
			e := runEdge{fmt.Sprintf("value %d", v), []int{1, 3, 1, 2}, []int32{v, 0, v}}
			encodeMatches(t, colNames[ci]+" "+e.name, nil, runEdgeBatch(rng, ci, e))
		}
	}
	encodeMatches(t, "varint length edges", nil, varintEdgeBatch())
	for n := 0; n <= 1; n++ {
		encodeMatches(t, fmt.Sprintf("%d records", n), nil, mixBatch(rng, n, measuredMix))
		encodeMatches(t, fmt.Sprintf("%d extreme records", n), nil, extremesBatch(rng, n))
	}
	in := mixBatch(rng, 300, measuredMix)
	prefix := []byte("prefix")
	encodeMatches(t, "behind a prefix", append(make([]byte, 0, 1<<16), prefix...), in)
	encodeMatches(t, "into a full dst", append(make([]byte, 0, len(prefix)), prefix...), in)
	encodeMatches(t, "into a dst of the bound", append(make([]byte, 0, len(prefix)+MaxColumnsSize(len(in))), prefix...), in)
}

// varintEdgeBatch builds records whose time, logical and payload
// columns hold every zigzag value on either side of a varint length
// step, 1<<(7k) - 1 and 1<<(7k) for k = 1..9, and whose tag column
// holds those below 1<<17, each column in its own order.
func varintEdgeBatch() []Record {
	var edges []uint64
	for k := 1; k <= 9; k++ {
		edges = append(edges, 1<<(7*k)-1, 1<<(7*k))
	}
	edges = append(edges, math.MaxUint64)
	var tagEdges []uint64
	for _, u := range edges {
		if u < 1<<17 {
			tagEdges = append(tagEdges, u)
		}
	}
	rs := make([]Record, 3*len(edges))
	var tm, tmDelta, lg, lgDelta, tag, payload int64
	for i := range rs {
		tmDelta += unzigzag(edges[i%len(edges)])
		tm += tmDelta
		lgDelta += unzigzag(edges[(i/2)%len(edges)])
		lg += lgDelta
		// An edge and its neighbour u^1 have the same length and
		// opposite signs: one of them keeps the tag in range.
		u := tagEdges[(i/3)%len(tagEdges)]
		if d := unzigzag(u); tag+d < 0 || tag+d > math.MaxUint16 {
			u ^= 1
		}
		tag += unzigzag(u)
		payload += unzigzag(edges[len(edges)-1-i%len(edges)])
		rs[i] = Record{Time: tm, Logical: uint64(lg), Tag: uint16(tag), Payload: payload}
	}
	return rs
}

// worstBatch builds n records that reach the size bound's per-record
// worst case in every column: 10-byte time, logical and payload
// varints, singleton node and process runs of 5-byte values, singleton
// kind runs, 3-byte tag deltas and as large a kind dictionary as n
// allows. Kinds past the defined set are not decodable, but the
// encoder takes them.
func worstBatch(n int) []Record {
	rs := make([]Record, n)
	var tm, tmDelta int64
	for i := range rs {
		// A delta-of-delta, and a payload delta, of MinInt64 every
		// record: its zigzag form is all ones.
		tmDelta += math.MinInt64
		tm += tmDelta
		r := Record{Node: math.MinInt32, Process: math.MaxInt32, Kind: Kind(i % 256), Time: tm, Logical: uint64(tm)}
		if i%2 == 0 {
			r.Node, r.Process, r.Tag, r.Payload = r.Process, r.Node, math.MaxUint16, math.MinInt64
		}
		rs[i] = r
	}
	return rs
}

// TestMaxColumnsSizeBound checks that the encoder stays within
// MaxColumnsSize, the limit at which a receiver rejects a frame, on
// worst-case records, with room for the wideStoreSlack bytes its last
// store may write past the end, and that a dst with MaxColumnsSize
// spare capacity is written in place, not regrown.
func TestMaxColumnsSizeBound(t *testing.T) {
	for _, n := range [...]int{1, 32, 256, 8192} {
		in := worstBatch(n)
		dict := min(n, 256)
		want := 47*n + dict + len(binary.AppendUvarint(nil, uint64(dict)))
		var cc ColumnCodec
		got := cc.AppendColumns(nil, in)
		if len(got) != want {
			t.Fatalf("n=%d: %d bytes, want the worst case %d", n, len(got), want)
		}
		if max := MaxColumnsSize(n); len(got)+wideStoreSlack > max {
			t.Fatalf("n=%d: %d bytes and %d of slack exceed MaxColumnsSize %d", n, len(got), wideStoreSlack, max)
		}
		encodeMatches(t, fmt.Sprintf("worst n=%d", n), nil, in)
		dst := make([]byte, 5, 5+MaxColumnsSize(n))
		if out := cc.AppendColumns(dst, in); &out[0] != &dst[0] {
			t.Fatalf("n=%d: encoder regrew a dst with MaxColumnsSize spare", n)
		}
	}
}

// TestColumnsEncodeAllocs pins the steady state: once its dictionary
// scratch and the output have grown, an encode allocates nothing.
func TestColumnsEncodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	in := flatFrame(rand.New(rand.NewSource(2)), 256, measuredMix)
	var cc ColumnCodec
	buf := cc.AppendColumns(nil, in)
	if allocs := testing.AllocsPerRun(100, func() { buf = cc.AppendColumns(buf[:0], in) }); allocs != 0 {
		t.Fatalf("steady-state encode allocates %.1f per run, want 0", allocs)
	}
}

// fuzzRecords turns arbitrary bytes into records, one per 9-byte chunk:
// a control byte and a little-endian word x. Control bits 0–3 keep the
// previous record's node, process, kind and tag, so runs of any length
// occur; the top four bits shift x right by 0–60, so deltas and values
// of every varint length occur. Each chunk's record repeats stretch
// more times when control bit 3 is set.
func fuzzRecords(data []byte, stretch uint8) []Record {
	var rs []Record
	var r Record
	for ; len(data) >= 9 && len(rs) < 1<<15; data = data[9:] {
		c, x := data[0], binary.LittleEndian.Uint64(data[1:])
		v := int64(x) >> (c >> 4 * 4)
		if c&1 == 0 {
			r.Node = int32(v)
		}
		if c&2 == 0 {
			r.Process = int32(v >> 3)
		}
		if c&4 == 0 {
			r.Kind = Kind(x >> 56)
		}
		if c&8 == 0 {
			r.Tag = uint16(x >> 8)
		}
		r.Time += v
		r.Logical += uint64(v >> 1)
		r.Payload ^= v
		reps := 1
		if c&8 != 0 {
			reps += int(stretch)
		}
		for ; reps > 0; reps-- {
			rs = append(rs, r)
		}
	}
	return rs
}

// FuzzColumnsEncode holds the column encoder to the serial reference
// on arbitrary records, and checks that records of valid kinds decode
// back to themselves.
func FuzzColumnsEncode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x0f, 1, 2, 3, 4, 5, 6, 7, 8}, 3), uint8(200))
	f.Add(bytes.Repeat([]byte{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 4), uint8(127))
	rng := rand.New(rand.NewSource(39))
	seed := make([]byte, 9*64)
	rng.Read(seed)
	f.Add(seed, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, stretch uint8) {
		in := fuzzRecords(data, stretch)
		encodeMatches(t, "fuzzed", nil, in)
		for _, r := range in {
			if !r.Kind.Valid() {
				return
			}
		}
		var cc ColumnCodec
		out := make([]Record, len(in))
		if err := DecodeColumns(cc.AppendColumns(nil, in), out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		recordsEqual(t, "round trip", out, in)
	})
}

// runEdge is one layout of a run column: its run lengths, which sum to
// the record count, and its run values, cycled. Kind columns take each
// value modulo the number of kinds.
type runEdge struct {
	name string
	runs []int
	vals []int32
}

// runEdges are the run layouts at the edges of the run decoders' fill
// ahead and one-byte fast path.
var runEdges = []runEdge{
	{"one run", []int{7}, []int32{2}},
	{"one record", []int{1}, []int32{2}},
	{"run ends 3 before the end", []int{5, 3}, []int32{1, 2}},
	{"run ends 2 before the end", []int{5, 2}, []int32{1, 2}},
	{"run ends 1 before the end", []int{5, 1}, []int32{1, 2}},
	{"run equal to the records remaining", []int{2, 6}, []int32{1, 2}},
	{"runs of one", []int{1, 1, 1, 1, 1, 1, 1}, []int32{1, 2}},
	{"last runs inside the fill-ahead", []int{1, 2, 1, 1, 2}, []int32{1, 2, 3}},
	{"run longer than the fill-ahead", []int{1, 9, 1}, []int32{1, 2}},
	{"two-byte run length", []int{3, 130, 2}, []int32{1, 2}},
	{"two-byte run length to the end", []int{1, 200}, []int32{1, 2}},
	{"two-byte values", []int{1, 2, 1, 3, 1}, []int32{64, -65, 1000, -1 << 31, 1<<31 - 1}},
}

// runEdgeBatch lays out the column of field ci (2 node, 3 process,
// 4 kind) of a measured-mix batch as e describes.
func runEdgeBatch(rng *rand.Rand, ci int, e runEdge) []Record {
	n := 0
	for _, l := range e.runs {
		n += l
	}
	rs := mixBatch(rng, n, measuredMix)
	i := 0
	for r, l := range e.runs {
		v := e.vals[r%len(e.vals)]
		for ; l > 0; l-- {
			switch ci {
			case 2:
				rs[i].Node = v
			case 3:
				rs[i].Process = v
			default:
				rs[i].Kind = Kind(uint32(v) % uint32(numKinds))
			}
			i++
		}
	}
	return rs
}

// badRunCol is a run column that decoders must reject as n records.
// A short column ends before its records do: a wire body has no
// column boundaries, so the wire decoder reads on into the next
// column and may blame any later one.
type badRunCol struct {
	name  string
	ci    int
	col   []byte
	short bool
}

var badRunCols = func() []badRunCol {
	var out []badRunCol
	for _, ci := range [...]int{2, 3} {
		out = append(out,
			badRunCol{"zero-length first run", ci, []byte{0, 2, 8, 2}, false},
			badRunCol{"zero-length run", ci, []byte{3, 2, 0, 2, 5, 2}, false},
			badRunCol{"run over the records", ci, []byte{9, 2}, false},
			badRunCol{"run over the records remaining", ci, []byte{5, 2, 4, 2}, false},
			badRunCol{"two-byte run over the records", ci, []byte{0x80, 0x01, 2}, false},
			badRunCol{"two-byte zero-length run", ci, []byte{0x80, 0x00, 2, 8, 2}, false},
			badRunCol{"value missing", ci, []byte{8}, true},
			badRunCol{"two-byte value truncated", ci, []byte{8, 0x80}, true},
			badRunCol{"runs short", ci, []byte{3, 2, 4, 2}, true},
		)
	}
	u := byte(KindUser)
	return append(out,
		badRunCol{"index outside the dictionary", 4, []byte{1, u, 8, 1}, false},
		badRunCol{"index outside a two-entry dictionary", 4, []byte{2, u, byte(KindSend), 3, 1, 5, 2}, false},
		badRunCol{"zero-length run", 4, []byte{1, u, 0, 0, 8, 0}, false},
		badRunCol{"run over the records", 4, []byte{1, u, 9, 0}, false},
		badRunCol{"run over the records remaining", 4, []byte{1, u, 5, 0, 4, 0}, false},
		badRunCol{"two-byte run over the records", 4, []byte{1, u, 0x80, 0x01, 0}, false},
		badRunCol{"invalid kind in the dictionary", 4, []byte{1, byte(numKinds), 8, 0}, false},
		badRunCol{"index missing", 4, []byte{1, u, 8}, true},
		badRunCol{"runs short", 4, []byte{1, u, 3, 0, 4, 0}, true},
	)
}()

// badRunRecords is the record count every badRunCol is decoded as.
const badRunRecords = 8

// withRunCol returns the wire body and the segment of a batch of
// badRunRecords records whose column b.ci is replaced by b.col.
func withRunCol(tb testing.TB, b badRunCol) (body, seg []byte) {
	tb.Helper()
	in := mixBatch(rand.New(rand.NewSource(8)), badRunRecords, measuredMix)
	var off [numColumns]int
	var cc ColumnCodec
	buf := cc.appendColumns(nil, in, &off)
	end := append(off[1:], len(buf))
	body = append(append(append([]byte(nil), buf[:off[b.ci]]...), b.col...), buf[end[b.ci]:]...)
	return body, withColumn(tb, AppendSegment(nil, in), b.ci, b.col)
}

// TestRunColumnEdges decodes the node, process and kind columns of
// every run edge, and of every run layout of up to 8 records, through
// the segment and wire entries and the serial reference; the segment
// decode's spare capacity must come back untouched. Every malformed
// run column must be rejected by both entries with ErrBadSegment
// naming its column.
func TestRunColumnEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(what string, in []Record) {
		t.Helper()
		decodeBoth(t, what, in)
		// Decode into a slice whose spare capacity holds sentinels: a
		// fill past the last record would overwrite them.
		var seg Segment
		if _, err := seg.Parse(AppendSegment(nil, in)); err != nil {
			t.Fatal(err)
		}
		sentinel := Record{Node: -7, Process: -7, Kind: KindRecv}
		dst := make([]Record, len(in)+2*fillAhead)
		for i := range dst {
			dst[i] = sentinel
		}
		got, err := seg.AppendRecords(dst[:0])
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		recordsEqual(t, what+" into spare capacity", got, in)
		for i, r := range dst[len(in):] {
			if r != sentinel {
				t.Fatalf("%s: spare slot %d past the last record overwritten: %+v", what, i, r)
			}
		}
	}
	for _, ci := range [...]int{2, 3, 4} {
		for _, e := range runEdges {
			check(colNames[ci]+" "+e.name, runEdgeBatch(rng, ci, e))
		}
		// Every composition of n records into runs: bit k of mask ends
		// a run after record k.
		for n := 1; n <= 8; n++ {
			for mask := 0; mask < 1<<(n-1); mask++ {
				var runs []int
				l := 0
				for k := 0; k < n; k++ {
					l++
					if k == n-1 || mask&(1<<k) != 0 {
						runs = append(runs, l)
						l = 0
					}
				}
				e := runEdge{fmt.Sprintf("layout %v", runs), runs, []int32{1, 2}}
				check(colNames[ci]+" "+e.name, runEdgeBatch(rng, ci, e))
			}
		}
	}
	for _, b := range badRunCols {
		what := colNames[b.ci] + " " + b.name
		body, seg := withRunCol(t, b)
		blame := colNames[b.ci : b.ci+1]
		if b.short {
			blame = colNames[b.ci:]
		}
		expectBadColumns(t, what, body, badRunRecords, blame...)
		expectBadSegment(t, what, seg, colNames[b.ci])
	}
}

// varintOfLen returns the canonical varint of the smallest value that
// takes n bytes, 1 ≤ n ≤ 10.
func varintOfLen(n int) []byte {
	return binary.AppendUvarint(nil, uint64(1)<<(7*(n-1)))
}

// boundaryCase is one edit of a varint column of a 64-record body.
type boundaryCase struct {
	what string
	edit func(varints [][]byte) [][]byte // the column's varints, one piece each
	err  string                          // the segment decode's error; "" for none
}

// boundaryCases lists the edits TestVarintColsBoundary makes to column
// ci of n records: the record that ends a fast stretch, at each
// distance from the column's end; a varint too long for the 4-byte path
// mid-column, with short records after it; and a column cut short
// inside its last varint, or one or two bytes long.
func boundaryCases(ci, n int) []boundaryCase {
	var cs []boundaryCase
	for l := 1; l <= 10; l++ {
		for d := 0; d <= 7; d++ {
			cs = append(cs, boundaryCase{
				what: fmt.Sprintf("%d-byte varint %d bytes before the end", l, d),
				edit: func(v [][]byte) [][]byte {
					v[n-1-d] = varintOfLen(l)
					for r := n - d; r < n; r++ {
						v[r] = []byte{0}
					}
					return v
				},
			})
		}
	}
	for l := 5; l <= 10; l++ {
		cs = append(cs, boundaryCase{
			what: fmt.Sprintf("%d-byte varint mid-column", l),
			edit: func(v [][]byte) [][]byte {
				v[n/2] = varintOfLen(l)
				for r := n/2 + 1; r < n/2+9; r++ {
					v[r] = []byte{byte(r % 3)}
				}
				return v
			},
		})
	}
	for l := 2; l <= 10; l++ {
		cs = append(cs, boundaryCase{
			what: fmt.Sprintf("%d-byte varint truncated at the end", l),
			edit: func(v [][]byte) [][]byte {
				v[n-1] = varintOfLen(l)[:l-1]
				return v
			},
			err: fmt.Sprintf("%v: truncated or overlong varint in %s column at record %d", ErrBadSegment, colNames[ci], n-1),
		})
	}
	return append(cs,
		boundaryCase{
			what: "truncated",
			edit: func(v [][]byte) [][]byte {
				last := v[n-1]
				v[n-1] = last[:len(last)-1]
				return v
			},
			err: fmt.Sprintf("%v: truncated or overlong varint in %s column at record %d", ErrBadSegment, colNames[ci], n-1),
		},
		boundaryCase{
			what: "trailing",
			edit: func(v [][]byte) [][]byte { return append(v, []byte{0}) },
			err:  fmt.Sprintf("%v: 1 trailing bytes in %s column", ErrBadSegment, colNames[ci]),
		},
		boundaryCase{
			what: "trailing continuation",
			edit: func(v [][]byte) [][]byte { return append(v, []byte{0x80, 0x80}) },
			err:  fmt.Sprintf("%v: 2 trailing bytes in %s column", ErrBadSegment, colNames[ci]),
		},
	)
}

// TestVarintColsBoundary pins where decodeVarintCols hands a record
// from the 4-byte path to binary.Uvarint and back, in each varint
// column: every edit goes through a segment and through DecodeColumns,
// both of which must decode what the serial reference decodes, or fail
// with the case's error. A wire body has no column offsets, so a short
// or long column before the last one re-reads as other columns: the
// wire decoder and the reference must still agree, and a rejection must
// name that column or a later one. The payload column ends where the
// body does, so it fails on the wire with the segment's error.
func TestVarintColsBoundary(t *testing.T) {
	const n = 64
	// Every varint column of the base holds a 1-byte varint and then
	// 4-byte ones, so the column a case edits alone sets where a stretch
	// must stop, and a load past its end would meet the next column's
	// terminator.
	baseVarints := func() [][]byte {
		v := [][]byte{{2}}
		for len(v) < n {
			v = append(v, varintOfLen(4))
		}
		return v
	}
	base := AppendSegment(nil, mixBatch(rand.New(rand.NewSource(46)), n, measuredMix))
	for _, ci := range [...]int{0, 1, 5, 6} {
		base = withColumn(t, base, ci, bytes.Join(baseVarints(), nil))
	}
	for _, ci := range [...]int{0, 1, 5, 6} {
		for _, c := range boundaryCases(ci, n) {
			what := colNames[ci] + " " + c.what
			buf := withColumn(t, base, ci, bytes.Join(c.edit(baseVarints()), nil))
			var s Segment
			if _, err := s.Parse(buf); err != nil {
				t.Fatalf("%s: parse: %v", what, err)
			}
			body := buf[s.colOff[0]:s.colOff[numColumns]]
			want := make([]Record, n)
			refErr := serialDecodeColumns(body, want)
			segGot, segErr := s.AppendRecords(nil)
			wire := make([]Record, n)
			wireErr := DecodeColumns(body, wire)
			if c.err == "" {
				if refErr != nil || segErr != nil || wireErr != nil {
					t.Fatalf("%s: errors: serial %v, segment %v, wire %v", what, refErr, segErr, wireErr)
				}
				recordsEqual(t, what+" segment", segGot, want)
				recordsEqual(t, what+" wire", wire, want)
				continue
			}
			if segErr == nil || segErr.Error() != c.err {
				t.Fatalf("%s: segment decode error %v, want %q", what, segErr, c.err)
			}
			if (wireErr == nil) != (refErr == nil) {
				t.Fatalf("%s: wire decode error %v, serial decode error %v", what, wireErr, refErr)
			}
			switch {
			case ci == 6 && (wireErr == nil || wireErr.Error() != c.err):
				t.Fatalf("%s: wire decode error %v, want %q", what, wireErr, c.err)
			case wireErr == nil:
				recordsEqual(t, what+" wire", wire, want)
			case !errors.Is(wireErr, ErrBadSegment):
				t.Fatalf("%s: wire decode error %v, want ErrBadSegment", what, wireErr)
			default:
				named := false
				for _, name := range colNames[ci:] {
					named = named || strings.Contains(wireErr.Error(), name)
				}
				if !named {
					t.Fatalf("%s: wire decode error %q names none of %q", what, wireErr, colNames[ci:])
				}
			}
		}
	}
}

// TestColumnsDecodeAllocs pins both decoder entries at zero allocations
// per decode.
func TestColumnsDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	in := mixBatch(rand.New(rand.NewSource(2)), 256, measuredMix)
	var cc ColumnCodec
	var off [numColumns]int
	body := cc.appendColumns(nil, in, &off)
	var offs [numColumns + 1]int
	copy(offs[:], off[:])
	offs[numColumns] = len(body)
	dst := make([]Record, len(in))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeColumns(body, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeColumns allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodeColumnsAt(body, &offs, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decodeColumnsAt allocates %.1f per run, want 0", allocs)
	}
}
