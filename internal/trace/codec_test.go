package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Node: 0, Process: 0, Kind: KindMark, Tag: 1, Time: 10, Payload: 0},
		{Node: 1, Process: 2, Kind: KindSend, Tag: 7, Time: 20, Payload: 3},
		{Node: 3, Process: 0, Kind: KindRecv, Tag: 7, Time: 25, Logical: 9, Payload: 1},
		{Node: 2, Process: 1, Kind: KindSample, Tag: 400, Time: 30, Payload: -12345},
		{Node: 0, Process: 0, Kind: KindFlush, Tag: 0, Time: 99, Payload: 5_000_000},
	}
}

// decodeStream decodes a whole segment stream, failing on any error or
// on bytes left over.
func decodeStream(t *testing.T, data []byte) []Record {
	t.Helper()
	got, n, err := DecodeSegments(nil, data)
	if err != nil || n != len(data) {
		t.Fatalf("decoded %d of %d bytes: %v", n, len(data), err)
	}
	return got
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rs := sampleRecords()
	if err := w.WriteAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, "round trip", decodeStream(t, buf.Bytes()), rs)
}

// TestAppendWriterContinuesStream covers the restart path: a second
// Writer appending to a stream the first one started continues it with
// no header or marker of its own, and the combined stream reads back
// as one trace.
func TestAppendWriterContinuesStream(t *testing.T) {
	var buf bytes.Buffer
	rs := sampleRecords()
	for _, part := range [][]Record{rs[:2], rs[2:]} {
		w := NewWriter(&buf)
		if err := w.WriteAll(part); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if want := len(AppendSegment(AppendSegment(nil, rs[:2]), rs[2:])); buf.Len() != want {
		t.Fatalf("stream is %d bytes, want %d (two segments)", buf.Len(), want)
	}
	recordsEqual(t, "continued stream", decodeStream(t, buf.Bytes()), rs)
}

// TestBinaryRoundTripProperty: for random record counts split at
// random Write and WriteAll points, the stream's bytes equal those of
// one WriteAll and Flush — segment boundaries depend only on the
// records. Flush calls in between move only the boundaries, never the
// decoded records. An empty stream is zero bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 60; iter++ {
		n := rng.Intn(2001)
		if iter == 0 {
			n = 0
		}
		rs := randomBatch(rng, n)
		var whole bytes.Buffer
		w := NewWriter(&whole)
		if w.WriteAll(rs) != nil || w.Flush() != nil {
			t.Fatal("write failed")
		}
		if n == 0 && whole.Len() != 0 {
			t.Fatalf("empty stream is %d bytes", whole.Len())
		}
		recordsEqual(t, "whole", decodeStream(t, whole.Bytes()), rs)

		for _, flushes := range [...]bool{false, true} {
			var split bytes.Buffer
			w := NewWriter(&split)
			for rest := rs; len(rest) > 0; {
				k := min(len(rest), rng.Intn(700))
				var err error
				if k == 1 {
					err = w.Write(rest[0])
				} else {
					err = w.WriteAll(rest[:k])
				}
				if err == nil && flushes && rng.Intn(3) == 0 {
					err = w.Flush()
				}
				if err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !flushes && !bytes.Equal(split.Bytes(), whole.Bytes()) {
				t.Fatalf("iter %d: %d records written in pieces differ from one WriteAll", iter, n)
			}
			recordsEqual(t, "flushed pieces", decodeStream(t, split.Bytes()), rs)
		}
	}
}

// writeStream writes each part as its own segment and returns the
// stream and the end offset of every segment.
func writeStream(t *testing.T, parts ...[]Record) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var ends []int
	for _, p := range parts {
		if w.WriteAll(p) != nil || w.Flush() != nil {
			t.Fatal("write failed")
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

func TestBadMagic(t *testing.T) {
	data, _ := writeStream(t, sampleRecords())
	data[0] ^= 0xff
	got, n, err := DecodeSegments(nil, data)
	if !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "bad magic") || n != 0 || len(got) != 0 {
		t.Fatalf("decoded %d records, n = %d, err = %v", len(got), n, err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	data, _ := writeStream(t, sampleRecords())
	_, n, err := DecodeSegments(nil, data[:SegmentHeaderSize-2])
	if !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "shorter than a header") || n != 0 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
}

// TestTruncatedRecord cuts a three-segment stream at every byte offset:
// DecodeSegments returns the records of the whole segments before the
// cut and n = their length, and fails with ErrBadSegment exactly when
// the cut falls inside a segment, marked io.ErrUnexpectedEOF as a torn
// tail. A flipped byte inside a whole segment is corrupt, not torn.
func TestTruncatedRecord(t *testing.T) {
	rs := sampleRecords()
	parts := [][]Record{rs[:2], rs[2:3], rs[3:]}
	data, ends := writeStream(t, parts...)
	for cut := 0; cut <= len(data); cut++ {
		whole, wantN := 0, 0
		for whole < len(ends) && ends[whole] <= cut {
			wantN = ends[whole]
			whole++
		}
		var want []Record
		for _, p := range parts[:whole] {
			want = append(want, p...)
		}
		got, n, err := DecodeSegments(nil, data[:cut])
		if n != wantN {
			t.Fatalf("cut %d: n = %d, want %d", cut, n, wantN)
		}
		torn := cut != wantN
		if torn != errors.Is(err, ErrBadSegment) || torn != errors.Is(err, io.ErrUnexpectedEOF) || (!torn && err != nil) {
			t.Fatalf("cut %d (torn %v): err = %v", cut, torn, err)
		}
		recordsEqual(t, "whole segments", got, want)
	}
	for _, off := range []int{0, 5, SegmentHeaderSize + 1, ends[1] - ends[0] - 1} {
		bad := bytes.Clone(data)
		bad[ends[0]+off] ^= 0x40
		_, n, err := DecodeSegments(nil, bad)
		if n != ends[0] || !errors.Is(err, ErrBadSegment) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("byte %d of segment 2 flipped: n = %d, err = %v; want n = %d and a corrupt, not torn, segment", off, n, err, ends[0])
		}
	}
}

// TestInvalidKindRejected: a kind outside the defined set fails decode
// with ErrBadSegment naming the kind column, whether it arrives in a
// segment stream or in a columnar wire body.
func TestInvalidKindRejected(t *testing.T) {
	rs := sampleRecords()
	rs[3].Kind = Kind(77)
	data, _ := writeStream(t, rs)
	if _, _, err := DecodeSegments(nil, data); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("segment: err = %v, want ErrBadSegment naming the kind column", err)
	}
	var cc ColumnCodec
	body := cc.AppendColumns(nil, rs)
	if err := DecodeColumns(body, make([]Record, len(rs))); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wire body: err = %v, want ErrBadSegment naming the kind column", err)
	}
}

func TestEncodeDecodeRecordDirect(t *testing.T) {
	r := Record{Node: -1, Process: -2, Kind: KindRecv, Tag: 65535,
		Time: -9999, Logical: 1 << 60, Payload: -1}
	var buf [RecordSize]byte
	PutRecord(buf[:], r)
	if got := GetRecord(buf[:]); got != r {
		t.Fatalf("direct round trip: %+v != %+v", got, r)
	}
}
