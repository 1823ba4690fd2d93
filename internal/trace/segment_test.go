package trace

import (
	"errors"
	"math/rand"
	"testing"

	"prism/internal/raceflag"
)

// randomBatch builds a batch whose field distributions cover both the
// friendly shapes segments optimize for (constant runs, near-monotone
// times) and hostile ones (sign flips, full-range payloads).
func randomBatch(rng *rand.Rand, n int) []Record {
	rs := make([]Record, n)
	tm := rng.Int63n(1 << 40)
	logical := rng.Uint64() >> 8
	for i := range rs {
		switch rng.Intn(4) {
		case 0: // monotone drift, the common case
			tm += rng.Int63n(1000)
			logical++
		case 1: // jitter backwards
			tm -= rng.Int63n(500)
			logical += uint64(rng.Intn(3))
		case 2: // wild jump
			tm = rng.Int63() - rng.Int63()
			logical = rng.Uint64()
		default: // hold
		}
		rs[i] = Record{
			Node:    int32(rng.Intn(8)) - 2, // includes negative synthetic nodes
			Process: int32(rng.Intn(4)),
			Kind:    Kind(rng.Intn(int(numKinds))),
			Tag:     uint16(rng.Intn(1 << 16)),
			Time:    tm,
			Logical: logical,
			Payload: rng.Int63() - rng.Int63(),
		}
	}
	return rs
}

// TestSegmentRoundTripProperty is the property test the format is
// judged by: random record batches must come back byte-identical
// through encode → Parse → AppendRecords.
func TestSegmentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7311))
	var seg Segment
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(700)
		if iter == 0 {
			n = 0 // the empty segment is valid
		}
		in := randomBatch(rng, n)
		buf := AppendSegment(nil, in)
		rest, err := seg.Parse(buf)
		if err != nil {
			t.Fatalf("iter %d: parse: %v", iter, err)
		}
		if len(rest) != 0 {
			t.Fatalf("iter %d: %d trailing bytes", iter, len(rest))
		}
		if seg.Count() != n {
			t.Fatalf("iter %d: count %d, want %d", iter, seg.Count(), n)
		}
		out, err := seg.AppendRecords(nil)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(out) != len(in) {
			t.Fatalf("iter %d: decoded %d of %d", iter, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("iter %d: record %d corrupted:\n in  %+v\n out %+v", iter, i, in[i], out[i])
			}
		}
	}
}

func TestSegmentFooterIndex(t *testing.T) {
	in := []Record{
		{Node: 3, Time: 50, Kind: KindUser},
		{Node: 1, Time: 10, Kind: KindSend, Payload: 3},
		{Node: 1, Time: 90, Kind: KindUser},
		{Node: 7, Time: 40, Kind: KindMark},
	}
	var seg Segment
	if _, err := seg.Parse(AppendSegment(nil, in)); err != nil {
		t.Fatal(err)
	}
	if seg.MinTime() != 10 || seg.MaxTime() != 90 {
		t.Fatalf("time range [%d, %d]", seg.MinTime(), seg.MaxTime())
	}
	want := []SourceRange{
		{Node: 1, Count: 2, MinTime: 10, MaxTime: 90},
		{Node: 3, Count: 1, MinTime: 50, MaxTime: 50},
		{Node: 7, Count: 1, MinTime: 40, MaxTime: 40},
	}
	got := seg.Sources()
	if len(got) != len(want) {
		t.Fatalf("sources %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("source %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if !seg.HasSource(7) || seg.HasSource(2) {
		t.Fatal("HasSource wrong")
	}
	if !seg.Overlaps(85, 200) || seg.Overlaps(91, 200) || seg.Overlaps(0, 9) {
		t.Fatal("Overlaps wrong")
	}
}

func TestSegmentFilteredReads(t *testing.T) {
	var in []Record
	for i := 0; i < 100; i++ {
		in = append(in, Record{Node: int32(i % 3), Time: int64(i * 10), Kind: KindUser, Tag: uint16(i)})
	}
	var seg Segment
	if _, err := seg.Parse(AppendSegment(nil, in)); err != nil {
		t.Fatal(err)
	}
	got, err := seg.AppendRange(nil, 200, 290)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range read %d records", len(got))
	}
	for i, r := range got {
		if r.Time != int64(200+10*i) {
			t.Fatalf("range record %d has time %d", i, r.Time)
		}
	}
	// A disjoint range is skipped via the footer alone.
	if got, err := seg.AppendRange(nil, 5000, 6000); err != nil || len(got) != 0 {
		t.Fatalf("disjoint range: %d records, %v", len(got), err)
	}
	bySrc, err := seg.AppendSource(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySrc) != 33 {
		t.Fatalf("source read %d records", len(bySrc))
	}
	for _, r := range bySrc {
		if r.Node != 2 {
			t.Fatalf("source read leaked node %d", r.Node)
		}
	}
	if got, err := seg.AppendSource(nil, 99); err != nil || len(got) != 0 {
		t.Fatalf("absent source: %d records, %v", len(got), err)
	}
}

// TestSegmentTruncation checks that every proper prefix of a valid
// segment is rejected with an error, never a panic.
func TestSegmentTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := AppendSegment(nil, randomBatch(rng, 64))
	var seg Segment
	for n := 0; n < len(buf); n++ {
		if _, err := seg.Parse(buf[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(buf))
		} else if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("prefix of %d bytes: error %v is not ErrBadSegment", n, err)
		}
	}
}

// TestSegmentCorruption flips every byte of a valid segment in turn.
// Bytes under the checksum (everything between the header and the crc
// field) must fail Parse; the trailing framing bytes must at minimum
// never decode into a panic.
func TestSegmentCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	orig := AppendSegment(nil, randomBatch(rng, 32))
	buf := make([]byte, len(orig))
	var seg Segment
	for i := 0; i < len(orig); i++ {
		copy(buf, orig)
		buf[i] ^= 0x5a
		rest, err := seg.Parse(buf)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("byte %d: error %v is not ErrBadSegment", i, err)
			}
			continue
		}
		if i >= segHeaderSize && i < len(orig)-12 {
			t.Fatalf("byte %d under the checksum flipped yet parsed cleanly", i)
		}
		if len(rest) != 0 {
			t.Fatalf("byte %d: corrupt parse left %d trailing bytes", i, len(rest))
		}
		// Decoding after a surviving parse must not panic.
		_, _ = seg.AppendRecords(nil)
	}
}

// TestSegmentScanAllocs pins the bulk decoder's steady state at zero
// allocations per segment scan.
func TestSegmentScanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	rs := randomBatch(rng, 512)
	buf := AppendSegment(nil, rs)
	var seg Segment
	dst := make([]Record, 0, len(rs))
	// Warm the reusable scratch (sources slice) once.
	if _, err := seg.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.AppendRecords(dst[:0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := seg.Parse(buf); err != nil {
			t.Fatal(err)
		}
		var err error
		dst, err = seg.AppendRecords(dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("segment scan allocates %.1f per run, want 0", allocs)
	}
}

// TestSegmentCompressionRatio pins the acceptance bar: on the
// pipeline-benchmark spill workload (per-source 256-record LIS
// flushes), segments must be at least 4x smaller than the flat
// 36-byte-per-record encoding.
func TestSegmentCompressionRatio(t *testing.T) {
	var rs []Record
	seqs := make([]uint64, 4)
	tm := int64(0)
	for batch := 0; batch < 32; batch++ {
		src := batch % 4
		for j := 0; j < 256; j++ {
			tm += 120
			rs = append(rs, Record{
				Node:    int32(src),
				Kind:    KindUser,
				Tag:     uint16(j),
				Time:    tm,
				Logical: seqs[src],
			})
			seqs[src]++
		}
	}
	buf := AppendSegment(nil, rs)
	flat := len(rs) * RecordSize
	ratio := float64(flat) / float64(len(buf))
	t.Logf("columnar %.2f B/rec vs flat %d B/rec: %.1fx", float64(len(buf))/float64(len(rs)), RecordSize, ratio)
	if ratio < 4 {
		t.Fatalf("compression ratio %.2fx below the 4x bar (%d bytes for %d records)", ratio, len(buf), len(rs))
	}
}
