package trace

import (
	"math/rand"
	"testing"
)

// FuzzSegmentDecode drives the columnar decoder with arbitrary bytes:
// whatever the input, Parse and the decode paths must return an error
// or a valid batch — never panic, never run away. Whatever the segment
// decoder accepts, the wire decoder, which finds the column boundaries
// itself, and the serial reference must decode to the same records
// from the same bytes; and a re-encode must round-trip, pinning
// encoder/decoder agreement on fuzz-discovered shapes.
func FuzzSegmentDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1337))
	empty := AppendSegment(nil, nil)
	small := AppendSegment(nil, []Record{
		{Node: 1, Process: 2, Kind: KindSend, Tag: 9, Time: 100, Logical: 5, Payload: -7},
	})
	big := AppendSegment(nil, randomBatch(rng, 300))
	two := AppendSegment(append([]byte(nil), small...), randomBatch(rng, 40))
	f.Add(empty)
	f.Add(small)
	f.Add(big)
	f.Add(two)
	f.Add(big[:len(big)/2])
	f.Add([]byte{})
	f.Add([]byte("PSEG"))
	// The interleaved decoder's fallback: 5- to 10-byte varints, and
	// columns shorter than one 4-byte load.
	f.Add(AppendSegment(nil, extremesBatch(rng, 40)))
	f.Add(AppendSegment(nil, mixBatch(rng, 200, measuredMix)))
	for n := 1; n <= 3; n++ {
		f.Add(AppendSegment(nil, mixBatch(rng, n, measuredMix)))
	}
	// Run columns at the edges of the run decoders, and malformed ones.
	for _, ci := range [...]int{2, 3, 4} {
		for _, e := range runEdges {
			f.Add(AppendSegment(nil, runEdgeBatch(rng, ci, e)))
		}
	}
	for _, b := range badRunCols {
		_, seg := withRunCol(f, b)
		f.Add(seg)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var seg Segment
		rest := data
		for hops := 0; hops < 64; hops++ {
			var err error
			rest, err = seg.Parse(rest)
			if err != nil {
				return
			}
			out, err := seg.AppendRecords(nil)
			if err != nil {
				// A checksum-valid segment that fails the column decode
				// would be an encoder/decoder disagreement — possible
				// only for fuzz-crafted bytes whose crc happens to
				// hold, so an error return (not a panic) is all that is
				// required here.
				return
			}
			if len(out) != seg.Count() {
				t.Fatalf("decoded %d records, footer says %d", len(out), seg.Count())
			}
			cols := seg.buf[seg.colOff[0]:seg.colOff[numColumns]]
			wire, serial := make([]Record, len(out)), make([]Record, len(out))
			if err := DecodeColumns(cols, wire); err != nil {
				t.Fatalf("wire decoder rejects columns the segment decoder took: %v", err)
			}
			if err := serialDecodeColumns(cols, serial); err != nil {
				t.Fatalf("serial reference rejects columns the segment decoder took: %v", err)
			}
			for i := range out {
				if wire[i] != out[i] || serial[i] != out[i] {
					t.Fatalf("record %d: segment decoder %+v, wire decoder %+v, reference %+v", i, out[i], wire[i], serial[i])
				}
			}
			if _, err := seg.AppendRange(nil, seg.MinTime(), seg.MaxTime()); err != nil {
				t.Fatalf("range decode failed after full decode: %v", err)
			}
			// Round-trip: re-encoding the decoded batch must parse and
			// decode back to the same records.
			re := AppendSegment(nil, out)
			var seg2 Segment
			if _, err := seg2.Parse(re); err != nil {
				t.Fatalf("re-encode failed to parse: %v", err)
			}
			back, err := seg2.AppendRecords(nil)
			if err != nil {
				t.Fatalf("re-encode failed to decode: %v", err)
			}
			if len(back) != len(out) {
				t.Fatalf("re-encode count %d, want %d", len(back), len(out))
			}
			for i := range out {
				if back[i] != out[i] {
					t.Fatalf("re-encode record %d drifted", i)
				}
			}
			if len(rest) == 0 {
				return
			}
		}
	})
}
