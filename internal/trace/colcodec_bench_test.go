package trace

import (
	"fmt"
	"math/rand"
	"testing"
)

// Yardsticks of the column decoder's two entries: one op is one
// 8192-record segment (the tier's seal size) through Parse +
// AppendRecords, or one wire body through DecodeColumns. The records
// reproduce the varint-length mix measured in 8192-record segments of
// the runtime benchmark's seed-1 stream, so neither entry is judged on
// the one-byte case alone.

// lengthMix is one varint column's length distribution: the percentage
// of varints that are 1, 2 and 3 bytes long.
type lengthMix [3]float64

// measuredMix is the seed-1 table (colcodec.go), per varint column:
//
//	           1 byte   2 bytes   3 bytes
//	time        2.4 %   82.5 %    15.0 %
//	logical    21.7 %   78.3 %
//	tag        66.5 %   28.4 %     5.1 %
//	payload    22.2 %   14.4 %    63.4 %
var measuredMix = [4]lengthMix{
	{2.4, 82.5, 15.0},
	{21.7, 78.3, 0},
	{66.5, 28.4, 5.1},
	{22.2, 14.4, 63.4},
}

// oneByteMix makes every varint column one byte per record.
var oneByteMix = [4]lengthMix{{100}, {100}, {100}, {100}}

// zigzagOfLength draws a zigzag value whose varint length follows mix,
// below limit.
func zigzagOfLength(rng *rand.Rand, mix lengthMix, limit uint64) uint64 {
	p := rng.Float64() * 100
	n := 1
	for ; n < len(mix) && p >= mix[n-1]; n++ {
		p -= mix[n-1]
	}
	lo, hi := uint64(0), uint64(1)<<(7*n)
	if n > 1 {
		lo = 1 << (7 * (n - 1))
	}
	hi = min(hi, limit)
	return lo + uint64(rng.Int63n(int64(hi-lo)))
}

// mixBatch builds n records whose time, logical, tag and payload
// columns encode with the given varint-length mixes: each draws the
// zigzag value of its delta-of-delta or delta first and integrates it.
// Node, process and kind change nearly every record, as in the
// benchmark's globally ordered stream: 8 nodes × 2 processes and a
// 40/20/20/20 user/sample/block/send-recv kind split.
func mixBatch(rng *rand.Rand, n int, mix [4]lengthMix) []Record {
	kinds := [...]Kind{KindUser, KindUser, KindSample, KindBlockIn, KindSend}
	rs := make([]Record, n)
	var tm, tmDelta, lg, lgDelta int64
	var tag, payload int64
	for i := range rs {
		tmDelta += unzigzag(zigzagOfLength(rng, mix[0], 1<<63))
		tm += tmDelta
		lgDelta += unzigzag(zigzagOfLength(rng, mix[1], 1<<63))
		lg += lgDelta
		// A zigzag value below 1<<16 is a delta of at most 32768 either
		// way, so one of u and u^1 (same length, opposite sign) keeps
		// the tag inside the uint16 range.
		u := zigzagOfLength(rng, mix[2], 1<<16)
		if d := unzigzag(u); tag+d < 0 || tag+d > 0xffff {
			u ^= 1
		}
		tag += unzigzag(u)
		payload += unzigzag(zigzagOfLength(rng, mix[3], 1<<63))
		k := kinds[rng.Intn(len(kinds))]
		if k == KindSend && rng.Intn(2) == 0 {
			k = KindRecv
		}
		rs[i] = Record{
			Node:    int32(rng.Intn(8)),
			Process: int32(rng.Intn(2)),
			Kind:    k,
			Tag:     uint16(tag),
			Time:    tm,
			Logical: uint64(lg),
			Payload: payload,
		}
	}
	return rs
}

// flatFrame is mixBatch with one node throughout: the per-node frame a
// LIS flushes, whose node column is a single run while process (two
// ids) and kind runs stay short, about 2 and 1.35 records.
func flatFrame(rng *rand.Rand, n int, mix [4]lengthMix) []Record {
	rs := mixBatch(rng, n, mix)
	for i := range rs {
		rs[i].Node = 3
	}
	return rs
}

// decodeShapes are the two run shapes the decode yardsticks time: the
// globally ordered stream a segment holds (node runs of about 1.14
// records, so about 2.1 runs per record over node, process and kind)
// and a per-node frame (one node run, about 1.25 runs per record).
var decodeShapes = [...]struct {
	name  string
	batch func(*rand.Rand, int, [4]lengthMix) []Record
}{
	{"shuffled", mixBatch},
	{"flat", flatFrame},
}

const decodeBenchRecords = 8192

func BenchmarkSegmentDecode(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run("shape="+shape.name, func(b *testing.B) {
			rs := shape.batch(rand.New(rand.NewSource(1)), decodeBenchRecords, measuredMix)
			buf := AppendSegment(nil, rs)
			var seg Segment
			dst := make([]Record, 0, len(rs))
			b.ReportAllocs()
			b.SetBytes(int64(len(rs) * RecordSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := seg.Parse(buf)
				if err == nil {
					dst, err = seg.AppendRecords(dst[:0])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkColumnsDecode times the wire decoder at the frame sizes the
// runtime benchmark sends — 32 records (flat_paced's LIS flush), 256
// (flat_firehose's), 512 (fed_tree's uplink batch) — and at the
// segment size.
func BenchmarkColumnsDecode(b *testing.B) {
	for _, shape := range decodeShapes {
		for _, n := range [...]int{32, 256, 512, decodeBenchRecords} {
			b.Run(fmt.Sprintf("shape=%s/records=%d", shape.name, n), func(b *testing.B) {
				rs := shape.batch(rand.New(rand.NewSource(1)), n, measuredMix)
				var cc ColumnCodec
				cols := cc.AppendColumns(nil, rs)
				dst := make([]Record, len(rs))
				b.ReportAllocs()
				b.SetBytes(int64(len(rs) * RecordSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := DecodeColumns(cols, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs)), "ns/rec")
			})
		}
	}
}

// BenchmarkColumnsEncode times the wire encoder on the shapes and
// sizes BenchmarkColumnsDecode decodes, into one reused buffer and
// codec as a stream conn encodes its frames.
func BenchmarkColumnsEncode(b *testing.B) {
	for _, shape := range decodeShapes {
		for _, n := range [...]int{32, 256, 512, decodeBenchRecords} {
			b.Run(fmt.Sprintf("shape=%s/records=%d", shape.name, n), func(b *testing.B) {
				rs := shape.batch(rand.New(rand.NewSource(1)), n, measuredMix)
				var cc ColumnCodec
				buf := cc.AppendColumns(nil, rs)
				b.ReportAllocs()
				b.SetBytes(int64(len(rs) * RecordSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = cc.AppendColumns(buf[:0], rs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs)), "ns/rec")
			})
		}
	}
}

// BenchmarkRunsDecode times the node, process and kind columns of one
// 8192-record segment alone, through the run decoders both entries
// share.
func BenchmarkRunsDecode(b *testing.B) {
	for _, shape := range decodeShapes {
		b.Run("shape="+shape.name, func(b *testing.B) {
			rs := shape.batch(rand.New(rand.NewSource(1)), decodeBenchRecords, measuredMix)
			var off [numColumns]int
			var cc ColumnCodec
			buf := cc.appendColumns(nil, rs, &off)
			node, proc, kind := buf[off[2]:off[3]], buf[off[3]:off[4]], buf[off[4]:off[5]]
			dst := make([]Record, len(rs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := decodeRunsCol(node, 2, dst)
				if err == nil {
					_, err = decodeRunsCol(proc, 3, dst)
				}
				if err == nil {
					_, err = decodeKindsCol(kind, dst)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs)), "ns/rec")
		})
	}
}
