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

// segmentBatches is how many distinct seeded 8192-record segments a
// segment yardstick cycles through, as a scan meets fresh segments;
// each shape also keeps a repeat=1 case, one segment decoded over and
// over, so the gap a learnt branch predictor makes stays visible
// (freshBatches).
const segmentBatches = 16

// segmentCases runs fn as one sub-benchmark per shape on
// segmentBatches fresh segments' records, drawn from seed 1, and one
// on the first of them alone (repeat=1). One op decodes the next.
func segmentCases(b *testing.B, fn func(b *testing.B, rss [][]Record)) {
	for _, shape := range decodeShapes {
		rng := rand.New(rand.NewSource(1))
		rss := make([][]Record, segmentBatches)
		for i := range rss {
			rss[i] = shape.batch(rng, decodeBenchRecords, measuredMix)
		}
		b.Run("shape="+shape.name, func(b *testing.B) { fn(b, rss) })
		b.Run("shape="+shape.name+"/repeat=1", func(b *testing.B) { fn(b, rss[:1]) })
	}
}

// BenchmarkSegmentDecode times Parse + AppendRecords, one op one
// segment.
func BenchmarkSegmentDecode(b *testing.B) {
	segmentCases(b, func(b *testing.B, rss [][]Record) {
		bufs := make([][]byte, len(rss))
		for i, rs := range rss {
			bufs[i] = AppendSegment(nil, rs)
		}
		var seg Segment
		dst := make([]Record, 0, decodeBenchRecords)
		b.ReportAllocs()
		b.SetBytes(decodeBenchRecords * RecordSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := seg.Parse(bufs[i%len(bufs)])
			if err == nil {
				dst, err = seg.AppendRecords(dst[:0])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(decodeBenchRecords*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/decodeBenchRecords, "ns/rec")
	})
}

// segmentColumns is one segment's column bytes and their offsets, as
// decodeColumnsAt takes them.
type segmentColumns struct {
	buf []byte
	off [numColumns + 1]int
}

func encodeColumns(rss [][]Record) []segmentColumns {
	var cc ColumnCodec
	cols := make([]segmentColumns, len(rss))
	for i, rs := range rss {
		var off [numColumns]int
		cols[i].buf = cc.appendColumns(nil, rs, &off)
		copy(cols[i].off[:], off[:])
		cols[i].off[numColumns] = len(cols[i].buf)
	}
	return cols
}

// BenchmarkVarintColsDecode times the time, logical, tag and payload
// columns of a segment alone, through decodeVarintCols.
func BenchmarkVarintColsDecode(b *testing.B) {
	segmentCases(b, func(b *testing.B, rss [][]Record) {
		cols := encodeColumns(rss)
		dst := make([]Record, decodeBenchRecords)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &cols[i%len(cols)]
			if err := decodeVarintCols(c.buf, &c.off, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/decodeBenchRecords, "ns/rec")
	})
}

// BenchmarkRunsDecode times the node, process and kind columns of a
// segment alone, through the run decoders both entries share.
func BenchmarkRunsDecode(b *testing.B) {
	segmentCases(b, func(b *testing.B, rss [][]Record) {
		cols := encodeColumns(rss)
		dst := make([]Record, decodeBenchRecords)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &cols[i%len(cols)]
			_, err := decodeRunsCol(c.buf[c.off[2]:c.off[3]], 2, dst)
			if err == nil {
				_, err = decodeRunsCol(c.buf[c.off[3]:c.off[4]], 3, dst)
			}
			if err == nil {
				_, err = decodeKindsCol(c.buf[c.off[4]:c.off[5]], dst)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/decodeBenchRecords, "ns/rec")
	})
}

// freshBatches and freshRecords set how many distinct seeded batches
// a codec yardstick cycles through: at least freshBatches, and enough
// to hold freshRecords records. The runtime never codes the same batch
// twice, and a loop over few batches lets the branch predictor learn
// their run ends and varint lengths: the branchy encoder cost 31–35
// ns/rec on one 256-record batch repeated and 56–71 on fresh ones, and
// 64 batches of 32 records (2 048 records) still read about a third
// cheaper than 512. Each shape keeps one repeat=1 case at 256 records,
// so the gap stays visible.
const (
	freshBatches = 64
	freshRecords = 1 << 14
)

// codecSizes are the frame sizes the runtime benchmark sends — 32
// records (flat_paced's LIS flush), 256 (flat_firehose's), 512
// (fed_tree's uplink batch) — and the segment size.
var codecSizes = [...]int{32, 256, 512, decodeBenchRecords}

// codecCase is one codec yardstick: count distinct batches of n
// records of one shape, drawn from seed 1.
type codecCase struct {
	name     string
	batch    func(*rand.Rand, int, [4]lengthMix) []Record
	n, count int
}

// codecCases lists every shape at every size on fresh batches, and the
// repeat=1 case of each shape.
func codecCases() []codecCase {
	var cs []codecCase
	for _, shape := range decodeShapes {
		for _, n := range codecSizes {
			cs = append(cs, codecCase{fmt.Sprintf("shape=%s/records=%d", shape.name, n), shape.batch, n, max(freshBatches, freshRecords/n)})
		}
		cs = append(cs, codecCase{fmt.Sprintf("shape=%s/records=256/repeat=1", shape.name), shape.batch, 256, 1})
	}
	return cs
}

func (c codecCase) batches() [][]Record {
	rng := rand.New(rand.NewSource(1))
	bs := make([][]Record, c.count)
	for i := range bs {
		bs[i] = c.batch(rng, c.n, measuredMix)
	}
	return bs
}

// BenchmarkColumnsDecode times the wire decoder at codecSizes, one op
// decoding the next of the case's batches.
func BenchmarkColumnsDecode(b *testing.B) {
	for _, c := range codecCases() {
		b.Run(c.name, func(b *testing.B) {
			var cc ColumnCodec
			var bodies [][]byte
			for _, rs := range c.batches() {
				bodies = append(bodies, cc.AppendColumns(nil, rs))
			}
			dst := make([]Record, c.n)
			b.ReportAllocs()
			b.SetBytes(int64(c.n * RecordSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeColumns(bodies[i%len(bodies)], dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/rec")
		})
	}
}

// BenchmarkColumnsEncode times the wire encoder on the cases
// BenchmarkColumnsDecode decodes, into one reused buffer and codec as a
// stream conn encodes its frames.
func BenchmarkColumnsEncode(b *testing.B) {
	for _, c := range codecCases() {
		b.Run(c.name, func(b *testing.B) {
			bs := c.batches()
			var cc ColumnCodec
			buf := cc.AppendColumns(nil, bs[0])
			b.ReportAllocs()
			b.SetBytes(int64(c.n * RecordSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = cc.AppendColumns(buf[:0], bs[i%len(bs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/rec")
		})
	}
}

// BenchmarkColumnEncode times each column's encoder alone on 256-record
// batches of both shapes, fresh and repeated: the per-column table in
// the colcodec.go header.
func BenchmarkColumnEncode(b *testing.B) {
	var cc ColumnCodec
	cols := [numColumns]func(b []byte, rs []Record) int{
		func(b []byte, rs []Record) int { return putTimeCol(b, 0, rs) },
		func(b []byte, rs []Record) int { return putLogicalCol(b, 0, rs) },
		func(b []byte, rs []Record) int { return putIDCol(b, 0, rs, 2) },
		func(b []byte, rs []Record) int { return putIDCol(b, 0, rs, 3) },
		func(b []byte, rs []Record) int {
			p, kinds := putKindCol(b, 0, rs, cc.kinds)
			cc.kinds = kinds
			return p
		},
		func(b []byte, rs []Record) int { return putTagCol(b, 0, rs) },
		func(b []byte, rs []Record) int { return putPayloadCol(b, 0, rs) },
	}
	for _, shape := range decodeShapes {
		for ci, put := range cols {
			for _, count := range [...]int{freshBatches, 1} {
				c := codecCase{"", shape.batch, 256, count}
				b.Run(fmt.Sprintf("shape=%s/col=%s/batches=%d", shape.name, colNames[ci], count), func(b *testing.B) {
					bs := c.batches()
					buf := make([]byte, MaxColumnsSize(c.n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						put(buf, bs[i%len(bs)])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/rec")
				})
			}
		}
	}
}
