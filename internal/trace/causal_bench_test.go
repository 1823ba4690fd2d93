package trace

import (
	"testing"

	"prism/internal/rng"
)

// Leaf benchmarks of the two ordering stages, fed flush by flush the
// way a manager feeds them (and the way the runtime benchmark's probes
// do): one op is one 256-record LIS flush through the stage's batch
// entry. Three arrival shapes each, and a fourth for the merger:
//
//   - in-order: one source, nothing to repair or match — the floor.
//   - interleaved-16-sources: the generated block in global order, cut
//     every 256 records, so the source changes with nearly every record
//     and every send reaches the merger before its receive: per-source
//     lookups and the message table with nothing held.
//   - held-heavy: per-node flushes. The sequencer sees each node's
//     flushes in swapped pairs (half of all records held for a flush);
//     the merger sees them in fill order, where a receive often arrives
//     a flush ahead of its send and stalls its source (the firehose
//     shape: four records in five parked at some point).
//   - many-in-flight (merger only): interleaved, but a receive follows
//     its send by up to 65 536 records, so the message table holds
//     about 2 800 unmatched sends (3 400 at most): its probe runs and
//     its cache footprint show.

const (
	benchFlush    = 256
	benchNodes    = 8
	benchProcs    = 2
	benchPerNode  = 4 * benchFlush // an even number of flushes per node
	benchPairSkew = 256
)

// orderingBlock generates benchNodes×perNode records over 16 sources:
// every node owns an equal share, one record in ten is a send whose
// receive follows within skew records on another node, and Logical
// carries the per-source capture sequence. perSource is the block's
// record count per source — the shift that makes the next cycle of the
// block the sources' next sequences.
func orderingBlock(perNode, skew int) (block []Record, perSource map[SourceKey]uint64) {
	st := rng.New(15)
	block = make([]Record, benchNodes*perNode)
	for i := range block {
		block[i].Node = int32(i % benchNodes)
	}
	st.Shuffle(len(block), func(i, j int) { block[i].Node, block[j].Node = block[j].Node, block[i].Node })
	perSource = map[SourceKey]uint64{}
	reserved := map[int]Record{} // slots taken by the receive of an earlier send
	for i := range block {
		r := &block[i]
		r.Process = int32(st.Intn(benchProcs))
		r.Time = int64(i)
		r.Kind = KindUser
		if recv, ok := reserved[i]; ok {
			r.Kind, r.Tag, r.Payload = KindRecv, recv.Tag, recv.Payload
		} else if st.Intn(9) == 0 {
			j := i + 1 + st.Intn(skew)
			taken := func(j int) bool { _, ok := reserved[j]; return ok }
			for j < len(block) && (block[j].Node == r.Node || taken(j)) {
				j++
			}
			if j < len(block) && j <= i+skew {
				r.Kind, r.Tag, r.Payload = KindSend, uint16(i), int64(block[j].Node)
				reserved[j] = Record{Kind: KindRecv, Tag: r.Tag, Payload: int64(r.Node)}
			}
		}
		key := SourceKey{r.Node, r.Process}
		r.Logical = perSource[key]
		perSource[key]++
	}
	return block, perSource
}

// nodeFlushes cuts the block the way per-node LIS buffers do: a node's
// buffer flushes when its 256th record arrives.
func nodeFlushes(block []Record) [][]Record {
	var flushes [][]Record
	fill := make([][]Record, benchNodes)
	for _, r := range block {
		if fill[r.Node] = append(fill[r.Node], r); len(fill[r.Node]) == benchFlush {
			flushes = append(flushes, fill[r.Node])
			fill[r.Node] = nil
		}
	}
	return flushes
}

func cut(block []Record) [][]Record {
	var flushes [][]Record
	for ; len(block) > 0; block = block[benchFlush:] {
		flushes = append(flushes, append([]Record(nil), block[:benchFlush]...))
	}
	return flushes
}

// orderingShape is one arrival shape: the flushes of one cycle, the
// per-source record count that shifts the capture sequences from one
// cycle to the next, and the position reached — the stream continues
// across the testing package's b.N rounds, like the stage it feeds.
type orderingShape struct {
	name      string
	flushes   [][]Record
	perSource map[SourceKey]uint64
	fed       int
}

// orderingShapes returns the three arrival shapes; swapPairs delivers
// each node's held-heavy flushes in swapped pairs (the sequencer's
// kind of disorder) instead of fill order (the merger's).
func orderingShapes(swapPairs bool) []*orderingShape {
	block, perSource := orderingBlock(benchPerNode, benchPairSkew)
	one := make([]Record, len(block))
	for i := range one {
		one[i] = Record{Kind: KindUser, Time: int64(i), Logical: uint64(i)}
	}
	held := nodeFlushes(block)
	if swapPairs {
		first := map[int32]int{} // a node's flush waiting for its pair
		for i, f := range held {
			if j, ok := first[f[0].Node]; ok {
				held[i], held[j] = held[j], held[i]
				delete(first, f[0].Node)
			} else {
				first[f[0].Node] = i
			}
		}
	}
	return []*orderingShape{
		{name: "in-order", flushes: cut(one), perSource: map[SourceKey]uint64{{}: uint64(len(one))}},
		{name: "interleaved-16-sources", flushes: cut(block), perSource: perSource},
		{name: "held-heavy", flushes: held, perSource: perSource},
	}
}

// run feeds b.N more flushes through feed, shifting every capture
// sequence by the per-source count between cycles (off the clock) so
// the stream never repeats, and reports whether it stopped at the end
// of a cycle.
func (sh *orderingShape) run(b *testing.B, feed func(flush []Record)) (wholeCycles bool) {
	b.ReportAllocs()
	b.SetBytes(benchFlush * RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sh.fed % len(sh.flushes)
		if k == 0 && sh.fed > 0 {
			b.StopTimer()
			for _, f := range sh.flushes {
				for j := range f {
					f[j].Logical += sh.perSource[SourceKey{f[j].Node, f[j].Process}]
				}
			}
			b.StartTimer()
		}
		feed(sh.flushes[k])
		sh.fed++
	}
	return sh.fed%len(sh.flushes) == 0
}

func BenchmarkSequencer(b *testing.B) {
	for _, sh := range orderingShapes(true) {
		s := NewSequencer()
		spare := make([]Record, 0, 2*benchFlush)
		alloc := func(int) []Record { return spare }
		b.Run(sh.name, func(b *testing.B) {
			whole := sh.run(b, func(flush []Record) { s.AddBatch(flush, alloc) })
			if whole && (s.Held() != 0 || s.Sequenced() != uint64(sh.fed*benchFlush)) {
				b.Fatalf("after %d flushes: sequenced %d, held %d", sh.fed, s.Sequenced(), s.Held())
			}
		})
	}
}

func BenchmarkCausalMerger(b *testing.B) {
	block, perSource := orderingBlock(32*benchPerNode, 256*benchPairSkew)
	many := &orderingShape{name: "many-in-flight", flushes: cut(block), perSource: perSource}
	for _, sh := range append(orderingShapes(false), many) {
		m := NewCausalMerger()
		out := make([]Record, 0, 16*benchFlush)
		b.Run(sh.name, func(b *testing.B) {
			whole := sh.run(b, func(flush []Record) { out = m.AddBatchTo(out[:0], flush) })
			if whole && (m.Held() != 0 || m.Dispatched() != uint64(sh.fed*benchFlush)) {
				b.Fatalf("after %d flushes: dispatched %d, parked %d", sh.fed, m.Dispatched(), m.Held())
			}
		})
	}
}
