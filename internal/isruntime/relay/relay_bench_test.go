package relay

import (
	"fmt"
	"testing"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// The relay's merge at chosen lane counts and run lengths. A run is a
// stretch of one lane's records that no other lane's record interrupts
// in the (Time, Node, Process) order. While every lane holds a head the
// merge runs in passes: per record, one comparison for two lanes and a
// scan for more, with no heap sift and no round trip through the merge
// core. A pass ends at an exhausted slot or a flushBatch, never at a run
// boundary, so the cost per record should follow the lane count and
// not the run length. The seeded runtime benchmark shuffles nodes
// uniformly over its two leaves and can vary neither; here both are
// parameters.

const (
	mergeBenchBatch   = 512 // records per session batch, the uplink default
	mergeBenchSources = 8   // sources per lane
)

// BenchmarkRelayMerge drives lanes of raw session batches through
// pipes into a root relay: admission, the frontier merge, the causal
// merger, the dispatch-gated acks. One op is one batch on each lane.
// The lanes' capture Times take turns in stretches of run records;
// run=slot gives each batch one stretch.
func BenchmarkRelayMerge(b *testing.B) {
	for _, lanes := range []int{2, 3, 8} {
		for _, run := range []int{1, 2, 64, mergeBenchBatch} {
			name := fmt.Sprintf("lanes=%d/run=%d", lanes, run)
			if run == mergeBenchBatch {
				name = fmt.Sprintf("lanes=%d/run=slot", lanes)
			}
			b.Run(name, func(b *testing.B) { benchRelayMerge(b, lanes, run) })
		}
	}
}

func benchRelayMerge(b *testing.B, lanes, run int) {
	rel := New(Config{Root: true, Downstreams: lanes})
	var delivered uint64
	rel.SubscribeBatch("count", func(rs []trace.Record) { delivered += uint64(len(rs)) })
	conns := make([]tp.Conn, lanes)
	for i := range conns {
		local, remote := tp.Pipe(64)
		conns[i] = local
		rel.Serve(remote)
		go func() { // the gated acks come back up the pipe
			for {
				if _, err := local.Recv(); err != nil {
					return
				}
			}
		}()
	}
	send := func(lane int, seq int64, recs []trace.Record) {
		m := tp.PooledDataMessage(int32(100+lane), recs)
		m.Arg = seq
		if err := conns[lane].Send(m); err != nil {
			b.Fatal(err)
		}
	}
	// offset[lane][j] is the Time of a batch's j-th record past the
	// batch round's base: stretches of run records, the lanes taking
	// turns.
	offset := make([][mergeBenchBatch]int64, lanes)
	for lane := range offset {
		for j := range offset[lane] {
			offset[lane][j] = int64((j/run*lanes+lane)*run + j%run)
		}
	}
	seqs := make([][mergeBenchSources]uint64, lanes)

	b.ReportAllocs()
	b.SetBytes(int64(lanes * mergeBenchBatch * trace.RecordSize))
	b.ResetTimer()
	var base int64
	for i := 0; i < b.N; i++ {
		for lane := 0; lane < lanes; lane++ {
			batch := flow.GetBatch(mergeBenchBatch)[:mergeBenchBatch]
			for j := range batch {
				src := j % mergeBenchSources
				batch[j] = trace.Record{
					Node:    int32(lane*mergeBenchSources + src),
					Kind:    trace.KindUser,
					Time:    base + offset[lane][j],
					Logical: seqs[lane][src],
				}
				seqs[lane][src]++
			}
			send(lane, int64(i+1), batch)
		}
		base += int64(lanes * mergeBenchBatch)
	}
	// Mark every lane at the end so each releases the tail the others'
	// watermarks hold, then drain end to end.
	for lane := 0; lane < lanes; lane++ {
		mark := flow.GetBatch(1)[:1]
		mark[0] = markRecord(base)
		send(lane, int64(b.N+1), mark)
	}
	want := uint64(b.N) * uint64(lanes) * mergeBenchBatch
	for rel.Stats().Dispatched < want { // in flight on a pipe, Drain would not see it
		rel.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(want)/b.Elapsed().Seconds(), "records/s")
	st := rel.Stats()
	if err := rel.Close(); err != nil {
		b.Fatal(err)
	}
	if delivered != want || st.OrderBreaks+st.DupRecords+st.PartitionRejects != 0 {
		b.Fatalf("delivered %d of %d records, stats %+v", delivered, want, st)
	}
}
