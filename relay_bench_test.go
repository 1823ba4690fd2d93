// Federated fan-in benchmark: N uplink sessions feed a root relay
// over a real transport (in-process pipes or loopback TCP) and the
// relay k-way merges the lane streams into one causally ordered root
// trace. This is the federation tier's throughput number — records/sec
// through the uplink batch → session → lane admission → watermark
// merge → causal dispatch path. The TCP variant also reports the
// achieved wire cost per record.
package prism

import (
	"sync"
	"testing"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// relayLanes is the relay's downstream fan-in, and relayBatch the
// records per uplink flush — sized like a leaf manager's dispatch
// batch.
const (
	relayLanes = 4
	relayBatch = 256
)

// benchRelayFanIn drives b.N batches round-robin across relayLanes
// uplinks into a root relay and waits for every record to be merged.
// Capture Times interleave globally across lanes, so the merge is
// doing real frontier work, not lane-at-a-time pass-through. One op =
// one batch of relayBatch records. mk serves the lane's remote side
// into r and returns the local conns for the uplinks to wrap; a non-nil
// reg (carrying the lane conns' metrics) adds the achieved wire bytes
// per record.
func benchRelayFanIn(b *testing.B, reg *metrics.Registry, mk func(r *relay.Relay) ([]tp.Conn, func())) {
	r := relay.New(relay.Config{Root: true, Downstreams: relayLanes})
	var delivered uint64
	r.SubscribeBatch("count", func(rs []trace.Record) { delivered += uint64(len(rs)) })

	conns, cleanup := mk(r)
	defer cleanup()

	ups := make([]*relay.Uplink, relayLanes)
	for i := range ups {
		ups[i] = relay.NewUplink(int32(100+i), conns[i], relay.UplinkConfig{
			BatchSize: relayBatch,
			Window:    1024,
		})
	}

	seqs := make([]uint64, relayLanes)
	var now int64
	b.ReportAllocs()
	b.SetBytes(int64(relayBatch * trace.RecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane := i % relayLanes
		batch := flow.GetBatch(relayBatch)
		for j := 0; j < relayBatch; j++ {
			now++
			batch = append(batch, trace.Record{
				Node:    int32(lane),
				Kind:    trace.KindUser,
				Time:    now,
				Payload: now,
				Logical: seqs[lane],
			})
			seqs[lane]++
		}
		ups[lane].Push(batch)
		flow.PutBatch(batch)
	}
	// Seal every lane so the merge can release the Time-tails the
	// other lanes' watermarks were holding, then drain end to end.
	for _, up := range ups {
		up.Flush()
		up.Mark(now + 1)
	}
	r.Drain()
	b.StopTimer()
	b.ReportMetric(float64(b.N)*relayBatch/b.Elapsed().Seconds(), "records/s")
	if reg != nil {
		snap := reg.Snapshot()
		if recs := snap.Value("tp.recs_tx"); recs > 0 {
			b.ReportMetric(snap.Value("tp.bytes_tx")/recs, "wire-B/rec")
		}
	}

	var wg sync.WaitGroup
	for _, up := range ups {
		wg.Add(1)
		go func(u *relay.Uplink) {
			defer wg.Done()
			u.Close()
		}(up)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	if delivered == 0 && b.N > 0 {
		b.Fatal("no records merged")
	}
}

// dialRelayConns dials relayLanes client connections against ln,
// serving each accepted side into r, and returns them with a combined
// cleanup. Unlike the pipeline benchmark no drain goroutine is needed:
// the uplink's own ack loop keeps each conn's Recv advancing.
func dialRelayConns(b *testing.B, r *relay.Relay, ln *tp.Listener, opts ...tp.ConnOption) ([]tp.Conn, func()) {
	b.Helper()
	accepted := make([]tp.Conn, 0, relayLanes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < relayLanes; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted = append(accepted, c)
			r.Serve(c)
		}
	}()
	conns := make([]tp.Conn, relayLanes)
	for i := range conns {
		c, err := tp.Dial(ln.Addr(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}
	<-done
	return conns, func() {
		for _, c := range accepted {
			c.Close()
		}
		ln.Close()
	}
}

func BenchmarkRelayFanIn(b *testing.B) {
	b.Run("pipe", func(b *testing.B) {
		benchRelayFanIn(b, nil, func(r *relay.Relay) ([]tp.Conn, func()) {
			conns := make([]tp.Conn, relayLanes)
			for i := range conns {
				lisSide, ismSide := tp.Pipe(64)
				conns[i] = lisSide
				r.Serve(ismSide)
			}
			return conns, func() {}
		})
	})
	b.Run("tcp", func(b *testing.B) {
		reg := metrics.NewRegistry()
		benchRelayFanIn(b, reg, func(r *relay.Relay) ([]tp.Conn, func()) {
			ln, err := tp.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			return dialRelayConns(b, r, ln, tp.WithConnMetrics(reg))
		})
	})
}
