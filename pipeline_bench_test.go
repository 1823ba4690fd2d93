// End-to-end runtime data-path benchmark: LIS-side batches travel a
// real transport (in-process pipe or loopback TCP) into an ordered ISM
// and out to a subscriber. This is the throughput number the ISM work
// is judged by — records/sec through the full decode→stage→order→
// dispatch pipeline — alongside the per-op allocation count of the
// steady state. The TCP variant also reports the achieved wire cost
// per record.
package prism

import (
	"runtime"
	"testing"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// pipelineSources is the number of concurrent LIS sources feeding the
// manager, and pipelineBatch the records per data message — sized like
// a real LIS flush.
const (
	pipelineSources = 4
	pipelineBatch   = 256
)

// benchPipelineThroughput drives b.N batches round-robin across
// pipelineSources connections into an ordered ISM and waits for every
// record to be dispatched. One op = one batch of pipelineBatch records.
// When reg is non-nil it must carry the sender-side conn metrics, and
// the achieved wire bytes per record are reported from it.
func benchPipelineThroughput(b *testing.B, reg *metrics.Registry, mk func(m *ism.ISM) ([]tp.Conn, func())) {
	var clock event.VirtualClock
	m := ism.New(ism.Config{
		Buffering: ism.MISO,
		Ordered:   true,
		// Block keeps the measurement lossless: with a lossy policy a
		// fast sender overflows the input stage, the drops open
		// per-source sequence gaps, and the causal orderer holds every
		// later record — measuring pathology instead of throughput.
		Overflow: flow.Block,
		Shards:   runtime.GOMAXPROCS(0),
	}, &clock)
	var delivered int
	m.SubscribeBatch("count", func(rs []trace.Record) { delivered += len(rs) })

	conns, cleanup := mk(m)
	defer cleanup()
	defer m.Close()

	seqs := make([]uint64, pipelineSources)
	b.ReportAllocs()
	b.SetBytes(int64(pipelineBatch * trace.RecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % pipelineSources
		batch := flow.GetBatch(pipelineBatch)
		for j := 0; j < pipelineBatch; j++ {
			batch = append(batch, trace.Record{
				Node:    int32(src),
				Kind:    trace.KindUser,
				Tag:     uint16(j),
				Logical: seqs[src],
			})
			seqs[src]++
		}
		if err := conns[src].Send(tp.PooledDataMessage(int32(src), batch)); err != nil {
			b.Fatal(err)
		}
		// Bound the in-flight backlog so the measurement covers the
		// full pipeline rather than unbounded queue growth.
		if i%64 == 63 {
			m.Drain()
		}
	}
	m.Drain()
	b.StopTimer()
	b.ReportMetric(float64(b.N)*pipelineBatch/b.Elapsed().Seconds(), "records/s")
	if reg != nil {
		snap := reg.Snapshot()
		if recs := snap.Value("tp.recs_tx"); recs > 0 {
			b.ReportMetric(snap.Value("tp.bytes_tx")/recs, "wire-B/rec")
		}
	}
}

// dialPipelineConns dials pipelineSources client connections against
// ln, keeps each drained by a discard goroutine (server-side control
// traffic would otherwise sit unread), and returns them with a combined
// cleanup.
func dialPipelineConns(b *testing.B, m *ism.ISM, ln *tp.Listener, opts ...tp.ConnOption) ([]tp.Conn, func()) {
	b.Helper()
	accepted := make([]tp.Conn, 0, pipelineSources)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pipelineSources; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted = append(accepted, c)
			m.Serve(c)
		}
	}()
	conns := make([]tp.Conn, pipelineSources)
	for i := range conns {
		c, err := tp.Dial(ln.Addr(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
		go func() {
			for {
				msg, err := c.Recv()
				if err != nil {
					return
				}
				tp.Recycle(&msg)
			}
		}()
	}
	<-done
	return conns, func() {
		for _, c := range conns {
			c.Close()
		}
		for _, c := range accepted {
			c.Close()
		}
		ln.Close()
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	b.Run("pipe", func(b *testing.B) {
		benchPipelineThroughput(b, nil, func(m *ism.ISM) ([]tp.Conn, func()) {
			conns := make([]tp.Conn, pipelineSources)
			remotes := make([]tp.Conn, pipelineSources)
			for i := range conns {
				lisSide, ismSide := tp.Pipe(64)
				conns[i] = lisSide
				remotes[i] = ismSide
				m.Serve(ismSide)
			}
			return conns, func() {
				for _, c := range conns {
					c.Close()
				}
			}
		})
	})
	b.Run("tcp", func(b *testing.B) {
		reg := metrics.NewRegistry()
		benchPipelineThroughput(b, reg, func(m *ism.ISM) ([]tp.Conn, func()) {
			ln, err := tp.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			return dialPipelineConns(b, m, ln, tp.WithConnMetrics(reg))
		})
	})
}
