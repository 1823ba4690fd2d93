package ism

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

func dataMsg(node int32, rs ...trace.Record) tp.Message {
	return tp.DataMessage(node, rs)
}

// seqRec builds a record carrying its capture sequence in Logical, as
// sensors do.
func seqRec(node int32, kind trace.Kind, tag uint16, seq uint64, payload int64) trace.Record {
	return trace.Record{Node: node, Kind: kind, Tag: tag, Logical: seq, Payload: payload}
}

func TestBufferingString(t *testing.T) {
	if SISO.String() != "SISO" || MISO.String() != "MISO" {
		t.Fatal("buffering names")
	}
}

func TestUnorderedPassThrough(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()

	var mu sync.Mutex
	var got []trace.Record
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 1, 0, 0), seqRec(0, trace.KindUser, 2, 1, 0)))
	m.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Tag != 1 || got[1].Tag != 2 {
		t.Fatalf("got %v", got)
	}
	st := m.Stats()
	if st.Arrived != 2 || st.Dispatched != 2 || st.OutOfOrder != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOrderedReassemblesCausalOrder(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO, Ordered: true}, &clock)
	defer m.Close()

	var mu sync.Mutex
	var got []trace.Record
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	// Deliver seq 1 before seq 0.
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 11, 1, 0)))
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 10, 0, 0)))
	m.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Tag != 10 || got[1].Tag != 11 {
		t.Fatalf("causal order not restored: %v", got)
	}
	if err := trace.CheckCausal(got); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.OutOfOrder != 1 {
		t.Fatalf("out-of-order count %d", st.OutOfOrder)
	}
	if st.HoldBackRatio != 0.5 {
		t.Fatalf("hold-back ratio %v", st.HoldBackRatio)
	}
	if st.MaxHeld != 1 {
		t.Fatalf("max held %d", st.MaxHeld)
	}
}

func TestOrderedMatchesSendRecvAcrossNodes(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: MISO, Ordered: true}, &clock)
	defer m.Close()

	var mu sync.Mutex
	var got []trace.Record
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	// Recv (node 1) arrives before its send (node 0).
	m.Inject(dataMsg(1, seqRec(1, trace.KindRecv, 3, 0, 0)))
	m.Inject(dataMsg(0, seqRec(0, trace.KindSend, 3, 0, 1)))
	m.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Kind != trace.KindSend || got[1].Kind != trace.KindRecv {
		t.Fatalf("got %v", got)
	}
	if err := trace.CheckCausal(got); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMeasurement(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()
	block := make(chan struct{})
	m.SubscribeBatch("slow", func(rs []trace.Record) {
		if rs[0].Tag == 0 {
			<-block // stall the processor on the first record
		}
	})
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 0, 0, 0)))
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 1, 1, 0)))
	// The second record queues at clock 0; advance the clock before
	// the processor can reach it, so its measured latency is 5000ns.
	time.Sleep(2 * time.Millisecond)
	clock.Advance(5000)
	close(block)
	m.Drain()
	st := m.Stats()
	if st.MeanLatencyNs <= 0 || st.MaxLatencyNs < 5000 {
		t.Fatalf("latency not measured: %+v", st)
	}
}

func TestSpooling(t *testing.T) {
	var clock event.VirtualClock
	var buf bytes.Buffer
	m := New(Config{Buffering: SISO, Spool: &buf}, &clock)
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 1, 0, 0), seqRec(0, trace.KindUser, 2, 1, 0)))
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rs, _, err := trace.DecodeSegments(nil, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Tag != 1 {
		t.Fatalf("spooled %v", rs)
	}
}

func TestServeAndBroadcast(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()

	var mu sync.Mutex
	count := 0
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		count += len(rs)
		mu.Unlock()
	})

	lisSide, ismSide := tp.Pipe(16)
	m.Serve(ismSide)
	if err := lisSide.Send(dataMsg(0, seqRec(0, trace.KindUser, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("served record never dispatched")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	m.Broadcast(tp.CtlFlush, 0)
	msg, err := lisSide.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != tp.MsgControl || msg.Control != tp.CtlFlush {
		t.Fatalf("broadcast %+v", msg)
	}
	lisSide.Close()
}

// TestServeDegraded: every served node's traffic, plain or sequenced,
// is liveness to the session receiver, and a node silent past the
// budget is reported degraded against the ISM's clock.
func TestServeDegraded(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()
	lisSide, ismSide := tp.Pipe(16)
	m.Serve(ismSide)
	if err := lisSide.Send(dataMsg(3, seqRec(3, trace.KindUser, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Dispatched < 1 {
		if time.Now().After(deadline) {
			t.Fatal("served record never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	if deg := m.Degraded(time.Second); len(deg) != 0 {
		t.Fatalf("degraded %v right after traffic", deg)
	}
	clock.Advance(int64(2 * time.Second))
	if deg := m.Degraded(time.Second); !slices.Equal(deg, []int32{3}) {
		t.Fatalf("degraded %v after 2s of silence, want [3]", deg)
	}
	_ = lisSide.Close()
}

func TestGangFlushOverTP(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()

	var mu sync.Mutex
	received := 0
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		received += len(rs)
		mu.Unlock()
	})

	// Three LISes behind control loops, each with buffered records.
	const nodes = 3
	var conns []tp.Conn
	for i := 0; i < nodes; i++ {
		lisSide, ismSide := tp.Pipe(32)
		m.Serve(ismSide)
		conns = append(conns, lisSide)
		b, err := lis.NewBuffered(int32(i), 32, lisSide)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e <= i; e++ {
			b.Capture(trace.Record{Node: int32(i), Kind: trace.KindUser, Logical: uint64(e)})
		}
		go func() { _ = lis.ControlLoop(lisSide, b) }()
	}

	acks := m.GangFlush(2 * time.Second)
	if acks != nodes {
		t.Fatalf("acks %d of %d", acks, nodes)
	}
	// All buffered records (1+2+3 = 6) must arrive.
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := received
		mu.Unlock()
		if n == 6 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("received %d of 6", n)
		default:
			time.Sleep(time.Millisecond)
			m.Drain()
		}
	}
	for _, c := range conns {
		c.Close()
	}
}

func TestGangFlushTimeout(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()
	// A served connection whose LIS never acknowledges.
	lisSide, ismSide := tp.Pipe(4)
	m.Serve(ismSide)
	defer lisSide.Close()
	if acks := m.GangFlush(20 * time.Millisecond); acks != 0 {
		t.Fatalf("phantom acks %d", acks)
	}
}

// TestGangFlushForgetsClosedConn pins that a served connection whose
// reader has exited no longer counts toward GangFlush: three LISes
// behind control loops, one closes, and the sweep returns the two live
// acknowledgements without waiting out its timeout.
func TestGangFlushForgetsClosedConn(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()
	var peers []tp.Conn
	for i := 0; i < 3; i++ {
		lisSide, ismSide := tp.Pipe(32)
		m.Serve(ismSide)
		peers = append(peers, lisSide)
		b, err := lis.NewBuffered(int32(i), 32, lisSide)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = lis.ControlLoop(lisSide, b) }()
	}
	defer func() {
		for _, c := range peers[1:] {
			c.Close()
		}
	}()
	peers[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		n := len(m.lisConns)
		m.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ISM still holds %d connections after one peer closed, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	const timeout = 5 * time.Second
	start := time.Now()
	if acks := m.GangFlush(timeout); acks != 2 {
		t.Fatalf("acks %d, want 2", acks)
	}
	if took := time.Since(start); took > timeout/5 {
		t.Fatalf("GangFlush took %s of its %s timeout", took, timeout)
	}
}

func TestControlCounted(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	defer m.Close()
	m.Inject(tp.ControlMessage(0, tp.CtlStart, 0))
	m.Inject(tp.ControlMessage(0, tp.CtlStop, 0))
	// Controls are handled synchronously.
	if st := m.Stats(); st.ControlsSeen != 2 {
		t.Fatalf("controls %d", st.ControlsSeen)
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO}, &clock)
	var mu sync.Mutex
	n := 0
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		n += len(rs)
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		m.Inject(dataMsg(0, seqRec(0, trace.KindUser, uint16(i), uint64(i), 0)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 100 {
		t.Fatalf("close dropped records: %d", n)
	}
}

// TestCloseDrainsServedPipes: a stream ends when its sender hangs up.
// Every batch a sender queued on a served pipe before hanging up is
// dispatched, though Close follows Serve at once, and a connection
// served after Close is refused with its queue unread.
func TestCloseDrainsServedPipes(t *testing.T) {
	const batches, per = 512, 4
	m := New(Config{Buffering: SISO, Ordered: true}, nil)
	lisSide, ismSide := tp.Pipe(batches)
	for b := 0; b < batches; b++ {
		rs := flow.GetBatch(per)
		for i := 0; i < per; i++ {
			seq := uint64(b*per + i)
			rs = append(rs, seqRec(0, trace.KindUser, 0, seq, int64(seq)))
		}
		if err := lisSide.Send(tp.PooledDataMessage(0, rs)); err != nil {
			t.Fatal(err)
		}
	}
	lisSide.Close()
	m.Serve(ismSide)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Dispatched != batches*per || st.InputDropped != 0 {
		t.Fatalf("dispatched %d of %d queued records, %d dropped", st.Dispatched, batches*per, st.InputDropped)
	}

	late, lateISM := tp.Pipe(1)
	if err := late.Send(dataMsg(1, seqRec(1, trace.KindUser, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	late.Close()
	m.Serve(lateISM)
	msg, err := lateISM.Recv()
	if err != nil || msg.Type != tp.MsgData {
		t.Fatalf("a Serve after Close read the connection: got %+v, %v", msg, err)
	}
	if st := m.Stats(); st.Arrived != batches*per {
		t.Fatalf("arrived %d records after the late Serve, want %d", st.Arrived, batches*per)
	}
}

// TestWaitHangup: the wait ends when the last served peer hangs up,
// and times out on a peer that stays connected without a word.
func TestWaitHangup(t *testing.T) {
	m := New(Config{Buffering: SISO}, nil)
	defer m.Close()
	quiet, quietISM := tp.Pipe(1)
	m.Serve(quietISM)
	if m.WaitHangup(10 * time.Millisecond) {
		t.Fatal("the wait ended with a peer still connected")
	}
	quiet.Close()
	if !m.WaitHangup(10 * time.Second) {
		t.Fatal("the wait outlasted the last hang-up")
	}
}

func TestMISORoundRobinFairness(t *testing.T) {
	// The unit of transfer is a batch envelope, so MISO fairness is
	// batch-granular: with two batches queued per source, pop must
	// alternate sources instead of draining one source's queue first.
	// The stage is driven directly, so all four batches are queued
	// before the first pop.
	s := newMISOStage(4, flow.DropNewest, nil, nil)
	for _, b := range []struct {
		node int32
		tag  uint16
	}{{0, 1}, {0, 2}, {1, 1}, {1, 2}} {
		s.push(b.node, batchEnv{node: b.node, recs: []trace.Record{seqRec(b.node, trace.KindUser, b.tag, uint64(b.tag), 0)}})
	}
	var order []int32
	for {
		e, ok := s.pop()
		if !ok {
			break
		}
		order = append(order, e.node, int32(e.recs[0].Tag))
	}
	// A1, B1, A2, B2 — not A1, A2, B1, B2.
	want := []int32{0, 1, 1, 1, 0, 2, 1, 2}
	if !slices.Equal(order, want) {
		t.Fatalf("MISO did not interleave batches: got (node, tag) %v, want %v", order, want)
	}
}

// TestOutputBufferSpoolOrder: what leaves the data processor for the
// tools — here the spool — is in program order even when the input
// arrived out of it.
func TestOutputBufferSpoolOrder(t *testing.T) {
	var clock event.VirtualClock
	var buf bytes.Buffer
	m := New(Config{Buffering: SISO, Spool: &buf, Ordered: true}, &clock)
	// Deliver out of order; spool must be causal.
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 11, 1, 0)))
	m.Inject(dataMsg(0, seqRec(0, trace.KindUser, 10, 0, 0)))
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rs, _, err := trace.DecodeSegments(nil, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Tag != 10 || rs[1].Tag != 11 {
		t.Fatalf("spool %v", rs)
	}
}

func TestDrainTerminatesUnderOverflow(t *testing.T) {
	// A tiny input stage guarantees drops under a burst; Drain must
	// account for them and terminate, and the drops must be counted.
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO, InputCapacity: 4}, &clock)
	defer m.Close()
	block := make(chan struct{})
	m.SubscribeBatch("slow", func(rs []trace.Record) {
		if rs[0].Tag == 0 {
			<-block // stall the processor so the burst overflows
		}
	})
	for i := 0; i < 200; i++ {
		m.Inject(dataMsg(0, seqRec(0, trace.KindUser, uint16(i), uint64(i), 0)))
	}
	close(block)
	done := make(chan struct{})
	go func() {
		m.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung under input overflow")
	}
	st := m.Stats()
	if st.InputDropped == 0 {
		t.Fatal("overflow not counted")
	}
	if st.Dispatched+st.InputDropped < 200 {
		t.Fatalf("records unaccounted: dispatched %d + dropped %d", st.Dispatched, st.InputDropped)
	}
}

// env wraps records as a pool-owned batch envelope, the only shape
// that reaches a stage, for white-box stage tests.
func env(tags ...uint16) batchEnv {
	rs := flow.GetBatch(len(tags))
	for _, tag := range tags {
		rs = append(rs, trace.Record{Tag: tag})
	}
	return batchEnv{recs: rs}
}

func TestStageOverflowDrops(t *testing.T) {
	// Queue capacity counts batch envelopes; drop accounting counts the
	// records inside the displaced batches.
	s := newSISOStage(2, flow.DropOldest, nil, nil)
	s.push(0, env(1, 2))
	s.push(0, env(3))
	s.push(0, env(4)) // displaces the 2-record batch {1,2}
	if s.dropped() != 2 {
		t.Fatalf("drops %d", s.dropped())
	}
	e, ok := s.pop()
	if !ok || len(e.recs) != 1 || e.recs[0].Tag != 3 {
		t.Fatalf("head %+v", e)
	}
	m := newMISOStage(1, flow.DropOldest, nil, nil)
	m.push(0, env(1, 2))
	m.push(0, env(3))
	if m.dropped() != 2 {
		t.Fatalf("miso drops %d", m.dropped())
	}
	e, ok = m.pop()
	if !ok || len(e.recs) != 1 || e.recs[0].Tag != 3 {
		t.Fatalf("miso head %+v", e)
	}
	if _, ok := m.pop(); ok {
		t.Fatal("miso should be empty")
	}
	if e, ok := s.pop(); !ok || e.recs[0].Tag != 4 {
		t.Fatalf("siso tail %+v", e)
	}
	if _, ok := m.pop(); ok {
		t.Fatal("miso should stay empty")
	}
	if _, ok := s.pop(); ok {
		t.Fatal("siso should be empty")
	}
}

// flushSpill records whether the manager flushed its spill target on
// Close — the hook that makes demoted records durable at shutdown.
type flushSpill struct {
	mu      sync.Mutex
	recs    []trace.Record
	flushed bool
}

func (f *flushSpill) Append(rs ...trace.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs = append(f.recs, rs...)
	return nil
}

func (f *flushSpill) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushed = true
	return nil
}

func TestCloseFlushesOverflowSpill(t *testing.T) {
	var clock event.VirtualClock
	spill := &flushSpill{}
	m := New(Config{
		Buffering: SISO, InputCapacity: 2,
		Overflow: flow.SpillToStorage, OverflowSpill: spill,
	}, &clock)
	block := make(chan struct{})
	m.SubscribeBatch("slow", func(rs []trace.Record) {
		if rs[0].Tag == 0 {
			<-block // stall the processor so the burst demotes
		}
	})
	for i := 0; i < 100; i++ {
		m.Inject(dataMsg(0, seqRec(0, trace.KindUser, uint16(i), uint64(i), 0)))
	}
	close(block)
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	spill.mu.Lock()
	defer spill.mu.Unlock()
	if !spill.flushed {
		t.Fatal("Close did not flush the overflow spill")
	}
	st := m.Stats()
	if st.InputSpilled == 0 || uint64(len(spill.recs)) != st.InputSpilled {
		t.Fatalf("spill holds %d records, stats say %d", len(spill.recs), st.InputSpilled)
	}
}

// TestDeferCausalRestampsUplinkSequences: a deferred-causal leaf must
// repair program order per source (sequencers still run) but emit raw
// records — no Lamport stamps, receives not matched — restamped with
// fresh contiguous per-source uplink sequences, even when the inbound
// capture sequences arrive shuffled and with duplicates.
func TestDeferCausalRestampsUplinkSequences(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO, Ordered: true, DeferCausal: true, Shards: 2}, &clock)

	var mu sync.Mutex
	var got []trace.Record
	m.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})

	// Node 5: capture sequences 0..3 injected as 1,0 then a duplicate 1,
	// then 3,2. A receive whose send lives on another leaf must pass
	// straight through — matching is the root relay's job.
	m.Inject(dataMsg(5, seqRec(5, trace.KindUser, 1, 1, 0)))
	m.Inject(dataMsg(5, seqRec(5, trace.KindUser, 0, 0, 0)))
	m.Inject(dataMsg(5, seqRec(5, trace.KindUser, 1, 1, 0))) // duplicate
	m.Inject(dataMsg(5, seqRec(5, trace.KindRecv, 9, 3, 77)))
	m.Inject(dataMsg(5, seqRec(5, trace.KindUser, 2, 2, 0)))
	// A second source interleaves; its uplink sequences are independent.
	m.Inject(dataMsg(6, seqRec(6, trace.KindUser, 0, 0, 0)))
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("dispatched %d records, want 5 (dup dropped, recv passed through)", len(got))
	}
	next := map[trace.SourceKey]uint64{}
	var tags5 []uint16
	for _, r := range got {
		key := trace.SourceKey{Node: r.Node, Process: r.Process}
		if r.Logical != next[key] {
			t.Fatalf("record %v: uplink seq %d, want contiguous %d", r, r.Logical, next[key])
		}
		next[key]++
		if r.Node == 5 {
			tags5 = append(tags5, r.Tag)
		}
	}
	// Program order per source: capture order 0,1,2,3 → tags 0,1,2,9.
	for i, tag := range []uint16{0, 1, 2, 9} {
		if tags5[i] != tag {
			t.Fatalf("node 5 dispatch order %v, want tags [0 1 2 9]", tags5)
		}
	}
}

// TestDeferCausalRejectsMISO: a leaf that defers causal stamping must
// dispatch in nondecreasing capture Time, which MISO's round-robin pop
// across sources breaks, so New refuses the combination as it refuses
// an invalid overflow policy. MISO stays legal whenever the ISM stamps
// causally itself.
func TestDeferCausalRejectsMISO(t *testing.T) {
	var clock event.VirtualClock
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New accepted DeferCausal with MISO buffering")
			}
		}()
		New(Config{Buffering: MISO, Ordered: true, DeferCausal: true}, &clock)
	}()
	for _, cfg := range []Config{
		{Buffering: MISO, Ordered: true},
		{Buffering: SISO, Ordered: true, DeferCausal: true},
	} {
		if err := New(cfg, &clock).Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubscribeBatchSeesDispatchBatches: every sink receives each
// dispatched batch whole, as one slice, in dispatch order.
func TestSubscribeBatchSeesDispatchBatches(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Buffering: SISO, Ordered: true}, &clock)

	var mu sync.Mutex
	var got [2][]trace.Record
	var calls [2]int
	for i, name := range []string{"a", "b"} {
		m.SubscribeBatch(name, func(rs []trace.Record) {
			mu.Lock()
			got[i] = append(got[i], rs...) // must copy: slice is pool-owned
			calls[i]++
			mu.Unlock()
		})
	}

	m.Inject(dataMsg(1,
		seqRec(1, trace.KindUser, 0, 0, 0),
		seqRec(1, trace.KindUser, 1, 1, 0),
		seqRec(1, trace.KindUser, 2, 2, 0)))
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for i := range got {
		if calls[i] != 1 {
			t.Fatalf("sink %d called %d times, want 1 (one dispatch batch)", i, calls[i])
		}
		if len(got[i]) != 3 {
			t.Fatalf("sink %d saw %d records, want 3", i, len(got[i]))
		}
		for j, r := range got[i] {
			if r.Tag != uint16(j) {
				t.Fatalf("sink %d record %d has tag %d", i, j, r.Tag)
			}
		}
	}
}

// TestInjectUnpooledKeepsCallerSlice: Inject copies an unpooled batch
// into a pool-owned one, so dispatch — which restamps Logical in place
// under DeferCausal and recycles every batch it retires — never touches
// the caller's slice.
func TestInjectUnpooledKeepsCallerSlice(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ordered", Config{Ordered: true, ResumeSources: true}},
		{"defer-causal", Config{Ordered: true, DeferCausal: true, ResumeSources: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock event.VirtualClock
			m := New(tc.cfg, &clock)
			defer m.Close()
			const n = 64
			caller := make([]trace.Record, n)
			for i := range caller {
				// Capture sequences start past zero (adopted under
				// ResumeSources), so the restamp's fresh 0.. differs.
				caller[i] = seqRec(3, trace.KindUser, uint16(i), uint64(100+i), int64(i))
			}
			want := slices.Clone(caller)
			var mu sync.Mutex
			var got []trace.Record
			m.SubscribeBatch("t", func(rs []trace.Record) {
				mu.Lock()
				got = append(got, rs...)
				mu.Unlock()
			})
			m.Inject(tp.DataMessage(3, caller))
			m.Drain()
			// Draw whatever dispatch recycled back out of the pool and
			// overwrite it: a caller slice that leaked into the pool
			// shows it.
			for range 64 {
				b := flow.GetBatch(n)[:n]
				for i := range b {
					b[i] = trace.Record{Tag: 0xffff, Logical: 0xffff}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != n {
				t.Fatalf("dispatched %d records, want %d", len(got), n)
			}
			if !slices.Equal(caller, want) {
				t.Fatalf("caller's slice changed: first record %+v, want %+v", caller[0], want[0])
			}
		})
	}
}

// failWriter fails every write.
type failWriter struct{}

var errWrite = errors.New("disk gone")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestSpoolWriteErrorIsSticky: the first spool write failure ends the
// spool. It is counted once, later batches skip the spool, and Close
// returns the error.
func TestSpoolWriteErrorIsSticky(t *testing.T) {
	var clock event.VirtualClock
	m := New(Config{Spool: failWriter{}}, &clock)
	// Enough records that the spool's buffered writer must drain many
	// times over.
	const batches, per = 64, 1024
	for b := 0; b < batches; b++ {
		rs := flow.GetBatch(per)
		for i := 0; i < per; i++ {
			rs = append(rs, seqRec(0, trace.KindUser, uint16(i), uint64(b*per+i), int64(i)))
		}
		m.Inject(tp.PooledDataMessage(0, rs))
	}
	m.Drain()
	if got := m.Stats().Dispatched; got != batches*per {
		t.Fatalf("dispatched %d records, want %d", got, batches*per)
	}
	if n := m.Metrics().Snapshot().Value("ism.spool_errors"); n != 1 {
		t.Fatalf("ism.spool_errors = %v, want 1", n)
	}
	if err := m.Close(); !errors.Is(err, errWrite) {
		t.Fatalf("Close = %v, want %v", err, errWrite)
	}
}

// stallWriter blocks every Write until release is closed, and closes
// stalled at the first.
type stallWriter struct {
	once             sync.Once
	stalled, release chan struct{}
}

func newStallWriter() *stallWriter {
	return &stallWriter{stalled: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return len(p), nil
}

// TestStalledSpoolDoesNotBlockControl: a spool write that does not
// return parks the merger goroutine and nothing else. Control messages
// and new connections, which take the manager's lock, still go through.
func TestStalledSpoolDoesNotBlockControl(t *testing.T) {
	w := newStallWriter()
	m := New(Config{Spool: w}, nil)
	const n = 2048 // four sealed segments: more than the spool buffers
	rs := flow.GetBatch(n)
	for i := 0; i < n; i++ {
		rs = append(rs, seqRec(0, trace.KindUser, uint16(i), uint64(i), int64(i)))
	}
	m.Inject(tp.PooledDataMessage(0, rs))
	select {
	case <-w.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the spool was never written")
	}
	local, remote := tp.Pipe(1)
	defer local.Close()
	done := make(chan struct{})
	go func() {
		m.Inject(tp.ControlMessage(0, tp.CtlFlushDone, 0))
		m.Serve(remote)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Error("a control message and a new connection waited on a stalled spool write")
	}
	close(w.release)
	<-done
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
