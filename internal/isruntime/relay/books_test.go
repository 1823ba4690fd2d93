package relay

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/raceflag"
	"prism/internal/trace"
)

// The relay's per-source books, case by case.

// twoLanes is a root relay with downstreams 100 and 101 on pipes, their
// gated acks drained.
type twoLanes struct {
	t     *testing.T
	rel   *Relay
	conns [2]tp.Conn
	spool bytes.Buffer
	times []int64 // emitted capture Times, appended on the merger goroutine
}

func newTwoLanes(t *testing.T) *twoLanes {
	f := &twoLanes{t: t}
	f.rel = New(Config{Root: true, Downstreams: 2, Spool: &f.spool})
	f.rel.SubscribeBatch("times", func(rs []trace.Record) {
		for _, r := range rs {
			f.times = append(f.times, r.Time)
		}
	})
	for i := range f.conns {
		local, remote := tp.Pipe(16)
		f.conns[i] = local
		f.rel.Serve(remote)
		go func() {
			for {
				if _, err := local.Recv(); err != nil {
					return
				}
			}
		}()
	}
	return f
}

func (f *twoLanes) send(lane int, seq int64, rs ...trace.Record) {
	f.t.Helper()
	m := tp.DataMessage(int32(100+lane), rs)
	m.Arg = seq
	if err := f.conns[lane].Send(m); err != nil {
		f.t.Fatal(err)
	}
}

func (f *twoLanes) await(what string, cond func(Stats) bool) {
	f.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(f.rel.Stats()); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			f.t.Fatalf("%s: timed out at %+v", what, f.rel.Stats())
		}
	}
}

func user(node int32, seq uint64, tm int64) trace.Record {
	return trace.Record{Node: node, Kind: trace.KindUser, Time: tm, Payload: tm, Logical: seq}
}

// TestRelayKillAbandonsRestOfSlot: the silent lane 101's watermark (15)
// covers only the first of lane 100's four records, so the kill finds
// the slot partly consumed. Kill lifts the frontier rule like any close,
// so the held remainder becomes releasable — and a killed relay must
// drop it, not emit it, and never acknowledge the batch.
func TestRelayKillAbandonsRestOfSlot(t *testing.T) {
	f := newTwoLanes(t)
	f.send(1, 1, markRecord(15))
	f.await("lane 101's mark", func(st Stats) bool { return st.Marks == 1 })
	f.send(0, 1, user(1, 0, 10), user(1, 1, 20), user(1, 2, 30), user(1, 3, 40))
	f.await("the covered record", func(st Stats) bool { return st.Dispatched >= 1 })
	f.rel.merge.WaitQuiet(time.Now().Add(20 * time.Millisecond))
	if st := f.rel.Stats(); st.Dispatched != 1 {
		t.Fatalf("dispatched %d records past a headless lane's watermark, want 1", st.Dispatched)
	}
	if err := f.rel.Kill(); err != nil {
		t.Fatal(err)
	}
	if len(f.times) != 1 || f.times[0] != 10 {
		t.Fatalf("a killed relay emitted %v, want only the record dispatched before the kill", f.times)
	}
	if acked := f.rel.ackFrontier(100); acked != 0 {
		t.Fatalf("abandoned batch acknowledged (frontier %d)", acked)
	}
	spooled, _, err := trace.DecodeSegments(nil, f.spool.Bytes())
	if err != nil || len(spooled) != 1 {
		t.Fatalf("spool holds %d records (err %v), want the 1 emitted", len(spooled), err)
	}
}

// TestRelayKillInsidePass: both lanes hold 512-record heads whose Times
// interleave, so the first flush comes inside a pass over both. A
// subscriber on the merger goroutine kills the relay at that flush:
// nothing after it may be emitted or spooled, and no ack may advance.
func TestRelayKillInsidePass(t *testing.T) {
	f := newTwoLanes(t)
	f.rel.SubscribeBatch("crash", func([]trace.Record) { f.rel.killed.Store(true) })
	var a, b []trace.Record
	for j := range flushBatch {
		a = append(a, user(1, uint64(j), int64(10+2*j)))
		b = append(b, user(2, uint64(j), int64(11+2*j)))
	}
	f.send(0, 1, a...)
	f.send(1, 1, b...)
	f.send(0, 2, markRecord(5000))
	f.send(1, 2, markRecord(5000))
	f.await("both marks", func(st Stats) bool { return st.Marks == 2 })
	if !f.rel.merge.WaitQuiet(time.Now().Add(5 * time.Second)) {
		t.Fatalf("the merge never went quiet: %+v", f.rel.Stats())
	}
	if err := f.rel.Kill(); err != nil {
		t.Fatal(err)
	}
	if len(f.times) != flushBatch {
		t.Fatalf("a relay killed at its first flush emitted %d records, want %d", len(f.times), flushBatch)
	}
	for i, tm := range f.times {
		if tm != int64(10+i) {
			t.Fatalf("first flush emitted Time %d at %d: not one pass over both lanes", tm, i)
		}
	}
	spooled, _, err := trace.DecodeSegments(nil, f.spool.Bytes())
	if err != nil || len(spooled) != flushBatch {
		t.Fatalf("spool holds %d records (err %v), want the %d of the first flush", len(spooled), err, flushBatch)
	}
	for node := int32(100); node <= 101; node++ {
		if acked := f.rel.ackFrontier(node); acked != 0 {
			t.Fatalf("lane %d acknowledged up to %d after the kill", node, acked)
		}
	}
}

// TestRelayBooksLookasideCollision: sources 64 node ids apart share a
// slot of every per-source lookaside (lane books, sequencer, emission
// counts). Evicting each other on every record must cost only the map
// fallback: verdicts, dedup cursors and ack needs stay per source.
func TestRelayBooksLookasideCollision(t *testing.T) {
	f := newTwoLanes(t)
	nodes := []int32{1, 65, 129}
	var batch []trace.Record
	for i := 0; i < 30; i++ {
		batch = append(batch, user(nodes[i%3], uint64(i/3), int64(10+i)))
	}
	f.send(0, 1, batch[:15]...)
	f.send(0, 2, batch[15:]...)
	// A replay of the second batch's records under a fresh session
	// sequence: every source's cursor must absorb its own.
	f.send(0, 3, batch[15:]...)
	f.send(0, 4, markRecord(100))
	f.send(1, 1, markRecord(100))
	f.await("both batches and the replay", func(st Stats) bool {
		return st.Dispatched == 30 && st.DupRecords == 15 && st.Marks == 2
	})
	f.rel.Drain()
	if got := f.rel.ackFrontier(100); got != 4 {
		t.Fatalf("ack frontier %d, want 4: a colliding source's need was lost or never met", got)
	}
	if err := f.rel.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range f.times {
		if tm != int64(10+i) {
			t.Fatalf("emitted %v out of order", f.times)
		}
	}
	if st := f.rel.Stats(); st.PartitionRejects != 0 || st.OrderBreaks != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRelaySteadyStateAllocs: a batch's whole life at the relay — admit,
// process, the merge, the causal merger, flushOut, the ack gate —
// allocates per batch, not per record, once the books exist: the ack
// entry's needs slice, and the ack queue's backing array when a drained
// queue (its head resliced off) grows again. No map insert, nothing
// that scales with the 64 records a batch carries.
func TestRelaySteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rel := New(Config{Root: true, Downstreams: 2})
	var delivered uint64
	rel.SubscribeBatch("count", func(rs []trace.Record) { delivered += uint64(len(rs)) })
	lanes := [2]*lane{rel.laneFor(100), rel.laneFor(101)}
	const batch, sources = 64, 4
	// admit takes ownership of pool-owned batches, as inject hands them
	// over; every draw asks for the same capacity, so the pool's slices
	// fit every draw and the round reuses them rather than allocating.
	var recs [2][]trace.Record
	var seq int64
	var base int64
	var perSource uint64
	round := func() {
		// The lanes' Times alternate record by record; a mark apiece
		// then releases the tail, so every round ends fully acknowledged.
		for l := range recs {
			recs[l] = flow.GetBatch(batch)[:batch]
			for j := range recs[l] {
				recs[l][j] = user(int32(l*sources+j%sources), perSource+uint64(j/sources), base+int64(2*j+l))
			}
		}
		perSource += batch / sources
		base += 2 * batch
		seq++
		for l, ln := range lanes {
			rel.admit(ln, seq, recs[l])
		}
		seq++
		for _, ln := range lanes {
			rel.admit(ln, seq, append(flow.GetBatch(batch), markRecord(base)))
		}
		for rel.ackFrontier(100) != seq || rel.ackFrontier(101) != seq {
			rel.Drain()
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	// A round is two data batches and two marks; a mark carries no source.
	allocs := testing.AllocsPerRun(50, round)
	t.Logf("%.1f allocs per round", allocs)
	if allocs > 8 {
		t.Fatalf("steady-state round of 4 batches allocates %.1f times, want at most two per batch", allocs)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(seq/2) * 2 * batch; delivered != want {
		t.Fatalf("delivered %d of %d records", delivered, want)
	}
}

// TestInjectUnpooledKeepsCallerSlice: inject copies an unpooled batch
// into a pool-owned one, so the relay never touches the sender's slice
// — not when admission closes the gap a partition-rejected record
// leaves (an in-place rewrite), nor when the merger recycles the
// consumed lane slot.
func TestInjectUnpooledKeepsCallerSlice(t *testing.T) {
	rel := New(Config{Root: true, Downstreams: 2})
	var mu sync.Mutex
	var got []trace.Record
	rel.SubscribeBatch("t", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	send := func(node int32, seq int64, rs ...trace.Record) {
		m := tp.DataMessage(node, rs)
		m.Arg = seq // the relay admits only session-sequenced batches
		rel.inject(nil, m)
	}
	// Lane 100 claims source 7 and promises nothing below Time 100.
	send(100, 1, user(7, 0, 1))
	send(100, 2, markRecord(100))
	// Lane 101's batch opens with a source-7 record, which it does not
	// own: the rejected record's slot is closed over in place.
	const n = 64
	caller := make([]trace.Record, n)
	caller[0] = user(7, 1, 2)
	for i := 1; i < n; i++ {
		caller[i] = user(8, uint64(i-1), int64(i+2))
	}
	want := slices.Clone(caller)
	send(101, 1, caller...)
	send(101, 2, markRecord(100))
	rel.Drain()
	// Draw whatever the merger recycled back out of the pool and
	// overwrite it: a sender slice that leaked into the pool shows it.
	for range 64 {
		b := flow.GetBatch(n)[:n]
		for i := range b {
			b[i] = trace.Record{Tag: 0xffff, Logical: 0xffff}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("emitted %d records, want %d", len(got), n)
	}
	if !slices.Equal(caller, want) {
		t.Fatalf("sender's slice changed: first record %+v, want %+v", caller[0], want[0])
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}
