package relay

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// genExecution builds a deterministic distributed execution over the
// given node count: user events, matched send/recv pairs across nodes,
// strictly increasing global capture Times (every record has a unique
// Time — the federation's determinism contract) and contiguous
// per-source capture sequences in Logical. Records are returned in
// global Time order.
func genExecution(nodes, events int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	type pend struct {
		from, to int32
		tag      uint16
	}
	var pending []pend
	seqs := make([]uint64, nodes)
	all := make([]trace.Record, 0, events)
	var now int64
	tag := uint16(1)
	for len(all) < events {
		now++
		switch {
		case len(pending) > 0 && rng.Intn(3) == 0:
			p := pending[0]
			pending = pending[1:]
			all = append(all, trace.Record{
				Node: p.to, Kind: trace.KindRecv, Tag: p.tag,
				Time: now, Payload: int64(p.from), Logical: seqs[p.to],
			})
			seqs[p.to]++
		case rng.Intn(3) == 0 && tag < 65000:
			from := int32(rng.Intn(nodes))
			to := int32(rng.Intn(nodes))
			if to == from {
				to = (from + 1) % int32(nodes)
			}
			all = append(all, trace.Record{
				Node: from, Kind: trace.KindSend, Tag: tag,
				Time: now, Payload: int64(to), Logical: seqs[from],
			})
			seqs[from]++
			pending = append(pending, pend{from: from, to: to, tag: tag})
			tag++
		default:
			n := int32(rng.Intn(nodes))
			all = append(all, trace.Record{
				Node: n, Kind: trace.KindUser,
				Time: now, Payload: now, Logical: seqs[n],
			})
			seqs[n]++
		}
	}
	return all
}

// predictRoot is the deterministic in-process federation model: the
// root trace a flat single manager produces from the whole capture in
// global Time order — sequence repair per source, then causal merging
// with Lamport stamps. Any federation topology over the same capture
// must emit exactly this.
func predictRoot(all []trace.Record) []trace.Record {
	sorted := append([]trace.Record(nil), all...)
	trace.SortByTime(sorted)
	seq := trace.NewSequencer()
	cm := trace.NewCausalMerger()
	out := make([]trace.Record, 0, len(all))
	var buf []trace.Record
	for _, r := range sorted {
		s := r.Logical
		r.Logical = 0
		buf = seq.AddTo(buf[:0], r, s)
		for _, rr := range buf {
			out = cm.AddTo(out, rr)
		}
	}
	return out
}

// traceBytes serializes records through the binary trace codec — the
// byte-identity yardstick.
func traceBytes(t *testing.T, rs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readTrace(t *testing.T, data []byte) []trace.Record {
	t.Helper()
	rs, _, err := trace.DecodeSegments(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// fedLeaf is one leaf manager with its uplink: an ordered DeferCausal
// ISM whose dispatch stream feeds an Uplink batch sink. SISO staging
// is load-bearing: the uplink watermark contract needs the leaf to
// dispatch in nondecreasing capture-Time order, and MISO's per-source
// round-robin pop reorders arrival order across sources.
type fedLeaf struct {
	m  *ism.ISM
	up *Uplink
}

// newFedLeaf builds a leaf whose uplink sends as node, in batches of
// batch records, and reports to reg when it is non-nil.
func newFedLeaf(node int32, conn tp.Conn, batch int, reg *metrics.Registry) *fedLeaf {
	var clock event.VirtualClock
	m := ism.New(ism.Config{
		Buffering:   ism.SISO,
		Ordered:     true,
		DeferCausal: true,
		Shards:      2,
		Overflow:    flow.Block,
	}, &clock)
	up := NewUplink(node, conn, UplinkConfig{BatchSize: batch, Window: 512, Metrics: reg})
	m.SubscribeBatch("uplink", up.Push)
	return &fedLeaf{m: m, up: up}
}

// feed injects records one message at a time — per-leaf Time order,
// the leaf half of the determinism contract — beaconing the watermark
// every beaconEvery records.
func (lf *fedLeaf) feed(recs []trace.Record, beaconEvery int) {
	for i, r := range recs {
		lf.m.Inject(tp.DataMessage(r.Node, []trace.Record{r}))
		if beaconEvery > 0 && i%beaconEvery == beaconEvery-1 {
			lf.up.Beacon()
		}
	}
}

// finish drains the leaf and seals its lane with a final mark at (or
// beyond) the global maximum Time so the leaf never stalls the merge
// again.
func (lf *fedLeaf) finish(finalMark int64) {
	lf.m.Drain()
	lf.up.Flush()
	lf.up.Mark(finalMark)
}

func (lf *fedLeaf) close(t *testing.T) {
	t.Helper()
	if err := lf.m.Close(); err != nil {
		t.Fatal(err)
	}
	_ = lf.up.Close()
}

// drainAll drives a set of replay windows empty together, resending
// across all of them each round. With dispatch-gated acks, one
// uplink's dropped final mark stalls the merge for every other lane,
// so resends must be driven collectively — draining one uplink to
// completion before touching the next can deadlock. Empty windows
// everywhere mean everything ever sent is merged into the root trace.
func drainAll(t *testing.T, ups []*Uplink, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		pending := 0
		for _, up := range ups {
			pending += up.Pending()
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d batches never acked", what, pending)
		}
		for _, up := range ups {
			up.Drain(5 * time.Millisecond)
		}
	}
}

// skewPartition maps node -> leaf with a deliberately uneven spread:
// half the nodes on leaf 0, then halving shares — the skewed source
// partitioning of the acceptance property.
func skewPartition(nodes, leaves int) []int {
	part := make([]int, nodes)
	leaf, share, used := 0, (nodes+1)/2, 0
	for n := range part {
		part[n] = leaf
		used++
		if used >= share && leaf < leaves-1 {
			leaf++
			used = 0
			if share > 1 {
				share = (share + 1) / 2
			}
		}
	}
	return part
}

func TestMarkRecordRoundTrip(t *testing.T) {
	m := markRecord(42)
	if !isMarkBatch([]trace.Record{m}) {
		t.Fatal("mark record not recognized")
	}
	if isMarkBatch([]trace.Record{m, m}) {
		t.Fatal("two-record batch misread as mark")
	}
	if isMarkBatch([]trace.Record{{Kind: trace.KindMark, Time: 42}}) {
		t.Fatal("user-process mark record misread as in-band watermark")
	}
}

// TestRelayAdmissionOrderAndGatedAcks drives raw sequenced batches at
// a relay: an above-hole batch must be parked (not merged early), the
// hole-filling batch releases both in order, an in-band mark advances
// the ack frontier without emitting anything, and acks never run ahead
// of dispatch.
func TestRelayAdmissionOrderAndGatedAcks(t *testing.T) {
	rel := New(Config{Root: true})
	var mu sync.Mutex
	var got []trace.Record
	rel.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	a, b := tp.Pipe(64)
	rel.Serve(b)
	go func() { // drain acks so the pipe never backs up
		for {
			if _, err := a.Recv(); err != nil {
				return
			}
		}
	}()

	batch := func(seq int64, rs ...trace.Record) {
		m := tp.DataMessage(7, rs)
		m.Arg = seq
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	rec := func(seq uint64, tm int64) trace.Record {
		return trace.Record{Node: 3, Kind: trace.KindUser, Time: tm, Payload: tm, Logical: seq}
	}
	// Sends are asynchronous and Drain only covers what a lane has
	// admitted, so wait for the batch to land before draining.
	landed := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached the relay", what)
			}
		}
	}
	// Batch 2 first: delivered by the receiver, parked by the lane.
	batch(2, rec(2, 30), rec(3, 40))
	time.Sleep(10 * time.Millisecond)
	if n := len(got); n != 0 {
		t.Fatalf("above-hole batch leaked %d records into the merge", n)
	}
	if f := rel.ackFrontier(7); f != 0 {
		t.Fatalf("acked %d before the hole closed", f)
	}
	batch(1, rec(0, 10), rec(1, 20))
	landed("hole-filling batch", func() bool { return rel.Stats().Dispatched == 4 })
	rel.Drain()
	if f := rel.ackFrontier(7); f != 2 {
		t.Fatalf("ack frontier = %d, want 2 after both batches dispatched", f)
	}
	// An in-band mark occupies seq 3 and is trivially satisfied.
	batch(3, markRecord(99))
	landed("mark", func() bool { return rel.Stats().Marks == 1 })
	rel.Drain()
	if f := rel.ackFrontier(7); f != 3 {
		t.Fatalf("ack frontier = %d, want 3 after mark", f)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("emitted %d records, want 4", len(got))
	}
	for i, r := range got {
		if r.Payload != int64((i+1)*10) {
			t.Fatalf("record %d out of order: payload %d", i, r.Payload)
		}
		if r.Logical != uint64(i+1) {
			t.Fatalf("record %d: Lamport stamp %d, want %d", i, r.Logical, i+1)
		}
	}
	st := rel.Stats()
	if st.Marks != 1 || st.Lanes != 1 || st.OrderBreaks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayPartitionRejects verifies source-partitioned admission: a
// source that already entered through one lane is refused on another,
// on the first offer and on every later one.
func TestRelayPartitionRejects(t *testing.T) {
	rel := New(Config{Root: true})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	send := func(conn tp.Conn, node int32, seq int64, rs ...trace.Record) {
		m := tp.DataMessage(node, rs)
		m.Arg = seq
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	send(a1, 100, 1, trace.Record{Node: 5, Kind: trace.KindUser, Time: 1, Logical: 0})
	// The send is asynchronous: the owning lane's record must be out
	// before the second lane attaches with no watermark and holds it.
	deadline := time.Now().Add(5 * time.Second)
	for rel.Stats().Dispatched == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owning lane's record never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	send(a2, 101, 1, trace.Record{Node: 5, Kind: trace.KindUser, Time: 2, Logical: 1})
	rel.Drain()
	for rel.Stats().PartitionRejects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cross-lane source was never rejected")
		}
		time.Sleep(time.Millisecond)
	}
	st := rel.Stats()
	if st.Dispatched != 1 {
		t.Fatalf("dispatched %d, want only the owning lane's record", st.Dispatched)
	}
	// The rejected record does not gate the ack: lane 101's batch has
	// no surviving needs and acks as soon as the merger next parks.
	for rel.ackFrontier(101) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("rejecting lane ack frontier = %d, want 1", rel.ackFrontier(101))
		}
		time.Sleep(time.Millisecond)
	}
	// Both lanes now hold a cached verdict for the source: the owner's
	// next record still passes, the other lane's next offer is still
	// refused, and counted.
	send(a1, 100, 2, trace.Record{Node: 5, Kind: trace.KindUser, Time: 3, Logical: 1})
	send(a2, 101, 2, trace.Record{Node: 5, Kind: trace.KindUser, Time: 4, Logical: 2})
	send(a1, 100, 3, markRecord(10))
	send(a2, 101, 3, markRecord(10))
	for rel.Stats().PartitionRejects != 2 || rel.Stats().Dispatched != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("after the verdicts were cached: %+v, want 2 rejects and 2 dispatched", rel.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayMaxStallForcesProgress: a lane that goes silent without a
// watermark stalls the merge; MaxStall bounds the damage by forcing
// the minimum head through, counted as an order break.
func TestRelayMaxStallForcesProgress(t *testing.T) {
	rel := New(Config{Root: true, MaxStall: 2 * time.Millisecond})
	var mu sync.Mutex
	var got []trace.Record
	rel.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	// Lane 101 exists (hello) but never sends data or marks.
	if err := a2.Send(tp.ControlMessage(101, tp.CtlHello, 0)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := a2.Recv(); err != nil {
				return
			}
		}
	}()
	laneDeadline := time.Now().Add(5 * time.Second)
	for rel.Stats().Lanes == 0 {
		if time.Now().After(laneDeadline) {
			t.Fatal("silent lane never registered")
		}
		time.Sleep(time.Millisecond)
	}
	m := tp.DataMessage(100, []trace.Record{{Node: 1, Kind: trace.KindUser, Time: 10, Logical: 0}})
	m.Arg = 1
	if err := a1.Send(m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never force-dispatched past the silent lane")
		}
		time.Sleep(time.Millisecond)
	}
	if st := rel.Stats(); st.OrderBreaks == 0 {
		t.Fatalf("stats = %+v, want an order break", st)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayDrainForStalledTail reproduces the deployed two-leaf
// shutdown hazard: leaf clocks are independent, so one lane's final
// mark can trail another lane's tail records. An unbounded Drain can
// never finish there (the watermark rule holds the tail forever);
// DrainFor must report the stall instead of hanging, and Close's final
// drain must still dispatch the held records.
func TestRelayDrainForStalledTail(t *testing.T) {
	rel := New(Config{Root: true, Downstreams: 2})
	var mu sync.Mutex
	var got []trace.Record
	rel.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	a1, b1 := tp.Pipe(16)
	a2, b2 := tp.Pipe(16)
	rel.Serve(b1)
	rel.Serve(b2)
	for _, c := range []tp.Conn{a1, a2} {
		go func(c tp.Conn) { // drain acks so the pipes never back up
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}(c)
	}
	send := func(c tp.Conn, node int32, seq int64, rs ...trace.Record) {
		m := tp.DataMessage(node, rs)
		m.Arg = seq
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	// Lane 100: three tail records stamped past lane 101's final mark,
	// sealed with its own final mark.
	send(a1, 100, 1,
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 100, Logical: 0},
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 101, Logical: 1},
		trace.Record{Node: 1, Kind: trace.KindUser, Time: 102, Logical: 2})
	send(a1, 100, 2, markRecord(103))
	// Lane 101 seals with a final mark BELOW the other lane's tail —
	// its clock simply runs behind, and it has nothing more to send.
	send(a2, 101, 1, markRecord(50))
	deadline := time.Now().Add(5 * time.Second)
	for rel.Stats().Marks != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("marks = %d, want 2", rel.Stats().Marks)
		}
		time.Sleep(time.Millisecond)
	}
	if rel.DrainFor(100 * time.Millisecond) {
		t.Fatal("DrainFor reported quiet while the watermark rule held the tail")
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("final drain dispatched %d records, want 3", len(got))
	}
}

// TestFederationMergeEquivalence is the acceptance property: a 2-level
// tree of 4 leaf managers over a skewed source partition emits a
// byte-identical causally ordered root trace to a single flat manager
// (modeled by predictRoot) over the same capture.
func TestFederationMergeEquivalence(t *testing.T) {
	const (
		nodes  = 8
		events = 4000
		leaves = 4
	)
	all := genExecution(nodes, events, 7)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	rel := New(Config{Root: true, Downstreams: leaves})
	var mu sync.Mutex
	var got []trace.Record
	rel.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})

	cells := make([]*fedLeaf, leaves)
	ups := make([]*Uplink, leaves)
	for i := range cells {
		a, b := tp.Pipe(256)
		rel.Serve(b)
		cells[i] = newFedLeaf(int32(100+i), a, 64, nil)
		ups[i] = cells[i].up
	}
	var wg sync.WaitGroup
	for i := range cells {
		sub := make([]trace.Record, 0, events/2)
		for _, r := range all {
			if part[r.Node] == i {
				sub = append(sub, r)
			}
		}
		wg.Add(1)
		go func(lf *fedLeaf, sub []trace.Record) {
			defer wg.Done()
			lf.feed(sub, 512)
			lf.finish(finalMark)
		}(cells[i], sub)
	}
	wg.Wait()
	drainAll(t, ups, "leaves")

	want := predictRoot(all)
	mu.Lock()
	gotCopy := append([]trace.Record(nil), got...)
	mu.Unlock()
	if len(gotCopy) != len(want) {
		t.Fatalf("root emitted %d records, want %d", len(gotCopy), len(want))
	}
	if !bytes.Equal(traceBytes(t, gotCopy), traceBytes(t, want)) {
		for i := range want {
			if gotCopy[i] != want[i] {
				t.Fatalf("divergence at %d: got %+v want %+v", i, gotCopy[i], want[i])
			}
		}
		t.Fatal("traces differ")
	}
	if err := trace.CheckCausal(gotCopy); err != nil {
		t.Fatal(err)
	}
	st := rel.Stats()
	if st.OrderBreaks != 0 || st.PartitionRejects != 0 || st.Lanes != leaves {
		t.Fatalf("stats = %+v", st)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationAcksPerBatch counts the acks a root relay sends over a
// loopback TCP two-leaf federation: the receiver's session acks and the
// relay's dispatch-gated ones. Only advanceAcks and hellos move the
// gated frontier, and both send it, so a fresh batch that moved nothing
// is not acked again: about one ack per advance, and no more advances
// than uplink batches.
func TestFederationAcksPerBatch(t *testing.T) {
	const (
		nodes  = 4
		events = 6000
		leaves = 2
	)
	all := genExecution(nodes, events, 11)
	finalMark := int64(len(all)) + 2
	rel := New(Config{Root: true, Downstreams: leaves})
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			rel.Serve(c)
		}
	}()
	reg := metrics.NewRegistry()
	cells := make([]*fedLeaf, leaves)
	ups := make([]*Uplink, leaves)
	for i := range cells {
		c, err := tp.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = newFedLeaf(int32(100+i), c, 64, reg)
		ups[i] = cells[i].up
	}
	var wg sync.WaitGroup
	for i, lf := range cells {
		var sub []trace.Record
		for _, r := range all {
			if int(r.Node)%leaves == i {
				sub = append(sub, r)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lf.feed(sub, 256)
			lf.finish(finalMark)
		}()
	}
	wg.Wait()
	// Let every batch be merged and acked before any drain, whose
	// resends are duplicates and always acked.
	for _, up := range ups {
		if !up.WaitAcked(10 * time.Second) {
			t.Fatalf("%d batches never acked", up.Pending())
		}
	}
	var batches uint64
	for i := range cells {
		batches += reg.Counter(fmt.Sprintf("session.node%d.batches_sent", 100+i)).Value()
	}
	rm := rel.Metrics()
	sent, gated := rm.Counter("session.acks_sent").Value(), rm.Counter("ism.relay.acks_gated").Value()
	hellos, dups := rm.Counter("session.hellos").Value(), rm.Counter("session.dup_batches").Value()
	t.Logf("%d uplink batches: %d session acks (%d hellos, %d dups), %d gated acks", batches, sent, hellos, dups, gated)
	if batches == 0 || gated == 0 {
		t.Fatalf("%d batches, %d gated acks: the federation did not run", batches, gated)
	}
	// A session ack of a fresh batch must carry a frontier value no ack
	// has carried, and only gated advances and hellos make new values.
	if sent > gated+hellos+dups {
		t.Fatalf("%d session acks against %d gated advances (%d hellos, %d dups): fresh batches re-acked an unmoved frontier",
			sent, gated, hellos, dups)
	}
	if gated > batches {
		t.Fatalf("%d gated acks for %d uplink batches", gated, batches)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationThreeLevelTree proves the tiers compose: leaves feed
// two inner (non-root) relays whose pass-through output feeds the
// root, and the root trace is still byte-identical to the flat model.
func TestFederationThreeLevelTree(t *testing.T) {
	const (
		nodes  = 8
		events = 2000
		leaves = 4
	)
	all := genExecution(nodes, events, 11)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	root := New(Config{Root: true, Downstreams: 2})
	var mu sync.Mutex
	var got []trace.Record
	root.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})

	inners := make([]*Relay, 2)
	innerUps := make([]*Uplink, 2)
	for i := range inners {
		a, b := tp.Pipe(256)
		root.Serve(b)
		inners[i] = New(Config{Downstreams: 2}) // non-root: pass-through tier
		innerUps[i] = NewUplink(int32(200+i), a, UplinkConfig{BatchSize: 64, Window: 512})
		inners[i].SubscribeBatch("uplink", innerUps[i].Push)
	}
	cells := make([]*fedLeaf, leaves)
	for i := range cells {
		a, b := tp.Pipe(256)
		inners[i/2].Serve(b)
		cells[i] = newFedLeaf(int32(100+i), a, 64, nil)
	}
	var wg sync.WaitGroup
	for i := range cells {
		sub := make([]trace.Record, 0, events/2)
		for _, r := range all {
			if part[r.Node] == i {
				sub = append(sub, r)
			}
		}
		wg.Add(1)
		go func(lf *fedLeaf, sub []trace.Record) {
			defer wg.Done()
			lf.feed(sub, 256)
			lf.finish(finalMark)
		}(cells[i], sub)
	}
	wg.Wait()
	leafUps := make([]*Uplink, leaves)
	for i, lf := range cells {
		leafUps[i] = lf.up
	}
	drainAll(t, leafUps, "leaves")
	// The inner tiers have emitted everything their leaves sent; seal
	// both inner lanes at the root before draining either — the root
	// merge cannot release one inner's tail past the other's silence.
	for i, in := range inners {
		in.Drain()
		innerUps[i].Flush()
		innerUps[i].Mark(finalMark)
	}
	drainAll(t, innerUps, "inners")

	want := predictRoot(all)
	mu.Lock()
	gotCopy := append([]trace.Record(nil), got...)
	mu.Unlock()
	if len(gotCopy) != len(want) {
		t.Fatalf("root emitted %d records, want %d", len(gotCopy), len(want))
	}
	if !bytes.Equal(traceBytes(t, gotCopy), traceBytes(t, want)) {
		t.Fatal("three-level root trace differs from flat model")
	}
	if err := trace.CheckCausal(gotCopy); err != nil {
		t.Fatal(err)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	for i, in := range inners {
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		_ = innerUps[i].Close()
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationCrashResumeExactlyOnce is the chaos property: a
// 2-level tree under fault-injected leaf→relay links (drops and
// disconnects forcing session replay) survives two relay crashes.
// Each crash abandons in-flight records (Kill), and each successor is
// rebuilt from the durable root trace alone; the concatenated output
// across all three incarnations must still be byte-identical to the
// flat model — exactly-once at the root, Lamport continuity included.
func TestFederationCrashResumeExactlyOnce(t *testing.T) {
	const (
		nodes  = 8
		events = 3000
		leaves = 4
		phases = 3
	)
	all := genExecution(nodes, events, 23)
	part := skewPartition(nodes, leaves)
	finalMark := int64(len(all)) + 2

	spools := make([]*bytes.Buffer, 0, phases)
	var curMu sync.Mutex
	var cur *Relay
	var down bool
	current := func() *Relay {
		curMu.Lock()
		defer curMu.Unlock()
		return cur
	}
	setDown := func(v bool) {
		curMu.Lock()
		down = v
		curMu.Unlock()
	}
	isDown := func() bool {
		curMu.Lock()
		defer curMu.Unlock()
		return down
	}
	newIncarnation := func(resume []trace.Record) *Relay {
		spool := &bytes.Buffer{}
		spools = append(spools, spool)
		rel := New(Config{Root: true, Downstreams: leaves, Resume: resume, Spool: spool})
		curMu.Lock()
		cur = rel
		curMu.Unlock()
		return rel
	}
	newIncarnation(nil)

	cells := make([]*fedLeaf, leaves)
	for i := range cells {
		inj, err := fault.NewInjector(9100+uint64(i), fault.Plan{PDrop: 0.05, PDisconnect: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial: func() (tp.Conn, error) {
				if isDown() {
					return nil, tp.ErrConnClosed
				}
				a, b := tp.Pipe(256)
				current().Serve(b)
				return inj.WrapConn(a), nil
			},
			Backoff:    100 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond,
			Jitter:     0.2,
			Seed:       uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = newFedLeaf(int32(100+i), rd, 32, nil)
	}

	subs := make([][]trace.Record, leaves)
	for i := range subs {
		for _, r := range all {
			if part[r.Node] == i {
				subs[i] = append(subs[i], r)
			}
		}
	}
	feedPhase := func(phase int, last bool) {
		var wg sync.WaitGroup
		for i := range cells {
			sub := subs[i]
			lo, hi := len(sub)*phase/phases, len(sub)*(phase+1)/phases
			wg.Add(1)
			go func(lf *fedLeaf, chunk []trace.Record) {
				defer wg.Done()
				lf.feed(chunk, 128)
				if last {
					lf.finish(finalMark)
				} else {
					lf.m.Drain()
					lf.up.Flush()
				}
			}(cells[i], sub[lo:hi])
		}
		wg.Wait()
		if last {
			ups := make([]*Uplink, leaves)
			for i, lf := range cells {
				ups[i] = lf.up
			}
			drainAll(t, ups, "leaves")
			return
		}
		// Best-effort settle: some batches ack, injected drops and the
		// unmarked Time-tail keep others genuinely in flight — the state
		// the crash must not lose.
		for round := 0; round < 3; round++ {
			for _, lf := range cells {
				lf.up.Drain(10 * time.Millisecond)
			}
		}
	}

	var emitted []trace.Record
	for phase := 0; phase < phases; phase++ {
		feedPhase(phase, phase == phases-1)
		if phase == phases-1 {
			break
		}
		// Crash: abandon everything admitted but unemitted, then rebuild
		// the next incarnation from the durable root trace alone.
		setDown(true)
		rel := current()
		if err := rel.Kill(); err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, readTrace(t, spools[len(spools)-1].Bytes())...)
		newIncarnation(append([]trace.Record(nil), emitted...))
		setDown(false)
	}
	final := current()
	final.Drain()
	emitted = append(emitted, readTrace(t, spools[len(spools)-1].Bytes())...)

	want := predictRoot(all)
	if len(emitted) != len(want) {
		t.Fatalf("federation emitted %d records across %d incarnations, want %d",
			len(emitted), phases, len(want))
	}
	if !bytes.Equal(traceBytes(t, emitted), traceBytes(t, want)) {
		for i := range want {
			if emitted[i] != want[i] {
				t.Fatalf("divergence at %d: got %+v want %+v", i, emitted[i], want[i])
			}
		}
		t.Fatal("traces differ")
	}
	if err := trace.CheckCausal(emitted); err != nil {
		t.Fatal(err)
	}
	// Exactly-once, independently of ordering: every unique capture
	// Time appears exactly once.
	seen := make(map[int64]int, len(emitted))
	for _, r := range emitted {
		seen[r.Time]++
	}
	for _, r := range all {
		if seen[r.Time] != 1 {
			t.Fatalf("record at time %d emitted %d times", r.Time, seen[r.Time])
		}
	}
	if st := final.Stats(); st.OrderBreaks != 0 {
		t.Fatalf("final incarnation stats = %+v, want no order breaks", st)
	}
	for _, lf := range cells {
		lf.close(t)
	}
	if err := final.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter is a spool that accepts limit bytes and then fails every
// write — a disk filling up mid-segment.
type failAfter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	limit int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	room := w.limit - w.buf.Len()
	if room >= len(p) {
		return w.buf.Write(p)
	}
	w.buf.Write(p[:room])
	return room, errors.New("disk full")
}

// fillAfter leaves room for n more bytes.
func (w *failAfter) fillAfter(n int) {
	w.mu.Lock()
	w.limit = w.buf.Len() + n
	w.mu.Unlock()
}

func (w *failAfter) contents() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestRelaySpoolFailureFreezesAcks: the dispatch gate's promise is
// "acked means durable", so a failed spool write must stop the ack
// frontier where durability stopped. Every batch with a record missing
// from the (short, torn) spool stays in the uplink's replay window,
// Close surfaces the failure, and a successor resumed from that spool
// still reaches the exactly-once root trace.
func TestRelaySpoolFailureFreezesAcks(t *testing.T) {
	const batch = 16
	all := genExecution(4, 600, 31)
	want := predictRoot(all)
	finalMark := int64(len(all)) + 2

	var mu sync.Mutex
	var cur *Relay
	setCurrent := func(r *Relay) {
		mu.Lock()
		cur = r
		mu.Unlock()
	}
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			mu.Lock()
			r := cur
			mu.Unlock()
			if r == nil {
				return nil, tp.ErrConnClosed
			}
			a, b := tp.Pipe(256)
			r.Serve(b)
			return a, nil
		},
		Backoff:    100 * time.Microsecond,
		MaxBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spool := &failAfter{limit: math.MaxInt}
	first := New(Config{Root: true, Spool: spool})
	setCurrent(first)
	up := NewUplink(100, rd, UplinkConfig{BatchSize: batch, Window: 512})
	push := func(recs []trace.Record) { // one session batch per `batch` records
		for len(recs) > 0 {
			n := min(batch, len(recs))
			up.Push(recs[:n])
			recs = recs[n:]
		}
		up.Flush()
	}

	// Phase 1, well inside the spool's capacity: durable and acked.
	const early = 10 * batch
	push(all[:early])
	up.Beacon()
	if !up.WaitAcked(10 * time.Second) {
		t.Fatalf("healthy spool: %d batches never acked", up.Pending())
	}
	ackedEarly := up.sess.Acked()

	// Phase 2 runs the spool out of room mid-segment: the room left is
	// half of what the rest of the trace takes even as one segment, the
	// most compact way the relay could spool it.
	spool.fillAfter(len(trace.AppendSegment(nil, all[early:])) / 2)
	push(all[early:])
	up.Mark(finalMark)
	deadline := time.Now().Add(10 * time.Second)
	for first.Stats().Dispatched < uint64(len(want)) {
		if time.Now().After(deadline) {
			t.Fatalf("dispatched %d of %d", first.Stats().Dispatched, len(want))
		}
		time.Sleep(time.Millisecond)
	}
	first.Drain()
	if n := first.Metrics().Snapshot().Value("ism.relay.spool_errors"); n != 1 {
		t.Fatalf("spool_errors = %v, want 1", n)
	}
	// The short spool decodes to the whole segments that fit; a torn
	// tail after them is a bad segment.
	data := spool.contents()
	kept, n, rerr := trace.DecodeSegments(nil, data)
	if n < len(data) && !errors.Is(rerr, trace.ErrBadSegment) || n == len(data) && rerr != nil {
		t.Fatalf("short spool: %d of %d bytes decode, err %v", n, len(data), rerr)
	}
	durable := len(kept)
	// Live subscribers aside, nothing past the failure was acknowledged:
	// the ack frontier still covers only batches wholly in the spool, and
	// every later batch is still in the replay window.
	acked := up.sess.Acked()
	if acked < ackedEarly {
		t.Fatalf("ack frontier moved backwards: %d -> %d", ackedEarly, acked)
	}
	dataBatches := (len(all) + batch - 1) / batch
	if lost := dataBatches - durable/batch; up.Pending() < lost {
		t.Fatalf("replay window holds %d batches, but %d have records missing from the spool", up.Pending(), lost)
	}
	// Session sequences count the early beacon too, so acked-1 bounds
	// the acked data batches from above.
	if int(acked-1)*batch > durable {
		t.Fatalf("acked through batch %d, but only %d records are durable", acked, durable)
	}
	setCurrent(nil)
	if err := first.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the first spool failure", err)
	}

	// The successor rebuilds from the short spool and the replay window
	// makes up the rest.
	var rest bytes.Buffer
	second := New(Config{Root: true, Resume: kept, Spool: &rest})
	setCurrent(second)
	drainAll(t, []*Uplink{up}, "successor")
	second.Drain()
	emitted := append(append([]trace.Record(nil), kept...), readTrace(t, rest.Bytes())...)
	if !bytes.Equal(traceBytes(t, emitted), traceBytes(t, want)) {
		t.Fatalf("root trace across the spool failure differs: %d records, want %d", len(emitted), len(want))
	}
	_ = up.Close()
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
}

// stallWriter blocks every Write until release is closed, and closes
// stalled at the first.
type stallWriter struct {
	once             sync.Once
	stalled, release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return len(p), nil
}

// TestStalledSpoolDoesNotBlockServe: the relay seals its spool at every
// ack flush, on the merger goroutine. A seal that does not return parks
// that goroutine and nothing else: a new downstream is still served.
func TestStalledSpoolDoesNotBlockServe(t *testing.T) {
	w := &stallWriter{stalled: make(chan struct{}), release: make(chan struct{})}
	rel := New(Config{Root: true, Spool: w})
	var locals []tp.Conn
	serve := func() {
		local, remote := tp.Pipe(16)
		locals = append(locals, local)
		rel.Serve(remote)
		go func() {
			for {
				if _, err := local.Recv(); err != nil {
					return
				}
			}
		}()
	}
	serve()
	m := tp.DataMessage(100, []trace.Record{user(1, 0, 10)})
	m.Arg = 1
	if err := locals[0].Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the spool was never written")
	}
	done := make(chan struct{})
	go func() {
		serve()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Error("Serve waited on a stalled spool write")
	}
	close(w.release)
	<-done
	for _, c := range locals {
		_ = c.Close()
	}
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
}
