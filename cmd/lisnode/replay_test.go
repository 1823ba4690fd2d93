package main

// Replay round-trip property: capture an ordered spool from a live
// pipeline run, replay it through the real -replay wire path
// (buffered LIS → tp pipe → ISM), and the fresh ISM's
// merged ordered trace must be byte-identical to the original — at
// original timing and at -speed 0 firehose alike. This is what makes
// captured traffic a *deterministic* benchmark input rather than
// merely a similar one.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// genCausalRuns simulates a valid distributed execution over nodes×
// procs sources: each step one source emits its next event (per-source
// sequences contiguous from zero), sends record a pending message, and
// recvs only consume messages already sent — so every dependency
// points backward in the global order and an ordered ISM can always
// make progress. Returns the stream grouped into maximal same-node
// runs, the shape LIS flushes arrive in.
func genCausalRuns(seed int64, nodes, procs, events int) [][]trace.Record {
	rng := rand.New(rand.NewSource(seed))
	type source struct {
		node, proc int32
		seq        uint64
	}
	var srcs []*source
	for n := 0; n < nodes; n++ {
		for p := 0; p < procs; p++ {
			srcs = append(srcs, &source{node: int32(n), proc: int32(p)})
		}
	}
	// The merger matches a recv to its send by (from-node, to-node,
	// tag) with Payload carrying the peer node, so sends record that
	// key and recvs echo it back.
	type pending struct {
		tag      uint16
		from     int32
		destNode int32
	}
	var inflight []pending
	var stream []trace.Record
	var tag uint16
	now := int64(0)
	for len(stream) < events {
		s := srcs[rng.Intn(len(srcs))]
		now += int64(rng.Intn(2000)) // 0–2µs capture gaps
		r := trace.Record{
			Node:    s.node,
			Process: s.proc,
			Time:    now,
			Logical: s.seq,
		}
		s.seq++
		// Pick the event kind: receive one of our pending messages if
		// any, else sometimes send, else local work.
		var mine []int
		for i, p := range inflight {
			if p.destNode == s.node {
				mine = append(mine, i)
			}
		}
		switch {
		case len(mine) > 0 && rng.Intn(2) == 0:
			i := mine[rng.Intn(len(mine))]
			r.Kind, r.Tag = trace.KindRecv, inflight[i].tag
			r.Payload = int64(inflight[i].from)
			inflight = append(inflight[:i], inflight[i+1:]...)
		case rng.Intn(3) == 0:
			tag++
			dest := srcs[rng.Intn(len(srcs))].node
			r.Kind, r.Tag = trace.KindSend, tag
			r.Payload = int64(dest)
			inflight = append(inflight, pending{tag: tag, from: s.node, destNode: dest})
		default:
			r.Kind, r.Tag = trace.KindUser, tag
			r.Payload = int64(len(stream))
		}
		stream = append(stream, r)
	}
	var runs [][]trace.Record
	for i := 0; i < len(stream); {
		j := i + 1
		for j < len(stream) && stream[j].Node == stream[i].Node && j-i < 64 {
			j++
		}
		runs = append(runs, stream[i:j])
		i = j
	}
	return runs
}

// orderedISM builds the ordered manager both legs of the round-trip
// use, spooling its merged trace into buf. SISO input keeps each
// lane's ring in global tick order, so the dispatched interleaving is
// a pure function of inject order — MISO's fair per-source scan would
// make the interleave schedule-dependent and the byte-identity
// property meaningless. Two shards keep the sequencers and the
// frontier merge in the loop.
func orderedISM(buf *bytes.Buffer) *ism.ISM {
	var clock event.VirtualClock
	return ism.New(ism.Config{
		Buffering: ism.SISO,
		Ordered:   true,
		Overflow:  flow.Block,
		Shards:    2,
		Spool:     buf,
	}, &clock)
}

// captureSpool runs the live leg: runs injected in stream order, the
// ordered merge spooled out.
func captureSpool(t *testing.T, runs [][]trace.Record) []byte {
	t.Helper()
	var spool bytes.Buffer
	m := orderedISM(&spool)
	for _, run := range runs {
		batch := flow.GetBatch(len(run))
		batch = append(batch, run...)
		m.Inject(tp.PooledDataMessage(run[0].Node, batch))
	}
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return spool.Bytes()
}

func testReplayRoundTrip(t *testing.T, speed float64) {
	runs := genCausalRuns(42, 3, 2, 4000)
	original := captureSpool(t, runs)
	captured, _, err := trace.DecodeSegments(nil, original)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckCausal(captured); err != nil {
		t.Fatalf("captured spool not causally ordered: %v", err)
	}

	// Replay leg: the captured trace back through the real wire path
	// into a fresh manager.
	var replayed bytes.Buffer
	m := orderedISM(&replayed)
	lisSide, ismSide := tp.Pipe(64)
	m.Serve(ismSide)
	srv, err := lis.NewBuffered(0, 64, lisSide)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runReplay(srv, 64, captured, speed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != uint64(len(captured)) {
		t.Fatalf("replayed %d of %d records", st.Records, len(captured))
	}
	// runReplay returns once the last batch is on the pipe; wait for
	// the Serve goroutine to inject everything before draining, or
	// Close would race messages still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Arrived < uint64(len(captured)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records arrived at the ISM", m.Stats().Arrived, len(captured))
		}
		time.Sleep(time.Millisecond)
	}
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	lisSide.Close()

	if !bytes.Equal(original, replayed.Bytes()) {
		a, _, _ := trace.DecodeSegments(nil, original)
		b, _, _ := trace.DecodeSegments(nil, replayed.Bytes())
		if len(a) != len(b) {
			t.Fatalf("replayed trace has %d records, original %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("first divergence at record %d:\n  original %+v\n  replayed %+v", i, a[i], b[i])
			}
		}
		t.Fatal("spool bytes differ but records compare equal")
	}
}

// TestReplayRoundTripFirehose replays at -speed 0: maximum rate, no
// pacing.
func TestReplayRoundTripFirehose(t *testing.T) { testReplayRoundTrip(t, 0) }

// TestReplayRoundTripPaced replays with original timing scaled up; the
// synthetic capture spans ~4ms of virtual time, so even scaled to half
// speed this stays fast.
func TestReplayRoundTripPaced(t *testing.T) { testReplayRoundTrip(t, 0.5) }

// TestReplayIsOneWireNode checks that a replay of several nodes'
// records travels as the one wire node its session speaks for: each
// node's run is one data message under the LIS's node, and every
// record keeps the node it was captured on.
func TestReplayIsOneWireNode(t *testing.T) {
	lisSide, ismSide := tp.Pipe(64)
	defer lisSide.Close()
	srv, err := lis.NewBuffered(7, 8, lisSide)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for node := int32(0); node < 3; node++ {
		recs = append(recs, trace.Record{Node: node, Kind: trace.KindUser})
	}
	if _, err := runReplay(srv, 8, recs, 0, nil); err != nil {
		t.Fatal(err)
	}
	for node := int32(0); node < 3; node++ {
		msg, err := ismSide.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type != tp.MsgData || msg.Node != 7 || len(msg.Records) != 1 || msg.Records[0].Node != node {
			t.Fatalf("message %d = %+v, want node %d's record under wire node 7", node, msg, node)
		}
		tp.Recycle(&msg)
	}
	if st := srv.Stats(); st.Captured != 3 || st.Forwarded != 3 {
		t.Fatalf("Stats = %+v, want 3 captured and forwarded", st)
	}
}

// TestReplayPreservesWallPacing sanity-checks that -speed actually
// paces against the wall clock on the real path: a capture spanning
// 60ms of record time replayed at speed 4 takes at least ~15ms.
func TestReplayPreservesWallPacing(t *testing.T) {
	recs := []trace.Record{
		{Node: 0, Kind: trace.KindUser, Time: 0},
		{Node: 0, Kind: trace.KindUser, Time: int64(60 * time.Millisecond)},
	}
	lisSide, ismSide := tp.Pipe(16)
	defer lisSide.Close()
	go func() {
		for {
			msg, err := ismSide.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&msg)
		}
	}()
	srv, err := lis.NewBuffered(0, 16, lisSide)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := runReplay(srv, 16, recs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("60ms capture at speed 4 replayed in %s; pacing not applied", elapsed)
	}
	if st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (pacing gap splits the node run)", st.Batches)
	}
}
