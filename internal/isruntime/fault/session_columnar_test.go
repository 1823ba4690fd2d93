package fault

// Session × columnar wire: over a stream transport, which frames data
// columnar, the session encodes each batch once at Send and replays the
// stored body verbatim — Resend and reconnect replay must not change
// what the receiver decodes, and the replayed frames must stay
// columnar-sized.

import (
	"testing"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// sessRecs builds a batch with compressible columns and distinct
// payloads so delivery accounting can tell batches apart.
func sessRecs(base, n int) []trace.Record {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.Record{
			Node: 3, Process: 1, Kind: trace.KindUser,
			Time: int64(base + i), Logical: uint64(base + i),
			Payload: int64(base + i),
		}
	}
	return rs
}

func TestSessionColumnarEncodedReplay(t *testing.T) {
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type got struct {
		seq  int64
		recs []trace.Record
	}
	gotCh := make(chan got, 64)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				_ = c.Close()
				return
			}
			if m.Type != tp.MsgData {
				continue
			}
			recs := append([]trace.Record(nil), m.Records...)
			seq := m.Arg
			tp.Recycle(&m)
			gotCh <- got{seq, recs}
			// No acks: every batch stays in the replay window so Resend
			// retransmits all of them.
		}
	}()

	reg := metrics.NewRegistry()
	conn, err := tp.Dial(ln.Addr(), tp.WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(3, conn, SessionConfig{Window: 16})

	const batches, recs = 4, 32
	want := make(map[int64][]trace.Record)
	for b := 0; b < batches; b++ {
		rs := sessRecs(b*1000, recs)
		want[int64(b+1)] = rs
		if err := sess.Send(tp.DataMessage(3, rs)); err != nil {
			t.Fatalf("send %d: %v", b, err)
		}
	}
	if err := sess.Resend(); err != nil {
		t.Fatalf("resend: %v", err)
	}

	// Expect each batch twice — original and replay — byte-identical.
	counts := make(map[int64]int)
	for i := 0; i < 2*batches; i++ {
		select {
		case g := <-gotCh:
			counts[g.seq]++
			wantRecs, ok := want[g.seq]
			if !ok {
				t.Fatalf("unexpected seq %d", g.seq)
			}
			if len(g.recs) != len(wantRecs) {
				t.Fatalf("seq %d: got %d records, want %d", g.seq, len(g.recs), len(wantRecs))
			}
			for j := range g.recs {
				if g.recs[j] != wantRecs[j] {
					t.Fatalf("seq %d record %d: got %+v want %+v", g.seq, j, g.recs[j], wantRecs[j])
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d deliveries (counts %v)", i, counts)
		}
	}
	for seq, c := range counts {
		if c != 2 {
			t.Errorf("seq %d delivered %d times, want 2", seq, c)
		}
	}

	// The whole exchange — 8 data frames of 32 records plus control
	// chatter — must reflect columnar framing: well under the flat
	// cost of the data alone.
	tx := uint64(reg.Snapshot().Value("tp.bytes_tx"))
	flat := uint64(2 * batches * recs * trace.RecordSize)
	if tx >= flat/2 {
		t.Errorf("bytes_tx = %d, want < %d (half the flat record bytes)", tx, flat/2)
	}
	_ = sess.Close()
}

// TestSessionColumnarDemoteAfterEncode: over a stream transport the
// replay window holds a batch only as its encoded frame, so a batch
// demoted to the spill — window overflow here — must come back out of
// that frame record for record.
func TestSessionColumnarDemoteAfterEncode(t *testing.T) {
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // a peer that reads and never acks
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				_ = c.Close()
				return
			}
			tp.Recycle(&m)
		}
	}()
	conn, err := tp.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	spill := &memSpill{}
	sess := NewSession(3, conn, SessionConfig{Window: 2, Spill: spill, Metrics: reg})

	const batches, recs = 5, 32
	var want []trace.Record
	for b := 0; b < batches; b++ {
		rs := sessRecs(b*1000, recs)
		if b < batches-2 { // all but the window's worth are demoted, oldest first
			want = append(want, rs...)
		}
		if err := sess.Send(tp.DataMessage(3, rs)); err != nil {
			t.Fatalf("send %d: %v", b, err)
		}
	}
	if sess.Pending() != 2 || sess.Spilled() != batches-2 || sess.LostBatches() != 0 {
		t.Fatalf("pending=%d spilled=%d lost=%d, want 2/%d/0", sess.Pending(), sess.Spilled(), sess.LostBatches(), batches-2)
	}
	if got := reg.Snapshot().Value("session.node3.batches_spilled"); got != batches-2 {
		t.Fatalf("session.node3.batches_spilled = %v, want %d", got, batches-2)
	}
	if len(spill.rs) != len(want) {
		t.Fatalf("spill holds %d records, want %d", len(spill.rs), len(want))
	}
	for i := range want {
		if spill.rs[i] != want[i] {
			t.Fatalf("spilled record %d: got %+v want %+v", i, spill.rs[i], want[i])
		}
	}
	_ = sess.Close()
}
