package fault

import (
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// scriptConn records sends and fails on demand.
type scriptConn struct {
	sent []tp.Message
	fail error // returned (once) by the next Send
}

func (c *scriptConn) Send(m tp.Message) error {
	if c.fail != nil {
		err := c.fail
		c.fail = nil
		return err
	}
	c.sent = append(c.sent, m)
	return nil
}

func (c *scriptConn) Recv() (tp.Message, error) { return tp.Message{}, io.EOF }
func (c *scriptConn) Close() error              { return nil }

// memSpill collects demoted records.
type memSpill struct{ rs []trace.Record }

func (s *memSpill) Append(rs ...trace.Record) error {
	s.rs = append(s.rs, rs...)
	return nil
}

func testPlan() Plan {
	return Plan{
		PDrop: 0.05, PCorrupt: 0.02, PTruncate: 0.02, PDisconnect: 0.05,
		PDelay: 0.05, Delay: time.Microsecond,
		PStall: 0.05, Stall: time.Microsecond,
	}
}

func TestInjectorDeterministicTrace(t *testing.T) {
	run := func(seed uint64) []Event {
		in, err := NewInjector(seed, testPlan(), WithSleep(func(time.Duration) {}))
		if err != nil {
			t.Fatal(err)
		}
		c := in.WrapConn(nopConn{})
		for i := 0; i < 2000; i++ {
			_ = c.Send(tp.DataMessage(0, nil))
			_, _ = c.Recv()
		}
		return in.Trace()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("no faults injected over 4000 ops")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different traces: %d vs %d events", len(a), len(b))
	}
	if c := run(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// nopConn succeeds at everything, so the injector's own behavior is
// isolated.
type nopConn struct{}

func (nopConn) Send(m tp.Message) error   { tp.Recycle(&m); return nil }
func (nopConn) Recv() (tp.Message, error) { return tp.Message{}, nil }
func (nopConn) Close() error              { return nil }

func TestInjectorRejectsOverfullPlan(t *testing.T) {
	if _, err := NewInjector(1, Plan{PDrop: 0.7, PDisconnect: 0.4}); err == nil {
		t.Fatal("want error for probability mass > 1")
	}
}

func TestInjectorFaultErrorsAreTyped(t *testing.T) {
	// PDisconnect=1: every send fails with a retryable closed error.
	in, err := NewInjector(7, Plan{PDisconnect: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := in.WrapConn(nopConn{})
	if err := c.Send(tp.DataMessage(0, nil)); !errors.Is(err, tp.ErrConnClosed) {
		t.Fatalf("disconnect fault = %v, want ErrConnClosed", err)
	}
	in2, _ := NewInjector(7, Plan{PCorrupt: 1})
	c2 := in2.WrapConn(nopConn{})
	err2 := c2.Send(tp.DataMessage(0, nil))
	if !errors.Is(err2, tp.ErrCorruptFrame) {
		t.Fatalf("corrupt fault = %v, want ErrCorruptFrame", err2)
	}
	if !tp.Retryable(err2) {
		t.Fatal("injected faults must be retryable")
	}
}

func TestInjectorMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	in, err := NewInjector(3, Plan{PDrop: 1}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	c := in.WrapConn(nopConn{})
	for i := 0; i < 5; i++ {
		_ = c.Send(tp.DataMessage(0, nil))
	}
	if m, ok := reg.Snapshot().Get("fault.injected.drop"); !ok || m.Value != 5 {
		t.Fatalf("fault.injected.drop = %+v, want 5", m)
	}
}

func TestSessionSequencesAndTrims(t *testing.T) {
	sc := &scriptConn{}
	s := NewSession(3, sc, SessionConfig{})
	rs := []trace.Record{{Node: 3, Kind: trace.KindUser, Payload: 1}}
	if err := s.Send(tp.DataMessage(3, rs)); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(tp.DataMessage(3, rs)); err != nil {
		t.Fatal(err)
	}
	if len(sc.sent) != 2 || sc.sent[0].Arg != 1 || sc.sent[1].Arg != 2 {
		t.Fatalf("sequencing wrong: %+v", sc.sent)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	// Cumulative ack trims everything at or below.
	if !s.Deliver(tp.ControlMessage(3, tp.CtlAck, 2)) {
		t.Fatal("ack not consumed")
	}
	if s.Pending() != 0 || s.Acked() != 2 {
		t.Fatalf("after ack: pending=%d acked=%d", s.Pending(), s.Acked())
	}
	// Non-session traffic passes through Deliver.
	if s.Deliver(tp.ControlMessage(3, tp.CtlFlush, 0)) {
		t.Fatal("flush control must not be consumed")
	}
}

func TestSessionAbsorbsRetryableFailureAndReplays(t *testing.T) {
	sc := &scriptConn{}
	s := NewSession(1, sc, SessionConfig{})
	if err := s.Send(tp.DataMessage(1, []trace.Record{{Payload: 10}})); err != nil {
		t.Fatal(err)
	}
	s.Deliver(tp.ControlMessage(1, tp.CtlAck, 1))

	sc.fail = tp.ErrConnClosed
	if err := s.Send(tp.DataMessage(1, []trace.Record{{Payload: 20}})); err != nil {
		t.Fatalf("retryable failure must be absorbed, got %v", err)
	}
	if s.Pending() != 1 {
		t.Fatalf("failed batch not retained: pending=%d", s.Pending())
	}

	// Reconnect: hello with the seen ack, then the unacked suffix.
	fresh := &scriptConn{}
	if err := s.onConnect(fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh.sent) != 2 {
		t.Fatalf("replay sent %d messages, want hello+1", len(fresh.sent))
	}
	h := fresh.sent[0]
	if h.Control != tp.CtlHello || h.Arg != 1 || h.Node != 1 {
		t.Fatalf("bad hello: %+v", h)
	}
	d := fresh.sent[1]
	if d.Type != tp.MsgData || d.Arg != 2 || d.Records[0].Payload != 20 {
		t.Fatalf("bad replay: %+v", d)
	}
}

func TestSessionWindowOverflowSpills(t *testing.T) {
	sp := &memSpill{}
	sc := &scriptConn{}
	s := NewSession(0, sc, SessionConfig{Window: 2, Spill: sp})
	for i := 0; i < 5; i++ {
		rs := []trace.Record{{Payload: int64(i)}}
		if err := s.Send(tp.DataMessage(0, rs)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want window cap 2", s.Pending())
	}
	if s.Spilled() != 3 || len(sp.rs) != 3 {
		t.Fatalf("spilled = %d batches / %d records, want 3/3", s.Spilled(), len(sp.rs))
	}
	// Oldest demoted first.
	if sp.rs[0].Payload != 0 || sp.rs[2].Payload != 2 {
		t.Fatalf("wrong demotion order: %+v", sp.rs)
	}
}

func TestSessionTerminalFailureDemotesWindow(t *testing.T) {
	sp := &memSpill{}
	sc := &scriptConn{fail: tp.ErrGiveUp}
	s := NewSession(0, sc, SessionConfig{Spill: sp})
	err := s.Send(tp.DataMessage(0, []trace.Record{{Payload: 9}}))
	if !errors.Is(err, tp.ErrGiveUp) {
		t.Fatalf("terminal error not surfaced: %v", err)
	}
	if s.Pending() != 0 || len(sp.rs) != 1 {
		t.Fatalf("window not demoted: pending=%d spill=%d", s.Pending(), len(sp.rs))
	}
}

// TestSessionAckBeyondSent: acks come off the network, and one naming a
// batch that was never sent must not wedge the session. Unclamped, such
// an ack walks the trim loop toward its value under the session lock
// (without end at MaxInt64, where the watermark wraps), or leaves the
// watermark past the next sequence so window overflow never finds a
// batch to demote. Each case runs under a deadline.
func TestSessionAckBeyondSent(t *testing.T) {
	within := func(t *testing.T, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("session wedged")
		}
	}
	batch := func() tp.Message {
		return tp.DataMessage(0, []trace.Record{{Kind: trace.KindUser, Payload: 1}})
	}
	for _, c := range []struct {
		name string
		ack  int64
	}{{"ack=2^40", 1 << 40}, {"ack=MaxInt64", math.MaxInt64}} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSession(0, &scriptConn{}, SessionConfig{})
			if err := s.Send(batch()); err != nil {
				t.Fatal(err)
			}
			within(t, func() { s.Deliver(tp.ControlMessage(0, tp.CtlAck, c.ack)) })
			if s.Acked() != 1 || s.Pending() != 0 {
				t.Fatalf("acked=%d pending=%d, want 1/0", s.Acked(), s.Pending())
			}
		})
	}
	t.Run("ack=100-then-overflow", func(t *testing.T) {
		sp := &memSpill{}
		s := NewSession(0, &scriptConn{}, SessionConfig{Window: 4, Spill: sp})
		if err := s.Send(batch()); err != nil {
			t.Fatal(err)
		}
		s.Deliver(tp.ControlMessage(0, tp.CtlAck, 100))
		within(t, func() {
			for i := 0; i < 10; i++ {
				_ = s.Send(batch())
			}
		})
		if s.Pending() != 4 || s.Spilled() != 6 {
			t.Fatalf("pending=%d spilled=%d, want 4/6", s.Pending(), s.Spilled())
		}
		s.Deliver(tp.ControlMessage(0, tp.CtlAck, 11))
		if s.Acked() != 11 || s.Pending() != 0 {
			t.Fatalf("after ack 11: acked=%d pending=%d, want 11/0", s.Acked(), s.Pending())
		}
	})
}

func TestReceiverDedupAckGap(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewReceiver(ReceiverConfig{Metrics: reg})
	ack := &scriptConn{}

	mk := func(seq int64) tp.Message {
		m := tp.DataMessage(2, []trace.Record{{Payload: seq}})
		m.Arg = seq
		return m
	}
	if r.Filter(ack, mk(1)) {
		t.Fatal("fresh batch must not be consumed")
	}
	if len(ack.sent) != 1 || ack.sent[0].Control != tp.CtlAck || ack.sent[0].Arg != 1 {
		t.Fatalf("bad ack: %+v", ack.sent)
	}
	// Replayed duplicate: consumed, re-acked.
	if !r.Filter(ack, mk(1)) {
		t.Fatal("duplicate must be consumed")
	}
	if r.Dups(2) != 1 {
		t.Fatalf("dups = %d", r.Dups(2))
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 1 {
		t.Fatalf("dup not re-acked: %+v", got)
	}
	// Sequence jump: batch accepted but NOT acked — the ack frontier
	// is contiguous, so the holes stay in the sender's replay window.
	if r.Filter(ack, mk(4)) {
		t.Fatal("post-gap batch must not be consumed")
	}
	if r.Gaps(2) != 2 || r.High(2) != 1 {
		t.Fatalf("gaps=%d high=%d, want 2/1", r.Gaps(2), r.High(2))
	}
	if got := ack.sent[len(ack.sent)-1]; got.Arg != 1 {
		t.Fatalf("ack advanced across a hole: %+v", got)
	}
	// A replay of the already-delivered out-of-order batch is a dup.
	if !r.Filter(ack, mk(4)) {
		t.Fatal("pending duplicate must be consumed")
	}
	// Resends close the holes: frontier jumps over the pending batch.
	if r.Filter(ack, mk(2)) || r.Filter(ack, mk(3)) {
		t.Fatal("hole-filling batches must not be consumed")
	}
	if r.Gaps(2) != 0 || r.High(2) != 4 {
		t.Fatalf("gaps=%d high=%d after healing, want 0/4", r.Gaps(2), r.High(2))
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 4 {
		t.Fatalf("healed frontier not acked: %+v", got)
	}
	snap := reg.Snapshot()
	if m, ok := snap.Get("session.dup_batches"); !ok || m.Value != 2 {
		t.Fatalf("session.dup_batches = %+v, want 2", m)
	}
	// The gap metric is monotone: holes ever opened, not holes open.
	if m, ok := snap.Get("session.gap_batches"); !ok || m.Value != 2 {
		t.Fatalf("session.gap_batches = %+v, want 2", m)
	}
}

func TestReceiverHelloAndDegraded(t *testing.T) {
	clk := &event.VirtualClock{}
	r := NewReceiver(ReceiverConfig{Clock: clk})
	ack := &scriptConn{}

	m := tp.DataMessage(1, nil)
	m.Arg = 1
	r.Filter(ack, m)
	// Hello replies with the accepted high so the sender trims.
	if !r.Filter(ack, tp.ControlMessage(1, tp.CtlHello, 0)) {
		t.Fatal("hello must be consumed")
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 1 {
		t.Fatalf("hello not answered with ack(high): %+v", got)
	}

	clk.Set(int64(10 * time.Second))
	if !r.Filter(ack, tp.ControlMessage(2, tp.CtlHeartbeat, 0)) {
		t.Fatal("heartbeat must be consumed")
	}
	deg := r.Degraded(5 * time.Second)
	if len(deg) != 1 || deg[0] != 1 {
		t.Fatalf("degraded = %v, want [1]", deg)
	}
}

func TestReceiverAdoptsHelloFrontier(t *testing.T) {
	// A restarted manager has a fresh session table while the sender
	// has already trimmed its acked prefix: the hello's frontier must
	// be adopted or the replayed suffix could never be acked.
	r := NewReceiver(ReceiverConfig{})
	ack := &scriptConn{}

	if !r.Filter(ack, tp.ControlMessage(9, tp.CtlHello, 50)) {
		t.Fatal("hello must be consumed")
	}
	if r.High(9) != 50 {
		t.Fatalf("frontier not adopted: high=%d, want 50", r.High(9))
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 50 {
		t.Fatalf("adopted frontier not acked: %+v", got)
	}
	// The replayed suffix advances normally from the adopted point.
	m := tp.DataMessage(9, []trace.Record{{Payload: 51}})
	m.Arg = 51
	if r.Filter(ack, m) {
		t.Fatal("first post-adoption batch must not be consumed")
	}
	if r.High(9) != 51 || r.Gaps(9) != 0 {
		t.Fatalf("high=%d gaps=%d after replay, want 51/0", r.High(9), r.Gaps(9))
	}
	// A later hello BELOW the frontier (lost-ack reconnect, not a
	// restart) must not regress it.
	if !r.Filter(ack, tp.ControlMessage(9, tp.CtlHello, 10)) {
		t.Fatal("hello must be consumed")
	}
	if r.High(9) != 51 {
		t.Fatalf("frontier regressed to %d", r.High(9))
	}
	if got := ack.sent[len(ack.sent)-1]; got.Arg != 51 {
		t.Fatalf("stale hello not re-acked with current frontier: %+v", got)
	}
}

// soakPlan is the zero-loss chaos schedule: connection faults and
// latency only — every lost frame breaks the connection, so the
// session replay path heals all of them.
func soakPlan() Plan {
	return Plan{
		PDisconnect: 0.03, PCorrupt: 0.01, PTruncate: 0.01,
		PDelay: 0.03, Delay: time.Microsecond,
		PStall: 0.02, Stall: time.Microsecond,
	}
}

func TestSimulateExactlyOnceUnderFaults(t *testing.T) {
	res, err := Simulate(SimConfig{
		Seed: 1234, Nodes: 4, Batches: 300, BatchRecords: 8,
		Plan: soakPlan(), Replay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 || res.Redials == 0 {
		t.Fatalf("chaos run too quiet: faults=%d redials=%d", res.Faults, res.Redials)
	}
	if res.Delivered != res.Captured || res.Lost != 0 {
		t.Fatalf("record loss: captured=%d delivered=%d lost=%d",
			res.Captured, res.Delivered, res.Lost)
	}
	if res.DupRecords != 0 {
		t.Fatalf("exactly-once violated: %d duplicate records reached the ISM", res.DupRecords)
	}
	if res.DupBatches == 0 {
		t.Fatal("expected wire duplicates from replay (dedupe path unexercised)")
	}
}

func TestSimulateCountedLossWithoutReplay(t *testing.T) {
	res, err := Simulate(SimConfig{
		Seed: 99, Nodes: 4, Batches: 300, BatchRecords: 8,
		Plan: Plan{PDrop: 0.05, PDisconnect: 0.03}, Replay: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatal("drop plan without replay must lose records")
	}
	// Every lost batch traces to an injected send fault: loss is
	// bounded and accounted, never silent.
	if max := int(res.Faults) * 8; res.Lost > max {
		t.Fatalf("lost %d records > %d explicable by %d faults", res.Lost, max, res.Faults)
	}
	if res.Delivered+res.Lost != res.Captured {
		t.Fatalf("accounting leak: %d+%d != %d", res.Delivered, res.Lost, res.Captured)
	}
}

func TestSimulateDeterministicReplay(t *testing.T) {
	cfg := SimConfig{
		Seed: 777, Nodes: 3, Batches: 200, BatchRecords: 4,
		Plan: soakPlan(), Replay: true,
	}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
	if len(a.Trace) == 0 {
		t.Fatal("empty injection trace")
	}
	cfg.Seed = 778
	c, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical injection traces")
	}
}

// TestReceiverAckFrontierOverride: with an AckFrontier hook installed,
// every ack on the wire (fresh data, duplicate re-ack, hello reply)
// carries the hook's value while receipt bookkeeping — dedup,
// frontier, hole tracking — still runs on the receipt sequence. A
// fresh batch is acked only when the hook's value is past the last ack
// sent to the node, by Filter or by SendAck. The OnHello hook must fire
// before the hello's ack so an adoption-seeded frontier is already
// visible to the first override call.
func TestReceiverAckFrontierOverride(t *testing.T) {
	gated := map[int32]int64{3: 0}
	var hellos []int64
	r := NewReceiver(ReceiverConfig{
		AckFrontier: func(node int32) int64 { return gated[node] },
		OnHello: func(node int32, acked int64) {
			hellos = append(hellos, acked)
			if acked > gated[node] {
				gated[node] = acked
			}
		},
	})
	ack := &scriptConn{}

	mk := func(seq int64) tp.Message {
		m := tp.DataMessage(3, []trace.Record{{Payload: seq}})
		m.Arg = seq
		return m
	}
	// Fresh batches: receipt frontier advances to 2, but the gated
	// frontier is still 0 and that is what the wire must carry.
	r.Filter(ack, mk(1))
	r.Filter(ack, mk(2))
	if r.High(3) != 2 {
		t.Fatalf("receipt frontier = %d, want 2", r.High(3))
	}
	for _, m := range ack.sent {
		if m.Control == tp.CtlAck && m.Arg != 0 {
			t.Fatalf("ack carried %d, want gated 0", m.Arg)
		}
	}
	// Dispatch catches up: the next ack (a duplicate re-ack) carries it.
	gated[3] = 2
	if !r.Filter(ack, mk(1)) {
		t.Fatal("duplicate must be consumed")
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 2 {
		t.Fatalf("dup re-ack = %+v, want gated 2", got)
	}
	// Hello after a receiver restart: OnHello sees the sender's acked
	// frontier before the reply ack is computed.
	if !r.Filter(ack, tp.ControlMessage(3, tp.CtlHello, 7)) {
		t.Fatal("hello must be consumed")
	}
	if len(hellos) != 1 || hellos[0] != 7 {
		t.Fatalf("OnHello saw %v, want [7]", hellos)
	}
	if got := ack.sent[len(ack.sent)-1]; got.Control != tp.CtlAck || got.Arg != 7 {
		t.Fatalf("hello reply = %+v, want the adopted gated frontier 7", got)
	}
	// Fresh batches re-ack nothing the node was already sent; a gated
	// advance whose owner's send was lost rides the next fresh batch,
	// and one sent through SendAck does not.
	acks := func() int { return len(ack.sent) }
	before := acks()
	r.Filter(ack, mk(8))
	if acks() != before {
		t.Fatalf("fresh batch re-acked the unmoved frontier: %+v", ack.sent[before:])
	}
	gated[3] = 8
	r.Filter(ack, mk(9))
	if acks() != before+1 || ack.sent[before].Arg != 8 {
		t.Fatalf("fresh batch after a lost advance sent %+v, want one ack of 8", ack.sent[before:])
	}
	gated[3] = 9
	if !r.SendAck(ack, 3, 9) {
		t.Fatal("SendAck failed")
	}
	r.Filter(ack, mk(10))
	if acks() != before+2 {
		t.Fatalf("fresh batch repeated SendAck's ack: %+v", ack.sent[before:])
	}
}

// dropFirstData loses the first data frame sent through it, the way a
// silent network drop that never breaks the connection would.
type dropFirstData struct {
	tp.Conn
	dropped bool
}

func (c *dropFirstData) Send(m tp.Message) error {
	if m.Type == tp.MsgData && !c.dropped {
		c.dropped = true
		tp.Recycle(&m)
		return nil
	}
	return c.Conn.Send(m)
}

// TestSessionDrain: Drain resends what the receiver never saw until the
// window is empty, and gives up at its timeout against a peer that
// never acks.
func TestSessionDrain(t *testing.T) {
	t.Run("first frame dropped", func(t *testing.T) {
		local, remote := tp.Pipe(64)
		defer local.Close()
		r := NewReceiver(ReceiverConfig{})
		go func() {
			for {
				m, err := remote.Recv()
				if err != nil {
					return
				}
				r.Filter(remote, m)
			}
		}()
		s := NewSession(4, &dropFirstData{Conn: local}, SessionConfig{})
		go func() {
			for {
				if _, err := s.Recv(); err != nil {
					return
				}
			}
		}()
		for i := 0; i < 3; i++ {
			if err := s.Send(tp.DataMessage(4, []trace.Record{{Node: 4, Payload: int64(i)}})); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Drain(5 * time.Second) {
			t.Fatalf("drain gave up with %d batches pending", s.Pending())
		}
		if s.Pending() != 0 || r.High(4) != 3 {
			t.Fatalf("pending=%d receiver high=%d, want 0 and 3", s.Pending(), r.High(4))
		}
	})
	t.Run("peer never acks", func(t *testing.T) {
		sc := &scriptConn{}
		s := NewSession(0, sc, SessionConfig{})
		if err := s.Send(tp.DataMessage(0, []trace.Record{{Payload: 1}})); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if s.Drain(150 * time.Millisecond) {
			t.Fatal("drain reported an empty window no ack ever covered")
		}
		if el := time.Since(start); el < 150*time.Millisecond || el > 2*time.Second {
			t.Fatalf("drain returned after %s, want its 150ms timeout", el)
		}
		if s.Pending() != 1 || len(sc.sent) < 2 {
			t.Fatalf("pending=%d sends=%d, want the batch kept and resent", s.Pending(), len(sc.sent))
		}
	})
}
