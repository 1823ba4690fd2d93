package fault

// Chaos soak: the concurrent counterpart of the lockstep Simulate
// tests. Real goroutines, real transports (in-process pipes and TCP
// sockets), injected disconnects/corruption/latency — run under
// -race by make check. The assertions are the delivery guarantees, not
// bit-identical counts (scheduling decides how many redials happen):
//
//   - Block transport + session replay: every captured record reaches
//     the ISM side exactly once, proven by per-record accounting.
//   - Lossy drop policy without replay: loss happens but is exactly
//     counted by the transport's drop counters — never silent.

import (
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// soakServer is the ISM side of a soak: a shared session table and
// per-record delivery accounting.
type soakServer struct {
	recv *Receiver

	mu   sync.Mutex
	seen map[int64]int
}

func newSoakServer() *soakServer {
	return &soakServer{
		recv: NewReceiver(ReceiverConfig{}),
		seen: make(map[int64]int),
	}
}

// serve drains one connection until it dies, filtering through the
// session table and accounting accepted records.
func (s *soakServer) serve(c tp.Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			_ = c.Close()
			return
		}
		if s.recv.Filter(c, m) {
			continue
		}
		if m.Type == tp.MsgData {
			s.mu.Lock()
			for _, r := range m.Records {
				s.seen[r.Payload]++
			}
			s.mu.Unlock()
		}
		tp.Recycle(&m)
	}
}

// check asserts exactly-once delivery of captured payload ids.
func (s *soakServer) check(t *testing.T, nodes, batches, recs int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	missing, dup := 0, 0
	for n := 0; n < nodes; n++ {
		for b := 0; b < batches; b++ {
			for i := 0; i < recs; i++ {
				id := int64(n)*1_000_000 + int64(b)*1_000 + int64(i)
				switch c := s.seen[id]; {
				case c == 0:
					missing++
				case c > 1:
					dup++
				}
			}
		}
	}
	if missing != 0 || dup != 0 {
		t.Fatalf("delivery guarantee violated: %d records missing, %d duplicated (of %d)",
			missing, dup, nodes*batches*recs)
	}
}

// runSoakNode drives one LIS node: a session over an injector-wrapped
// redial, a concurrent ack-consuming Recv loop, then a bounded drain.
func runSoakNode(t *testing.T, node int32, dial func() (tp.Conn, error),
	batches, recs, window int, plan Plan, seed uint64) (faults, redials uint64) {
	t.Helper()
	inj, err := NewInjector(seed, plan)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			c, err := dial()
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(c), nil
		},
		Backoff:    100 * time.Microsecond,
		MaxBackoff: 2 * time.Millisecond,
		Jitter:     0.2,
		Seed:       seed,
	})
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	sess := NewSession(node, rd, SessionConfig{Window: window})

	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			if _, err := sess.Recv(); err != nil {
				return
			}
		}
	}()

	for b := 0; b < batches; b++ {
		rs := make([]trace.Record, recs)
		for i := range rs {
			id := int64(node)*1_000_000 + int64(b)*1_000 + int64(i)
			rs[i] = trace.Record{Node: node, Kind: trace.KindUser, Time: id, Payload: id}
		}
		if err := sess.Send(tp.DataMessage(node, rs)); err != nil {
			t.Errorf("node %d batch %d: %v", node, b, err)
		}
		if b%64 == 0 {
			_ = sess.Heartbeat()
		}
	}

	// Drain: resend until the window empties (silently dropped frames
	// only heal through resend; the receiver dedupes the rest).
	deadline := time.Now().Add(20 * time.Second)
	for sess.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Errorf("node %d: %d batches never acked", node, sess.Pending())
			break
		}
		_ = sess.Resend()
		sess.WaitAcked(20 * time.Millisecond)
	}
	faults, redials = inj.Total(), rd.Redials()
	_ = sess.Close()
	<-ackDone
	return faults, redials
}

func TestChaosSoakPipeExactlyOnce(t *testing.T) {
	const nodes, batches, recs = 4, 250, 8
	srv := newSoakServer()

	// Each dial builds a fresh blocking pipe and hands the server end
	// to a serving goroutine — the accept loop of the in-process world.
	var wgServe sync.WaitGroup
	serveCh := make(chan tp.Conn, 64)
	dispatchDone := make(chan struct{})
	go func() {
		defer close(dispatchDone)
		for c := range serveCh {
			wgServe.Add(1)
			go func(c tp.Conn) { defer wgServe.Done(); srv.serve(c) }(c)
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var faults, redials uint64
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			// The pipe must be deeper than the session window: a
			// reconnect replay runs while the sender's ack-draining
			// goroutine is parked on the dial, so the window's worth
			// of replayed batches plus their acks must fit in the
			// pipe or the replay wedges against its own ack traffic.
			dial := func() (tp.Conn, error) {
				a, b := tp.Pipe(256)
				serveCh <- b
				return a, nil
			}
			f, r := runSoakNode(t, int32(n), dial, batches, recs, 64, soakPlan(), 9000+uint64(n))
			mu.Lock()
			faults += f
			redials += r
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	close(serveCh)
	<-dispatchDone
	wgServe.Wait()

	if faults == 0 || redials == 0 {
		t.Fatalf("soak too quiet: faults=%d redials=%d", faults, redials)
	}
	srv.check(t, nodes, batches, recs)
}

func TestChaosSoakTCPExactlyOnce(t *testing.T) {
	const nodes, batches, recs = 3, 150, 8
	srv := newSoakServer()

	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wgServe sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wgServe.Add(1)
			go func() { defer wgServe.Done(); srv.serve(c) }()
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var faults, redials uint64
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			dial := func() (tp.Conn, error) { return tp.Dial(ln.Addr()) }
			// The replay window must cover the whole blast. A conn death
			// discards everything in the socket buffers (the client's
			// close RSTs when unread acks are queued), and columnar
			// frames pack several times more batches into those buffers
			// than flat ones — a window sized below the in-flight volume
			// demotes lost batches before replay can heal them, and with
			// no Spill configured a demoted batch is counted loss, not
			// recoverable state.
			f, r := runSoakNode(t, int32(n), dial, batches, recs, batches+8, soakPlan(), 7700+uint64(n))
			mu.Lock()
			faults += f
			redials += r
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	_ = ln.Close()
	<-acceptDone
	wgServe.Wait()

	if faults == 0 {
		t.Fatal("soak injected no faults")
	}
	srv.check(t, nodes, batches, recs)
}

// TestChaosReplayToFlatPeer: batches sent over a TCP link sit in the
// replay window as encoded frames only. The peer reads them,
// acknowledges none and dies; its successor is reached over a transport
// that carries a message as it is handed over (an in-process pipe). The
// reconnect replay must give it records, not a frame it cannot read —
// exactly once, like any other replay.
func TestChaosReplayToFlatPeer(t *testing.T) {
	const batches, recs = 40, 8
	srv := newSoakServer()
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for n := 0; n < batches; {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.Type == tp.MsgData {
				n++
			}
			tp.Recycle(&m)
		}
	}()

	var wgServe sync.WaitGroup
	dials := 0 // Redial runs one dial at a time
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			if dials++; dials == 1 {
				return tp.Dial(ln.Addr())
			}
			local, remote := tp.Pipe(64)
			wgServe.Add(1)
			go func() { defer wgServe.Done(); srv.serve(remote) }()
			return local, nil
		},
		Backoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sess := NewSession(0, rd, SessionConfig{Window: batches + 8, Metrics: reg})
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			if _, err := sess.Recv(); err != nil {
				return
			}
		}
	}()
	for b := 0; b < batches; b++ {
		rs := make([]trace.Record, recs)
		for i := range rs {
			id := int64(b)*1_000 + int64(i)
			rs[i] = trace.Record{Kind: trace.KindUser, Time: id, Payload: id}
		}
		if err := sess.Send(tp.DataMessage(0, rs)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	<-firstDone
	deadline := time.Now().Add(10 * time.Second)
	for sess.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches never acked by the flat peer", sess.Pending())
		}
		_ = sess.Resend()
		sess.WaitAcked(20 * time.Millisecond)
	}
	if rd.Redials() == 0 {
		t.Fatal("the link never moved to the flat peer")
	}
	if n := reg.Snapshot().Value("session.node0.batches_replayed"); n < batches {
		t.Fatalf("session.node0.batches_replayed = %v, want at least the %d unacked batches", n, batches)
	}
	_ = sess.Close()
	<-ackDone
	wgServe.Wait()
	srv.check(t, 1, batches, recs)
}

// TestChaosResendEncodedWindow: a session over a TCP link keeps its
// window as encoded frames and hands the transport a stored frame on
// every Resend; each retransmit must carry its session sequence, or the
// receiver takes every Resend for new data.
func TestChaosResendEncodedWindow(t *testing.T) {
	const batches, recs, resends = 12, 8, 3
	// Every ack claims nothing, so the whole window stays unacked.
	noAck := func(int32) int64 { return 0 }
	srv := &soakServer{recv: NewReceiver(ReceiverConfig{AckFrontier: noAck}), seen: make(map[int64]int)}
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		if c, err := ln.Accept(); err == nil {
			srv.serve(c)
		}
	}()
	conn, err := tp.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(0, conn, SessionConfig{Window: batches})
	for b := 0; b < batches; b++ {
		rs := make([]trace.Record, recs)
		for i := range rs {
			id := int64(b)*1_000 + int64(i)
			rs[i] = trace.Record{Kind: trace.KindUser, Time: id, Payload: id}
		}
		if err := sess.Send(tp.DataMessage(0, rs)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	for i := 0; i < resends; i++ { // nothing is acked: each one replays the whole window
		if err := sess.Resend(); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Close()
	<-served
	srv.check(t, 1, batches, recs)
}
