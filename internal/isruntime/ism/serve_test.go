package ism

// One manager, both kinds of LIS: Serve runs the session receiver for
// every connection, so a plain LIS and a resilient session share an
// ISM configured as cmd/ismd configures its flat role (SISO, ordered,
// ResumeSources), over TCP. The session must be acked, both streams
// must dispatch exactly once, and a successor manager must adopt the
// session's replayed suffix mid-stream.

import (
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// servedISM is one ismd-shaped manager incarnation: a TCP listener
// whose accepted connections go to Serve, and per-payload dispatch
// accounting.
type servedISM struct {
	m  *ISM
	ln *tp.Listener

	mu    sync.Mutex
	seen  map[int64]int
	total int
	conns []tp.Conn
}

func startServedISM(t *testing.T) *servedISM {
	t.Helper()
	s := &servedISM{
		m:    New(Config{Buffering: SISO, Ordered: true, ResumeSources: true}, nil),
		seen: map[int64]int{},
	}
	s.m.SubscribeBatch("account", func(rs []trace.Record) {
		s.mu.Lock()
		for _, r := range rs {
			s.seen[r.Payload]++
		}
		s.total += len(rs)
		s.mu.Unlock()
	})
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.m.Serve(c)
		}
	}()
	return s
}

// waitDispatched waits until the manager has dispatched want records.
func (s *servedISM) waitDispatched(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := s.total
		s.mu.Unlock()
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: dispatched %d of %d records", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkOnce asserts that the manager dispatched exactly the given
// payloads, each once.
func (s *servedISM) checkOnce(t *testing.T, want []int64, what string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.total != len(want) {
		t.Fatalf("%s: dispatched %d records, want exactly %d", what, s.total, len(want))
	}
	for _, id := range want {
		if n := s.seen[id]; n != 1 {
			t.Fatalf("%s: payload %d dispatched %d times, want once", what, id, n)
		}
	}
}

// crash severs the served connections and shuts the manager down.
func (s *servedISM) crash(t *testing.T) {
	t.Helper()
	_ = s.ln.Close()
	s.mu.Lock()
	conns := append([]tp.Conn(nil), s.conns...)
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	if err := s.m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServeMixedDeploymentAndRestart(t *testing.T) {
	const (
		plainNode, sessNode = 0, 1
		batches, per        = 20, 8
	)
	payload := func(node int32, phase, b, i int) int64 {
		return int64(node)*1_000_000 + int64(phase)*100_000 + int64(b)*1_000 + int64(i)
	}
	first := startServedISM(t)
	second := startServedISM(t)
	defer second.crash(t)
	var addrMu sync.Mutex
	addr := first.ln.Addr()

	// A plain LIS: unsequenced batches, one FOF flush per batch.
	pc, err := tp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m, err := pc.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	plain, err := lis.NewBuffered(plainNode, per, pc)
	if err != nil {
		t.Fatal(err)
	}

	// A resilient LIS: a session over a redial that reaches whichever
	// manager is current.
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			addrMu.Lock()
			a := addr
			addrMu.Unlock()
			return tp.Dial(a)
		},
		Backoff:    time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := fault.NewSession(sessNode, rd, fault.SessionConfig{Window: 2 * batches})
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			if _, err := sess.Recv(); err != nil {
				return
			}
		}
	}()
	var sessSeq uint64
	sendSession := func(phase int) []int64 {
		var ids []int64
		for b := 0; b < batches; b++ {
			rs := make([]trace.Record, per)
			for i := range rs {
				id := payload(sessNode, phase, b, i)
				rs[i] = trace.Record{Node: sessNode, Kind: trace.KindUser, Logical: sessSeq, Payload: id}
				sessSeq++
				ids = append(ids, id)
			}
			if err := sess.Send(tp.DataMessage(sessNode, rs)); err != nil {
				t.Fatalf("session phase %d batch %d: %v", phase, b, err)
			}
		}
		return ids
	}

	// Phase 1: both LIS kinds into the first manager.
	var want []int64
	for b := 0; b < batches; b++ {
		for i := 0; i < per; i++ {
			id := payload(plainNode, 1, b, i)
			plain.Capture(trace.Record{Node: plainNode, Kind: trace.KindUser, Logical: uint64(b*per + i), Payload: id})
			want = append(want, id)
		}
	}
	want = append(want, sendSession(1)...)
	if !sess.WaitAcked(5 * time.Second) {
		t.Fatalf("the session was never acked: %d batches pending", sess.Pending())
	}
	first.waitDispatched(t, len(want), "first manager")
	first.m.Drain()
	first.checkOnce(t, want, "first manager")
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	_ = pc.Close()

	// Restart: new dials reach the second manager, the first dies, and
	// the session continues mid-stream. Its sequencer has never seen
	// the source, so it must adopt the session's first replayed
	// capture sequence rather than hold for sequence zero.
	addrMu.Lock()
	addr = second.ln.Addr()
	addrMu.Unlock()
	first.crash(t)
	want = sendSession(2)
	deadline := time.Now().Add(10 * time.Second)
	for sess.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("second manager never acked the session: %d batches pending", sess.Pending())
		}
		_ = sess.Resend()
		sess.WaitAcked(20 * time.Millisecond)
	}
	second.waitDispatched(t, len(want), "second manager")
	second.m.Drain()
	second.checkOnce(t, want, "second manager")
	if held := second.m.Stats().Held; held != 0 {
		t.Fatalf("second manager still holds %d records", held)
	}
	if hellos := second.m.Metrics().Snapshot().Value("session.hellos"); hellos < 1 {
		t.Fatalf("second manager saw %v hellos, want the session's reconnect", hellos)
	}

	_ = sess.Close()
	<-ackDone
}
