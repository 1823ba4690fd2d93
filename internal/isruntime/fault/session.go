package fault

// Session: the sender half of the resilience protocol. A raw tp.Redial
// heals the *connection* but cannot heal the *data* — Send hands
// pooled batches to the wire encoder, so a frame lost under a fault is
// gone at the transport layer. The Session restores delivery by
// sequencing and retaining: every data batch gets a per-node monotonic
// sequence number (Message.Arg, starting at 1; Arg==0 marks legacy
// unsequenced traffic), and a private copy of it — its records, or
// its encoded wire frame where the transport is a stream — stays
// in a bounded replay window until the receiver's cumulative CtlAck
// covers it. On every reconnect the session introduces itself with
// CtlHello (Arg = last ack it has seen) and replays the still-unacked
// suffix of the window in sequence order. The receiver dedupes, so the
// wire guarantee is at-least-once and the accounting guarantee
// exactly-once.
//
// Window overflow and give-up demote batches to the flow spill path —
// the same escape hatch the LIS queues use — so bounded memory never
// silently discards records: demoted batches are recoverable from
// storage even though they leave the replay protocol.

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// SessionConfig parameterizes a sender session.
type SessionConfig struct {
	// Window bounds the unacked batches retained for replay. When a
	// new batch would exceed it, the oldest is demoted to Spill. Zero
	// means 256.
	Window int
	// Spill receives demoted batches (window overflow, give-up). Nil
	// means demoted records are dropped (and counted lost).
	Spill flow.Spill
	// Metrics, when non-nil, reports session counters under
	// session.node<N>.
	Metrics *metrics.Registry
}

// Session is a tp.Conn wrapper implementing the sender side of the
// sequencing/replay protocol. Wrap it around a *tp.Redial (its
// OnConnect hook is claimed automatically) or any Conn. Any number of
// goroutines may call Send, and another Recv.
type Session struct {
	node int32
	conn tp.Conn
	cfg  SessionConfig

	mSent     *metrics.Counter
	mReplayed *metrics.Counter
	mSpilled  *metrics.Counter
	mLost     *metrics.Counter

	// sendMu orders data sends: Send holds it from stamping a sequence
	// to handing the batch to conn, so concurrent senders reach the
	// wire in sequence order. It is not mu, so Deliver's acks never
	// wait on a write.
	sendMu sync.Mutex

	mu      sync.Mutex
	nextSeq int64
	acked   int64
	// window is a FIFO of the unacked batches, oldest first. It holds
	// the sequences [nextSeq-len(window), nextSeq): sends append, and
	// acks and demotion drop the front.
	window  []windowBatch
	codec   trace.ColumnCodec
	scratch []byte // encode staging so window copies are exact-sized
	spilled uint64
	lost    uint64
}

// windowBatch is one retained batch, in one of two forms. When the
// transport frames data columnar (a stream connection) the batch is
// column-encoded once at Send and the window keeps only that body (enc,
// count, crc): a fifth of the records' size, and every replay
// (reconnect, resend) retransmits the bytes verbatim instead of
// re-running the encoder. Otherwise (a pipe) it keeps a copy of the
// records. The two paths that need records from an encoded batch —
// demotion to the spill, and a replay onto a pipe a Redial moved to —
// decode it; both are cold.
type windowBatch struct {
	recs  []trace.Record
	enc   []byte
	count int
	crc   uint32
}

// records returns the batch's records, decoded into a fresh slice when
// the window holds the batch encoded. It fails only if the window's own
// encoding does not decode: memory corruption, in effect.
func (wb windowBatch) records() ([]trace.Record, error) {
	if wb.enc == nil {
		return wb.recs, nil
	}
	rs := make([]trace.Record, wb.count)
	if err := trace.DecodeColumns(wb.enc, rs); err != nil {
		return nil, fmt.Errorf("fault: replay window frame: %w", err)
	}
	return rs, nil
}

// replay retransmits one window batch as seq on conn: the stored frame
// verbatim where conn frames columnar, its records otherwise. The decode
// is for transports that carry a message as handed over (pipes).
func (s *Session) replay(conn tp.Conn, seq int64, wb windowBatch) error {
	m := tp.DataMessage(s.node, nil)
	m.Arg = seq
	if wb.enc != nil && tp.ColumnarActive(conn) {
		m.Enc, m.EncCount, m.EncCRC = wb.enc, wb.count, wb.crc
	} else {
		rs, err := wb.records()
		if err != nil {
			return err
		}
		m.Records = rs
	}
	if err := conn.Send(m); err != nil {
		return err
	}
	if s.mReplayed != nil {
		s.mReplayed.Inc()
	}
	return nil
}

// onConnectSetter is how the session claims a Redial's replay hook
// without depending on the concrete type.
type onConnectSetter interface {
	SetOnConnect(func(tp.Conn) error)
}

// NewSession wraps conn with a replay session for the given node. If
// conn supports SetOnConnect (tp.Redial does), the session installs
// its hello+replay hook so every reconnect resynchronizes before
// traffic resumes.
func NewSession(node int32, conn tp.Conn, cfg SessionConfig) *Session {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	s := &Session{
		node:    node,
		conn:    conn,
		cfg:     cfg,
		nextSeq: 1,
	}
	if cfg.Metrics != nil {
		sc := cfg.Metrics.Scope("session").Scope("node" + strconv.Itoa(int(node)))
		s.mSent = sc.Counter("batches_sent")
		s.mReplayed = sc.Counter("batches_replayed")
		s.mSpilled = sc.Counter("batches_spilled")
		s.mLost = sc.Counter("batches_lost")
	}
	if rc, ok := conn.(onConnectSetter); ok {
		rc.SetOnConnect(s.onConnect)
	}
	return s
}

// Send implements tp.Conn. Data messages are stamped with the next
// sequence number and retained in the replay window, encoded or copied,
// before transmission; a retryable transport failure is therefore
// absorbed (the batch replays on reconnect) and Send reports success.
// Control messages pass through unsequenced. Concurrent Sends are
// written in the order they are stamped. A terminal failure
// (ErrGiveUp, unclassified) demotes the whole window to the spill path
// and surfaces the error.
func (s *Session) Send(m tp.Message) error {
	if m.Type != tp.MsgData {
		return s.conn.Send(m)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	var wb windowBatch
	if len(m.Records) > 0 && tp.ColumnarActive(s.conn) {
		// Stage in the reusable scratch, then copy exact-sized: the
		// window retains the copy until acked, so encoding straight
		// into a fresh slice would pay the append growth chain on
		// every batch.
		s.scratch, wb.crc = tp.EncodeColumnarBody(s.scratch[:0], m.Records, &s.codec)
		wb.enc = append(make([]byte, 0, len(s.scratch)), s.scratch...)
		wb.count = len(m.Records)
	} else {
		wb.recs = append(make([]trace.Record, 0, len(m.Records)), m.Records...)
	}
	if len(s.window) == s.cfg.Window {
		s.demoteOldestLocked()
	}
	s.window = append(s.window, wb)
	s.mu.Unlock()
	if s.mSent != nil {
		s.mSent.Inc()
	}

	// The message keeps its records beside the encoded body, so a
	// transport that carries messages as handed over (a pipe a Redial
	// moved to since the check above) still delivers them.
	m.Arg = seq
	m.Enc, m.EncCount, m.EncCRC = wb.enc, wb.count, wb.crc
	err := s.conn.Send(m)
	if err == nil || tp.Retryable(err) {
		// Retryable: the copy in the window replays on reconnect, so
		// from the caller's perspective the batch is on its way.
		return nil
	}
	s.mu.Lock()
	for len(s.window) > 0 {
		s.demoteOldestLocked()
	}
	s.mu.Unlock()
	return err
}

// demoteOldestLocked moves the oldest window entry to the spill path.
// Called with s.mu held and the window not empty.
func (s *Session) demoteOldestLocked() {
	wb := s.window[0]
	s.dropLocked(1)
	if s.cfg.Spill != nil {
		if rs, err := wb.records(); err == nil && s.cfg.Spill.Append(rs...) == nil {
			s.spilled++
			if s.mSpilled != nil {
				s.mSpilled.Inc()
			}
			return
		}
	}
	s.lost++
	if s.mLost != nil {
		s.mLost.Inc()
	}
}

// onConnect runs on the raw connection of every (re)establishment:
// hello with the last seen ack, then the unacked window suffix in
// sequence order. Window slices are sent by reference and never
// mutated, so replay does not race the window bookkeeping.
func (s *Session) onConnect(raw tp.Conn) error {
	s.mu.Lock()
	acked := s.acked
	first, pending := s.unackedLocked()
	s.mu.Unlock()

	hello := tp.ControlMessage(s.node, tp.CtlHello, acked)
	if err := raw.Send(hello); err != nil {
		return err
	}
	return s.replayAll(raw, first, pending)
}

// dropLocked removes the n oldest window entries, zeroing them so the
// backing array no longer pins their batches. Called with s.mu held.
func (s *Session) dropLocked(n int) {
	clear(s.window[:n])
	s.window = s.window[n:]
}

// unackedLocked copies the replay window out in sequence order, with
// the sequence of its first entry. Called with s.mu held.
func (s *Session) unackedLocked() (int64, []windowBatch) {
	return s.nextSeq - int64(len(s.window)), slices.Clone(s.window)
}

// replayAll retransmits pending, whose first entry is sequence first,
// on conn in order, stopping at the first failure.
func (s *Session) replayAll(conn tp.Conn, first int64, pending []windowBatch) error {
	for i, wb := range pending {
		if err := s.replay(conn, first+int64(i), wb); err != nil {
			return err
		}
	}
	return nil
}

// Deliver consumes session-protocol messages addressed to the sender:
// a cumulative CtlAck trims the replay window. It returns true when
// the message was consumed and false when it belongs to the caller
// (flush/stop/start control traffic). An ack comes off the network, so
// it is clamped to the last sequence sent: it cannot cover a batch that
// was never sent, and an unclamped one would walk the trim loop up to
// any value the peer names.
func (s *Session) Deliver(m tp.Message) bool {
	if m.Type != tp.MsgControl || m.Control != tp.CtlAck {
		return false
	}
	s.mu.Lock()
	if ack := min(m.Arg, s.nextSeq-1); ack > s.acked {
		s.acked = ack
	}
	low := s.nextSeq - int64(len(s.window))
	s.dropLocked(int(max(0, s.acked-low+1)))
	s.mu.Unlock()
	return true
}

// Recv implements tp.Conn, filtering session-protocol messages out of
// the inbound stream so callers only see their own control traffic.
func (s *Session) Recv() (tp.Message, error) {
	for {
		m, err := s.conn.Recv()
		if err != nil {
			return m, err
		}
		if !s.Deliver(m) {
			return m, nil
		}
	}
}

// Close implements tp.Conn.
func (s *Session) Close() error { return s.conn.Close() }

// Heartbeat sends a liveness beacon; the receiver uses its arrival
// time to decide node degradation.
func (s *Session) Heartbeat() error {
	return s.conn.Send(tp.ControlMessage(s.node, tp.CtlHeartbeat, 0))
}

// Resend retransmits the unacked window in sequence order on the
// current connection. Safe at any time — the receiver deduplicates —
// it is the recovery step for batches lost to silent faults that never
// broke the connection (and so never triggered the reconnect replay).
func (s *Session) Resend() error {
	s.mu.Lock()
	first, pending := s.unackedLocked()
	s.mu.Unlock()
	return s.replayAll(s.conn, first, pending)
}

// Pending returns the number of unacked batches in the replay window.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.window)
}

// Acked returns the highest cumulative ack seen.
func (s *Session) Acked() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Spilled returns the number of batches demoted to the spill path.
func (s *Session) Spilled() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// LostBatches returns batches demoted with no spill target available.
func (s *Session) LostBatches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// WaitAcked blocks until the replay window is empty or the timeout
// expires, reporting whether everything was acknowledged. Callers must
// keep a Recv loop (or Deliver calls) running for acks to arrive.
func (s *Session) WaitAcked(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.Pending() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Drain drives the replay window empty before teardown: it waits up to
// 100 ms for acks and resends what is still unacked, round after round,
// until the window is empty (true), or the timeout passes or the
// transport fails for good (false): a connection that gave up acks
// nothing more. Every round that finds the window unacked resends it,
// the last one too, so even a Drain shorter than one wait does. Batches just sent are usually acked within the first
// wait, so only a window the acks stall on goes out again; a resend
// recovers batches lost to silent drops and costs only wire bytes for
// the rest, which the receiver deduplicates. Like WaitAcked, it needs a
// Recv loop (or Deliver calls) running.
func (s *Session) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !s.WaitAcked(min(time.Until(deadline), 100*time.Millisecond)) {
		if err := s.Resend(); err != nil && !tp.Retryable(err) || time.Until(deadline) <= 0 {
			return false
		}
	}
	return true
}
