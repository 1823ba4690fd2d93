package fault

// FuzzSessionProtocol drives both ends of the session protocol from an
// op stream and checks them against a small model after every op: the
// senders' replay windows (sends, acks of any value, demotion, Resend)
// and the receiver's dedup and ack frontier (data of any sequence,
// hellos of any frontier, heartbeats). The receiver's acks travel back
// to the senders, and a transmit op carries a sender's next recorded
// message to the receiver, so replays meet the dedup they rely on.

import (
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// recConn records every message sent on it. With columnar set it
// reports columnar framing, as a stream connection does, so the
// session retains and replays encoded bodies.
type recConn struct {
	sent     []tp.Message
	columnar bool
}

func (c *recConn) Send(m tp.Message) error   { c.sent = append(c.sent, m); return nil }
func (c *recConn) Recv() (tp.Message, error) { return tp.Message{}, io.EOF }
func (c *recConn) Close() error              { return nil }
func (c *recConn) ColumnarActive() bool      { return c.columnar }

// fuzzSender is one node's session and the model of its window.
type fuzzSender struct {
	node    int32
	sess    *Session
	conn    *recConn
	carried int              // conn.sent[:carried] went to the receiver
	batches [][]trace.Record // batches[seq-1] was sent as seq
	low     int64            // oldest sequence the window should hold
	acked   int64            // the session's cumulative ack
	lost    uint64           // demotions (the session has no spill)
	window  int              // the session's Window
	high    int64            // receiver: last High read
	front   int64            // receiver: contiguous accepted or adopted frontier
	fresh   map[int64]bool   // receiver: sequences handed to the caller
}

type sessionFuzz struct {
	t       *testing.T
	senders []*fuzzSender
	rcv     *Receiver
	rconn   *recConn
	acks    int // rconn.sent[:acks] were checked and delivered
}

func (f *sessionFuzz) ack(s *fuzzSender, v int64) {
	if !s.sess.Deliver(tp.ControlMessage(s.node, tp.CtlAck, v)) {
		f.t.Fatalf("node %d: Deliver did not consume an ack", s.node)
	}
	if v = min(v, int64(len(s.batches))); v > s.acked {
		s.acked = v
	}
	s.low = max(s.low, s.acked+1)
}

// filter hands m to the receiver and checks its verdict against the
// model: sequence 0 passes through, a sequence at or below the frontier
// or already handed over is consumed, anything else is handed over once.
func (f *sessionFuzz) filter(s *fuzzSender, m tp.Message) {
	seq := m.Arg
	consumed := f.rcv.Filter(f.rconn, m)
	switch want := seq != 0 && (seq <= s.front || s.fresh[seq]); {
	case consumed != want:
		f.t.Fatalf("node %d: Filter(seq %d) consumed=%v, model says %v (frontier %d)", s.node, seq, consumed, want, s.front)
	case consumed || seq == 0:
		return
	case s.fresh[seq]:
		f.t.Fatalf("node %d: seq %d handed to the caller twice", s.node, seq)
	}
	s.fresh[seq] = true
	advance(s)
}

// advance walks the frontier through the sequences handed over above
// it, as the receiver closes a hole.
func advance(s *fuzzSender) {
	for s.fresh[s.front+1] {
		s.front++
	}
}

func (f *sessionFuzz) hello(s *fuzzSender, v int64) {
	if !f.rcv.Filter(f.rconn, tp.ControlMessage(s.node, tp.CtlHello, v)) {
		f.t.Fatalf("node %d: Filter did not consume a hello", s.node)
	}
	s.front = max(s.front, v)
	advance(s)
}

// payload returns a data message's records, decoding an encoded body.
func (f *sessionFuzz) payload(m tp.Message) []trace.Record {
	if m.Records != nil || m.Enc == nil {
		return m.Records
	}
	rs := make([]trace.Record, m.EncCount)
	if err := trace.DecodeColumns(m.Enc, rs); err != nil {
		f.t.Fatalf("replayed body: %v", err)
	}
	return rs
}

func (f *sessionFuzz) resend(s *fuzzSender) {
	from := len(s.conn.sent)
	if err := s.sess.Resend(); err != nil {
		f.t.Fatalf("node %d: Resend: %v", s.node, err)
	}
	got := s.conn.sent[from:]
	next := int64(len(s.batches)) + 1
	if int64(len(got)) != next-s.low {
		f.t.Fatalf("node %d: Resend sent %d batches, want [%d, %d)", s.node, len(got), s.low, next)
	}
	for i, m := range got {
		seq := s.low + int64(i)
		if m.Type != tp.MsgData || m.Arg != seq {
			f.t.Fatalf("node %d: Resend message %d = %v seq %d, want data seq %d", s.node, i, m.Type, m.Arg, seq)
		}
		if rs := f.payload(m); !reflect.DeepEqual(rs, s.batches[seq-1]) {
			f.t.Fatalf("node %d: Resend of seq %d carries %v, sent %v", s.node, seq, rs, s.batches[seq-1])
		}
	}
}

// settle checks every new receiver ack against its node's frontier
// and delivers it back to that node's session, then checks both ends'
// state against the model.
func (f *sessionFuzz) settle() {
	for ; f.acks < len(f.rconn.sent); f.acks++ {
		m := f.rconn.sent[f.acks]
		if m.Type != tp.MsgControl || m.Control != tp.CtlAck || m.Node < 0 || int(m.Node) >= len(f.senders) {
			f.t.Fatalf("receiver sent %+v, want an ack to a known node", m)
		}
		s := f.senders[m.Node]
		if m.Arg > s.front {
			f.t.Fatalf("node %d: ack %d above the accepted or adopted frontier %d", s.node, m.Arg, s.front)
		}
		f.ack(s, m.Arg)
	}
	for _, s := range f.senders {
		next := int64(len(s.batches)) + 1
		acked := s.sess.Acked()
		switch {
		case acked != s.acked:
			f.t.Fatalf("node %d: Acked() = %d, model %d", s.node, acked, s.acked)
		case acked < 0 || acked > next-1:
			f.t.Fatalf("node %d: Acked() = %d outside [0, %d]", s.node, acked, next-1)
		case int64(s.sess.Pending()) != next-s.low:
			// With nothing demoted, low is Acked()+1: Pending() == nextSeq-1-Acked().
			f.t.Fatalf("node %d: Pending() = %d, want %d (next %d, low %d)", s.node, s.sess.Pending(), next-s.low, next, s.low)
		case s.sess.LostBatches() != s.lost:
			f.t.Fatalf("node %d: LostBatches() = %d, model %d", s.node, s.sess.LostBatches(), s.lost)
		}
		high := f.rcv.High(s.node)
		if high < s.high {
			f.t.Fatalf("node %d: High fell from %d to %d", s.node, s.high, high)
		}
		if high != s.front {
			f.t.Fatalf("node %d: High() = %d, model frontier %d", s.node, high, s.front)
		}
		s.high = high
	}
}

func FuzzSessionProtocol(f *testing.F) {
	// Sends, a transmit of each, the receiver's acks back, a resend.
	f.Add([]byte{0x02, 0, 0, 3, 3, 6, 7, 3})
	// Acks below zero and far past the last send, a hello far ahead.
	f.Add([]byte{0x11, 0, 1, 0x01, 0x01, 0, 0x0b, 0x80, 0x80, 0x80, 0x80, 0x10, 6, 4, 0x7e, 3})
	// A one-batch window: every send past the first demotes.
	f.Add([]byte{0x00, 0, 0, 0, 6, 2, 0x08, 2, 0x02, 5, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		data = data[1:]
		fz := &sessionFuzz{t: t, rconn: &recConn{}}
		fz.rcv = NewReceiver(ReceiverConfig{})
		for n := range 2 + int(cfg&1) {
			s := &fuzzSender{
				node:   int32(n),
				conn:   &recConn{columnar: cfg>>(4+n)&1 == 1},
				low:    1,
				window: 1 + int(cfg>>1&7),
				fresh:  map[int64]bool{},
			}
			s.sess = NewSession(s.node, s.conn, SessionConfig{Window: s.window})
			fz.senders = append(fz.senders, s)
		}
		arg := func() int64 {
			v, n := binary.Varint(data)
			if n <= 0 {
				data = nil
				return 0
			}
			data = data[n:]
			return v
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			s := fz.senders[int(op/8)%len(fz.senders)]
			switch op % 8 {
			case 0, 1: // send a batch of one to three records
				seq := int64(len(s.batches)) + 1
				recs := make([]trace.Record, 1+int(op>>6)%3)
				for i := range recs {
					recs[i] = trace.Record{Node: s.node, Kind: trace.KindUser, Time: seq, Logical: uint64(seq), Payload: seq<<2 | int64(i)}
				}
				if err := s.sess.Send(tp.DataMessage(s.node, recs)); err != nil {
					t.Fatalf("node %d: Send: %v", s.node, err)
				}
				if seq-s.low == int64(s.window) { // the oldest is demoted
					s.low++
					s.lost++
				}
				s.batches = append(s.batches, recs)
			case 2: // an ack of any value
				fz.ack(s, arg())
			case 3: // carry the sender's next message to the receiver
				if s.carried == len(s.conn.sent) {
					break
				}
				m := s.conn.sent[s.carried]
				s.carried++
				if m.Type == tp.MsgData {
					fz.filter(s, tp.Message{Type: tp.MsgData, Node: m.Node, Arg: m.Arg, Records: fz.payload(m)})
				} else if !fz.rcv.Filter(fz.rconn, m) {
					t.Fatalf("node %d: Filter did not consume %v", s.node, m.Control)
				}
			case 4: // data of any sequence
				fz.filter(s, tp.Message{Type: tp.MsgData, Node: s.node, Arg: arg(),
					Records: []trace.Record{{Node: s.node, Kind: trace.KindUser}}})
			case 5: // a hello of any frontier
				fz.hello(s, arg())
			case 6:
				fz.resend(s)
			default: // a heartbeat, both ends
				if err := s.sess.Heartbeat(); err != nil {
					t.Fatalf("node %d: Heartbeat: %v", s.node, err)
				}
				if !fz.rcv.Filter(fz.rconn, tp.ControlMessage(s.node, tp.CtlHeartbeat, 0)) {
					t.Fatalf("node %d: Filter did not consume a heartbeat", s.node)
				}
			}
			fz.settle()
		}
		for _, s := range fz.senders {
			fz.resend(s)
		}
	})
}
