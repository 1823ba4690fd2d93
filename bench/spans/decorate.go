package spans

import (
	"io"
	"sync/atomic"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// batchID is the identity spans of one batch share: the node and
// capture sequence of its first record.
func batchID(rs []trace.Record) (int32, uint64) {
	if len(rs) == 0 {
		return -1, 0
	}
	return rs[0].Node, rs[0].Logical
}

// Conn decorates a tp.Conn: every Send or SendBatch and every Recv
// becomes a span. It forwards the optional interfaces the runtime
// probes for (coalesced sends, columnar negotiation), so wrapping a
// connection does not change the path its traffic takes.
type Conn struct {
	inner      tp.Conn
	rec        *Recorder
	send, recv uint8

	// Parent is the span a Send is attributed to; the owner of the
	// calling goroutine sets it around the call that causes the send.
	Parent atomic.Int32
	// OnRecv, when set, sees every received data message with the index
	// and end time of its Recv span, before the message is returned.
	OnRecv func(m *tp.Message, span int32, end int64)
}

// WrapConn decorates c, naming its spans send and recv.
func WrapConn(c tp.Conn, rec *Recorder, send, recv uint8) *Conn {
	w := &Conn{inner: c, rec: rec, send: send, recv: recv}
	w.Parent.Store(NoParent)
	return w
}

// Send implements tp.Conn.
func (c *Conn) Send(m tp.Message) error {
	node, seq := batchID(m.Records)
	start := c.rec.Now()
	err := c.inner.Send(m)
	c.rec.Add(Span{Name: c.send, Parent: c.Parent.Load(), Node: node, Seq: seq, Start: start, End: c.rec.Now()})
	return err
}

// SendBatch implements tp.BatchSender: one span for the coalesced
// write, identified by its first batch.
func (c *Conn) SendBatch(ms []tp.Message) error {
	var node int32 = -1
	var seq uint64
	if len(ms) > 0 {
		node, seq = batchID(ms[0].Records)
	}
	start := c.rec.Now()
	err := tp.SendAll(c.inner, ms)
	c.rec.Add(Span{Name: c.send, Parent: c.Parent.Load(), Node: node, Seq: seq, Start: start, End: c.rec.Now()})
	return err
}

// Recv implements tp.Conn. The span covers the whole call: waiting for
// the peer plus decoding.
func (c *Conn) Recv() (tp.Message, error) {
	start := c.rec.Now()
	m, err := c.inner.Recv()
	end := c.rec.Now()
	if err != nil {
		return m, err
	}
	node, seq := batchID(m.Records)
	id := c.rec.Add(Span{Name: c.recv, Parent: NoParent, Node: node, Seq: seq, Start: start, End: end})
	if c.OnRecv != nil && m.Type == tp.MsgData {
		c.OnRecv(&m, id, end)
	}
	return m, nil
}

// Close implements tp.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// ColumnarActive implements tp.ColumnarSender.
func (c *Conn) ColumnarActive() bool { return tp.ColumnarActive(c.inner) }

// Writer decorates an io.Writer (the manager's spool): a span per
// Write.
type Writer struct {
	inner io.Writer
	rec   *Recorder
	name  uint8
}

// WrapWriter decorates w.
func WrapWriter(w io.Writer, rec *Recorder, name uint8) *Writer {
	return &Writer{inner: w, rec: rec, name: name}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	start := w.rec.Now()
	n, err := w.inner.Write(p)
	w.rec.Add(Span{Name: w.name, Parent: NoParent, Node: -1, Start: start, End: w.rec.Now()})
	return n, err
}

// Spill decorates a flow.Spill (the storage tier): a span per Append,
// attributed to Parent.
type Spill struct {
	inner  flow.Spill
	rec    *Recorder
	name   uint8
	Parent atomic.Int32
}

// WrapSpill decorates s.
func WrapSpill(s flow.Spill, rec *Recorder, name uint8) *Spill {
	w := &Spill{inner: s, rec: rec, name: name}
	w.Parent.Store(NoParent)
	return w
}

// Append implements flow.Spill.
func (s *Spill) Append(rs ...trace.Record) error {
	node, seq := batchID(rs)
	start := s.rec.Now()
	err := s.inner.Append(rs...)
	s.rec.Add(Span{Name: s.name, Parent: s.Parent.Load(), Node: node, Seq: seq, Start: start, End: s.rec.Now()})
	return err
}
