package tp

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// ConnOption configures a stream connection (timeouts, metrics).
type ConnOption func(*connOptions)

type connOptions struct {
	writeTimeout time.Duration
	registry     *metrics.Registry
}

// WithWriteTimeout bounds each Send: a peer that stops draining causes
// Send to fail with a timeout error instead of blocking the LIS.
func WithWriteTimeout(d time.Duration) ConnOption {
	return func(o *connOptions) { o.writeTimeout = d }
}

// WithConnMetrics reports transport activity (tp.msgs_sent,
// tp.bytes_tx, tp.recs_tx, tp.msgs_recv, tp.bytes_rx, tp.recs_rx,
// tp.send_errors) through the given registry. The byte counters record
// actual encoded wire bytes, so bytes_tx/recs_tx is the live
// per-record wire footprint — the observable compression ratio of the
// columnar encoding.
func WithConnMetrics(reg *metrics.Registry) ConnOption {
	return func(o *connOptions) { o.registry = reg }
}

// connMetrics is the per-connection counter set under the tp scope.
type connMetrics struct {
	msgsSent, bytesSent, recsSent *metrics.Counter
	msgsRecv, bytesRecv, recsRecv *metrics.Counter
	sendErrors                    *metrics.Counter
}

func newConnMetrics(reg *metrics.Registry) *connMetrics {
	if reg == nil {
		return nil
	}
	s := reg.Scope("tp")
	return &connMetrics{
		msgsSent: s.Counter("msgs_sent"), bytesSent: s.Counter("bytes_tx"),
		recsSent: s.Counter("recs_tx"),
		msgsRecv: s.Counter("msgs_recv"), bytesRecv: s.Counter("bytes_rx"),
		recsRecv:   s.Counter("recs_rx"),
		sendErrors: s.Counter("send_errors"),
	}
}

// TCP transport: the socket-based TP variant. A streamConn adapts a
// net.Conn to the Conn interface with buffered framing. Writes are
// serialized with a mutex so multiple producer goroutines can share
// one connection; reads are expected from a single consumer (the usual
// LIS->ISM arrangement).
type streamConn struct {
	nc   net.Conn
	r    *bufio.Reader
	opts connOptions
	m    *connMetrics

	// recvState arbitrates ownership of the read side (c.r) between
	// Recv and Close's pre-close drain: 0 = untouched, 1 = a Recv has
	// run (Close must leave c.r alone), 2 = Close claimed it for the
	// drain (a late first Recv fails with net.ErrClosed instead of
	// racing the drain). Both transitions are one-way CASes from 0.
	recvState atomic.Int32

	wmu   sync.Mutex
	w     *bufio.Writer
	codec trace.ColumnCodec // columnar encode scratch, under wmu
	// werr is the first write failure, under wmu. A failed write may
	// have put part of a frame on the wire, so the stream cannot carry
	// another frame: every later Send and SendBatch fails with werr.
	// bufio.Writer keeps its own error sticky, but SendBatch's writev
	// bypasses it.
	werr error

	closeOnce sync.Once
	closeErr  error
}

// NewStreamConn wraps a net.Conn (or any equivalent) as a message
// Conn.
func NewStreamConn(nc net.Conn, opts ...ConnOption) Conn {
	var o connOptions
	for _, opt := range opts {
		opt(&o)
	}
	return &streamConn{
		nc:   nc,
		r:    bufio.NewReaderSize(nc, 64<<10),
		w:    bufio.NewWriterSize(nc, 64<<10),
		opts: o,
		m:    newConnMetrics(o.registry),
	}
}

// ColumnarActive implements ColumnarSender: a stream connection frames
// every data message with records columnar.
func (c *streamConn) ColumnarActive() bool { return true }

// appendWireLocked appends m's wire encoding to buf — columnar for a
// data message with records or a pre-encoded body, flat otherwise — and
// returns the extended slice plus the record count shipped.
func (c *streamConn) appendWireLocked(buf []byte, m *Message) ([]byte, int, error) {
	if m.Type == MsgData && (m.Enc != nil || len(m.Records) > 0) {
		out, err := AppendColumnarMessage(buf, *m, &c.codec)
		n := len(m.Records)
		if m.Enc != nil {
			n = m.EncCount
		}
		return out, n, err
	}
	out, err := AppendMessage(buf, *m)
	return out, len(m.Records), err
}

// failLocked accounts a failed send and returns its classified error;
// a write failure (write true) also becomes the conn's sticky werr.
func (c *streamConn) failLocked(err error, write bool) error {
	err = Classify(err)
	if write && c.werr == nil {
		c.werr = err
	}
	if c.m != nil {
		c.m.sendErrors.Inc()
	}
	return err
}

// Send implements Conn. Each message is flushed immediately: the IS
// trades throughput for the bounded dispatch latency that on-line
// tools require. Failures are classified (Classify) so callers can
// errors.Is against ErrConnClosed / ErrTimeout and decide whether a
// redial can cure them; after a write failure every later send fails
// with it.
func (c *streamConn) Send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		Recycle(&m)
		return c.failLocked(c.werr, false)
	}
	if c.opts.writeTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.opts.writeTimeout))
	}
	eb := encodePool.Get().(*encodeBuffer)
	buf, recs, err := c.appendWireLocked(eb.b[:0], &m)
	eb.b = buf[:0]
	n := len(buf)
	encoded := err == nil
	if encoded {
		if _, err = c.w.Write(buf); err == nil {
			err = c.w.Flush()
		}
	}
	encodePool.Put(eb)
	Recycle(&m)
	if err != nil {
		return c.failLocked(err, encoded)
	}
	if c.m != nil {
		c.m.msgsSent.Inc()
		c.m.bytesSent.Add(uint64(n))
		c.m.recsSent.Add(uint64(recs))
	}
	return nil
}

// batchFrames carries the reusable per-batch encode state of
// SendBatch: one pooled buffer per frame plus the net.Buffers vector
// handed to writev. Pooling the holder keeps the steady-state batch
// send allocation-free.
type batchFrames struct {
	ebs  []*encodeBuffer
	bufs net.Buffers
}

var batchFramesPool = sync.Pool{New: func() any { return new(batchFrames) }}

// SendBatch implements BatchSender: every queued frame is encoded into
// its own pooled buffer and the set is transmitted as one coalesced
// write — a single writev on TCP, a single buffered write+flush on
// other stream transports. Ownership matches Send: the connection owns
// every message once called.
func (c *streamConn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		for i := range ms {
			Recycle(&ms[i])
		}
		return c.failLocked(c.werr, false)
	}
	if c.opts.writeTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.opts.writeTimeout))
	}
	bf := batchFramesPool.Get().(*batchFrames)
	total, recs := 0, 0
	var err error
	for i := range ms {
		eb := encodePool.Get().(*encodeBuffer)
		var buf []byte
		var n int
		buf, n, err = c.appendWireLocked(eb.b[:0], &ms[i])
		eb.b = buf[:0]
		if err != nil {
			encodePool.Put(eb)
			break
		}
		bf.ebs = append(bf.ebs, eb)
		bf.bufs = append(bf.bufs, buf)
		total += len(buf)
		recs += n
	}
	sent := len(bf.bufs)
	for i := range ms {
		Recycle(&ms[i])
	}
	encoded := err == nil
	if encoded {
		if tc, ok := c.nc.(*net.TCPConn); ok {
			// The bufio writer is empty here: Send flushes it, and a
			// failed flush is sticky. WriteTo consumes its vector in
			// place, so hand it a copy of the slice header and keep
			// bf.bufs intact for reuse.
			vec := bf.bufs
			_, err = vec.WriteTo(tc)
		} else {
			for _, b := range bf.bufs {
				if _, err = c.w.Write(b); err != nil {
					break
				}
			}
			if err == nil {
				err = c.w.Flush()
			}
		}
	}
	for _, eb := range bf.ebs {
		encodePool.Put(eb)
	}
	bf.ebs = bf.ebs[:0]
	bf.bufs = bf.bufs[:0]
	batchFramesPool.Put(bf)
	if err != nil {
		return c.failLocked(err, encoded)
	}
	if c.m != nil {
		c.m.msgsSent.Add(uint64(sent))
		c.m.bytesSent.Add(uint64(total))
		c.m.recsSent.Add(uint64(recs))
	}
	return nil
}

// Recv implements Conn. Orderly shutdown surfaces as plain io.EOF;
// every other failure is classified into the typed taxonomy.
func (c *streamConn) Recv() (Message, error) {
	if !c.recvState.CompareAndSwap(0, 1) && c.recvState.Load() == 2 {
		return Message{}, Classify(net.ErrClosed)
	}
	m, n, err := readMessage(c.r)
	if err != nil {
		return m, Classify(err)
	}
	if c.m != nil {
		c.m.msgsRecv.Inc()
		c.m.bytesRecv.Add(uint64(n))
		c.m.recsRecv.Add(uint64(len(m.Records)))
	}
	return m, nil
}

// Close implements Conn. A fire-and-forget sender that never called
// Recv may close with frames from the peer (an ack, a control signal)
// still unread, and on TCP an unread receive queue turns the close into
// an RST — which discards the peer's receive queue too, losing data
// frames still in flight. For such conns Close briefly drains inbound
// bytes first so the close degrades to an orderly FIN; conns with a
// reader (everything running a control loop) skip this, their Recv side
// owns the buffer.
func (c *streamConn) Close() error {
	c.closeOnce.Do(func() {
		if c.recvState.CompareAndSwap(0, 2) {
			_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			var scratch [1 << 10]byte
			for {
				if _, err := c.r.Read(scratch[:]); err != nil {
					break
				}
			}
		}
		c.closeErr = c.nc.Close()
	})
	return c.closeErr
}

// Listener accepts TCP message connections for an ISM endpoint.
// Options given to Listen apply to every accepted connection.
type Listener struct {
	l    net.Listener
	opts []ConnOption

	closeOnce sync.Once
	closeErr  error
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts ...ConnOption) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l, opts: opts}, nil
}

// Addr returns the bound address, useful with port 0.
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Accept waits for the next connection.
func (ln *Listener) Accept() (Conn, error) {
	nc, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewStreamConn(nc, ln.opts...), nil
}

// Close stops the listener. It is idempotent: the second and later
// calls return the first call's result instead of a spurious
// use-of-closed error.
func (ln *Listener) Close() error {
	ln.closeOnce.Do(func() { ln.closeErr = ln.l.Close() })
	return ln.closeErr
}

// Dial connects to an ISM TCP endpoint.
func Dial(addr string, opts ...ConnOption) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewStreamConn(nc, opts...), nil
}

// DialTimeout connects to an ISM TCP endpoint, failing after timeout
// instead of hanging an LIS on an unreachable manager.
func DialTimeout(addr string, timeout time.Duration, opts ...ConnOption) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewStreamConn(nc, opts...), nil
}
