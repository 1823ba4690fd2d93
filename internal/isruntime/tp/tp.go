// Package tp implements the instrumentation system's Transfer Protocol
// (TP): "a consistent instrumentation data and control transfer
// protocol is used for IS-related communications" (§2.2.3).
//
// Two transports are provided behind one Conn interface:
//
//   - an in-process transport built on Go channels, standing in for
//     the Unix pipes and shared-memory paths of the paper's systems;
//   - a TCP transport built on net.Conn with explicit framing,
//     standing in for the socket-based TPs of Pablo and Issos.
//
// Both carry the same Message type, which multiplexes instrumentation
// data batches and control signals (the ISM-to-tool and ISM-to-process
// control traffic of Figure 2).
//
// Record batches travel through the flow core's batch pool: a message
// built with PooledDataMessage marks its record slice pool-owned, and
// whichever layer finishes with the data (the wire encoder, a closed
// pipe, or the manager once the batch is dispatched or dropped)
// recycles it with flow.PutBatch. After Send returns, the sender must not touch a
// pooled message's records.
package tp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"prism/internal/isruntime/flow"
	"prism/internal/trace"
)

// MsgType discriminates the two message classes of the protocol.
type MsgType uint8

// Message classes.
const (
	MsgData    MsgType = iota // batch of instrumentation records
	MsgControl                // control signal
	numMsgTypes
)

// Control identifies a control signal.
type Control uint8

// Control signals exchanged between LIS, ISM and tools.
const (
	CtlNone      Control = iota
	CtlStart             // begin/resume capture
	CtlStop              // pause capture
	CtlFlush             // flush local buffers now (FAOF gang signal)
	CtlFlushDone         // LIS acknowledges a completed flush
	CtlConfigure         // reconfigure; Arg carries the parameter
	CtlShutdown          // orderly termination
	CtlAck               // acknowledgement; for sessions, Arg is the cumulative batch seq
	CtlHello             // session (re)establishment; Arg is the sender's acked seq
	CtlHeartbeat         // liveness beacon from a LIS node
	numControls
)

var controlNames = [...]string{
	CtlNone: "none", CtlStart: "start", CtlStop: "stop",
	CtlFlush: "flush", CtlFlushDone: "flush-done",
	CtlConfigure: "configure", CtlShutdown: "shutdown", CtlAck: "ack",
	CtlHello: "hello", CtlHeartbeat: "heartbeat",
}

// String returns the control signal's name.
func (c Control) String() string {
	if int(c) < len(controlNames) {
		return controlNames[c]
	}
	return fmt.Sprintf("control(%d)", uint8(c))
}

// Message is one protocol unit.
type Message struct {
	Type    MsgType
	Node    int32 // originating node (data) or target node (control)
	Control Control
	Arg     int64 // control argument
	Records []trace.Record
	// Pooled marks Records as owned by the flow batch pool: the final
	// consumer must return the slice with flow.PutBatch. The flag is
	// transport-local and never encoded on the wire.
	Pooled bool
	// Enc, when non-nil, is the pre-encoded columnar wire body of this
	// data message: EncCount records, EncCRC the crc32c of the bytes
	// (see EncodeColumnarBody). The session layer holds replay-window
	// batches in this form so retransmits skip re-encoding; the stream
	// transport frames Enc verbatim. The bytes stay owned by the
	// producer and must not be mutated while the message is in flight;
	// Recycle leaves them alone.
	Enc      []byte
	EncCount int
	EncCRC   uint32
}

// DataMessage builds a data message from node with the given records.
// The caller retains ownership of the record slice.
func DataMessage(node int32, records []trace.Record) Message {
	return Message{Type: MsgData, Node: node, Records: records}
}

// PooledDataMessage builds a data message whose record slice came from
// flow.GetBatch; ownership transfers with the message and the final
// consumer recycles it.
func PooledDataMessage(node int32, records flow.Batch) Message {
	return Message{Type: MsgData, Node: node, Records: records, Pooled: true}
}

// ControlMessage builds a control message.
func ControlMessage(node int32, ctl Control, arg int64) Message {
	return Message{Type: MsgControl, Node: node, Control: ctl, Arg: arg}
}

// Recycle returns a message's record slice to the batch pool if it is
// pool-owned. Consumers call it once they have copied or discarded the
// records. The message is cleared on the first call, so an accidental
// second Recycle of the same message is inert instead of double-freeing
// the slice into the pool (which would hand the same backing array to
// two owners).
func Recycle(m *Message) {
	if m.Pooled && m.Records != nil {
		flow.PutBatch(m.Records)
	}
	m.Records = nil
	m.Pooled = false
}

// Conn is a bidirectional, ordered, reliable message connection —
// the abstraction all LIS/ISM/tool endpoints speak.
type Conn interface {
	// Send transmits one message. It may block for flow control.
	// Send takes ownership of pooled messages: after it returns
	// (success or error) the caller must not touch m.Records if
	// m.Pooled is set.
	Send(Message) error
	// Recv returns the next message, or an error once the peer has
	// closed (io.EOF for orderly shutdown).
	Recv() (Message, error)
	// Close releases the connection. Pending Recv calls unblock.
	Close() error
}

// BatchSender is implemented by transports that can transmit several
// queued messages as one coalesced write (one syscall per flush on the
// stream transport). Ownership follows Send: the connection owns every
// message in ms once SendBatch is called, success or error.
type BatchSender interface {
	SendBatch(ms []Message) error
}

// SendAll transmits every message in ms over c, using the transport's
// coalesced batch path when it has one and falling back to per-message
// Send otherwise. On a fallback error the remaining messages are still
// offered (the conn owns and accounts each); the first error is
// returned.
func SendAll(c Conn, ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	if len(ms) == 1 {
		return c.Send(ms[0])
	}
	if bs, ok := c.(BatchSender); ok {
		return bs.SendBatch(ms)
	}
	var first error
	for _, m := range ms {
		if err := c.Send(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// chanConn is the in-process transport: one direction of a Pipe.
type chanConn struct {
	send chan Message
	recv chan Message
	stop chan struct{}
}

// Pipe returns the two ends of an in-process connection with the given
// buffering per direction. Buffer 0 gives rendezvous semantics; a
// positive buffer models a bounded kernel pipe, whose fill-up blocks
// the sender — the blocking effect of §3.2.3. Overflow policies belong
// to the stages on either side (the LIS's pending stage, the ISM's
// input stage), not to the transport.
func Pipe(buffer int) (Conn, Conn) {
	ab := make(chan Message, buffer)
	ba := make(chan Message, buffer)
	stop := make(chan struct{})
	return &chanConn{send: ab, recv: ba, stop: stop}, &chanConn{send: ba, recv: ab, stop: stop}
}

// Send implements Conn. A send on a closed pipe returns ErrClosed and
// recycles the message's pooled records.
func (c *chanConn) Send(m Message) error {
	select {
	case <-c.stop:
		Recycle(&m)
		return ErrClosed
	default:
	}
	select {
	case c.send <- m:
		return nil
	case <-c.stop:
		Recycle(&m)
		return ErrClosed
	}
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	// Drain any queued messages even after close, then report EOF.
	select {
	case m := <-c.recv:
		return m, nil
	default:
	}
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.stop:
		// Raced with close: one more drain attempt.
		select {
		case m := <-c.recv:
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

// Close implements Conn. Closing either end closes the pipe.
func (c *chanConn) Close() error {
	select {
	case <-c.stop:
		return nil
	default:
		close(c.stop)
		return nil
	}
}

// Flat frame layout for the byte-stream transport:
//
//	type    uint8
//	control uint8
//	node    int32  (LE)
//	arg     int64  (LE)
//	count   uint32 (LE)   number of records
//	records count * trace.RecordSize bytes
//
// The stream transport sends data frames with records columnar instead
// (type frameColumnar, see columnar.go): the same header prefix
// followed by a bodyLen/crc extension and a column-encoded body.
const frameHeaderSize = 1 + 1 + 4 + 8 + 4

// maxFrameRecords bounds a frame to keep a malformed or hostile peer
// from forcing huge allocations.
const maxFrameRecords = 1 << 20

// encodeBuffer is a pooled scratch buffer for wire encode/decode, so
// the per-message frame allocation disappears from the hot path.
type encodeBuffer struct{ b []byte }

var encodePool = sync.Pool{New: func() any { return new(encodeBuffer) }}

func (e *encodeBuffer) sized(n int) []byte {
	if cap(e.b) < n {
		e.b = make([]byte, n)
	}
	return e.b[:n]
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice. The frame is encoded in place after a single slice
// grow — no per-record staging array, no per-record append — so the
// encode cost is one bounds-checked store sequence per record.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	if m.Type >= numMsgTypes {
		return buf, fmt.Errorf("tp: invalid message type %d", m.Type)
	}
	if len(m.Records) > maxFrameRecords {
		return buf, fmt.Errorf("tp: frame too large (%d records)", len(m.Records))
	}
	start := len(buf)
	need := frameHeaderSize + len(m.Records)*trace.RecordSize
	if cap(buf)-start < need {
		grown := make([]byte, start, start+need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+need]
	h := buf[start:]
	h[0] = byte(m.Type)
	h[1] = byte(m.Control)
	binary.LittleEndian.PutUint32(h[2:], uint32(m.Node))
	binary.LittleEndian.PutUint64(h[6:], uint64(m.Arg))
	binary.LittleEndian.PutUint32(h[14:], uint32(len(m.Records)))
	body := h[frameHeaderSize:]
	for i, r := range m.Records {
		trace.PutRecord(body[i*trace.RecordSize:], r)
	}
	return buf, nil
}

// WriteMessage encodes m onto w using a pooled frame buffer, then
// recycles m's record slice if it is pool-owned.
func WriteMessage(w io.Writer, m Message) error {
	eb := encodePool.Get().(*encodeBuffer)
	buf, err := AppendMessage(eb.b[:0], m)
	eb.b = buf[:0]
	if err == nil {
		_, err = w.Write(buf)
	}
	encodePool.Put(eb)
	Recycle(&m)
	return err
}

// ReadMessage decodes one message from r — flat or columnar framed.
// Record slices are drawn from the flow batch pool and marked Pooled,
// so pipeline consumers can recycle them once the records are copied
// out; callers that retain the records simply never recycle.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := readMessage(r)
	return m, err
}

// readMessage is ReadMessage plus the frame's encoded size, which the
// stream transport's byte counters need (a columnar frame's wire size
// is not derivable from the decoded record count).
func readMessage(r io.Reader) (Message, int, error) {
	// The header reads into the pooled scratch buffer too: a local
	// array would escape through the io.ReadFull interface call and
	// cost one heap allocation per message.
	eb := encodePool.Get().(*encodeBuffer)
	defer encodePool.Put(eb)
	h := eb.sized(frameHeaderSize)
	if _, err := io.ReadFull(r, h); err != nil {
		if err == io.EOF {
			return Message{}, 0, io.EOF
		}
		return Message{}, 0, fmt.Errorf("tp: truncated frame header: %w", err)
	}
	m := Message{
		Type:    MsgType(h[0]),
		Control: Control(h[1]),
		Node:    int32(binary.LittleEndian.Uint32(h[2:])),
		Arg:     int64(binary.LittleEndian.Uint64(h[6:])),
	}
	count := binary.LittleEndian.Uint32(h[14:])
	if count > maxFrameRecords {
		return Message{}, 0, fmt.Errorf("tp: oversized frame (%d records): %w", count, ErrCorruptFrame)
	}
	if h[0] == frameColumnar {
		if m.Control != CtlNone {
			return Message{}, 0, fmt.Errorf("tp: columnar frame with control %d: %w", m.Control, ErrCorruptFrame)
		}
		m.Type = MsgData
		m, bodyLen, err := readColumnarBody(r, eb, m, count)
		return m, frameHeaderSize + columnarExtSize + bodyLen, err
	}
	// Malformed header fields mean the byte stream desynchronized:
	// classify as ErrCorruptFrame so resilient readers abandon the
	// connection (and redial) instead of treating it as fatal.
	if m.Type >= numMsgTypes {
		return Message{}, 0, fmt.Errorf("tp: invalid message type %d: %w", m.Type, ErrCorruptFrame)
	}
	if m.Control >= numControls {
		return Message{}, 0, fmt.Errorf("tp: invalid control %d: %w", m.Control, ErrCorruptFrame)
	}
	if count > 0 {
		body := eb.sized(int(count) * trace.RecordSize)
		if _, err := io.ReadFull(r, body); err != nil {
			return Message{}, 0, fmt.Errorf("tp: truncated frame body: %w", err)
		}
		// Decode straight out of the pooled body buffer into a pooled
		// record batch — no per-record staging copy.
		rs := flow.GetBatch(int(count))[:count]
		for i := range rs {
			rs[i] = trace.GetRecord(body[i*trace.RecordSize:])
			if !rs[i].Kind.Valid() {
				flow.PutBatch(rs)
				return Message{}, 0, fmt.Errorf("tp: record %d has invalid kind: %w", i, ErrCorruptFrame)
			}
		}
		m.Records = rs
		m.Pooled = true
	}
	return m, frameHeaderSize + int(count)*trace.RecordSize, nil
}
