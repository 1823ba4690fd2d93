package tp

// Columnar batch wire frames: the segment column codec
// (internal/trace, colcodec.go) applied to the transfer protocol. A
// flat data frame spends trace.RecordSize (36) bytes per record; the
// same record streams compress to a few bytes per record under the
// column encoders, and on the relay tier every record crosses two wire
// hops — so the wire format is where the codec pays twice.
//
// Frame layout (little-endian), alongside the flat layout in tp.go:
//
//	type    uint8  = frameColumnar (2)
//	control uint8  (always 0 — columnar frames carry data only; any
//	               other value is ErrCorruptFrame)
//	node    int32
//	arg     int64  (session batch sequence, as in flat frames)
//	count   uint32 (records in the batch; never zero)
//	bodyLen uint32 (encoded column bytes that follow)
//	crc     uint32 (crc32c of the body)
//	body    bodyLen bytes — the seven columns of trace.AppendColumns
//
// Every data frame a stream connection sends that carries records (or
// a pre-encoded Enc body) is columnar, from the first Send; controls
// and empty data frames stay flat. Receivers decode both kinds (a flat
// data frame shares the control frame's layout). There is no handshake:
// a peer that cannot decode columnar frames is not supported.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"prism/internal/isruntime/flow"
	"prism/internal/trace"
)

// frameColumnar is the wire type byte of a columnar data frame. It is
// deliberately outside the MsgType enum: on the wire it marks an
// alternate encoding of MsgData, and ReadMessage decodes it back to a
// plain data message.
const frameColumnar = 2

// columnarExtSize is the columnar frame's header extension past the
// shared frameHeaderSize prefix: bodyLen u32 + crc u32.
const columnarExtSize = 4 + 4

var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// ColumnarSender is implemented by connections that can report whether
// they frame data messages columnar: stream connections always do. The
// session layer uses it to decide whether to hold replay-window batches
// in encoded form.
type ColumnarSender interface {
	ColumnarActive() bool
}

// ColumnarActive reports whether c sends data frames columnar-encoded.
// Connections that carry a message as handed over (pipes) report false.
func ColumnarActive(c Conn) bool {
	cs, ok := c.(ColumnarSender)
	return ok && cs.ColumnarActive()
}

// EncodeColumnarBody appends the columnar body encoding of rs to dst,
// returning the extended slice and the body's crc32c. The session
// layer uses it to fill replay windows with the encoded form
// (Message.Enc/EncCount/EncCRC) so retransmits skip re-encoding.
func EncodeColumnarBody(dst []byte, rs []trace.Record, cc *trace.ColumnCodec) ([]byte, uint32) {
	start := len(dst)
	dst = cc.AppendColumns(dst, rs)
	return dst, crc32.Checksum(dst[start:], wireCRC)
}

// AppendColumnarMessage appends the columnar wire encoding of data
// message m to buf and returns the extended slice. A pre-encoded body
// (m.Enc) is framed verbatim; otherwise m.Records is encoded with cc.
// The message must carry at least one record — empty data frames and
// controls always travel flat.
func AppendColumnarMessage(buf []byte, m Message, cc *trace.ColumnCodec) ([]byte, error) {
	if m.Type != MsgData {
		return buf, fmt.Errorf("tp: columnar frame for non-data message type %d", m.Type)
	}
	count := len(m.Records)
	if m.Enc != nil {
		count = m.EncCount
	}
	if count == 0 {
		return buf, fmt.Errorf("tp: columnar frame with no records")
	}
	if count > maxFrameRecords {
		return buf, fmt.Errorf("tp: frame too large (%d records)", count)
	}
	buf = append(buf, frameColumnar, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Node))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Arg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	extOff := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // bodyLen, patched below
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc, patched below
	bodyStart := len(buf)
	var crc uint32
	if m.Enc != nil {
		buf = append(buf, m.Enc...)
		crc = m.EncCRC
	} else {
		buf = cc.AppendColumns(buf, m.Records)
		crc = crc32.Checksum(buf[bodyStart:], wireCRC)
	}
	binary.LittleEndian.PutUint32(buf[extOff:], uint32(len(buf)-bodyStart))
	binary.LittleEndian.PutUint32(buf[extOff+4:], crc)
	return buf, nil
}

// readColumnarBody finishes decoding a columnar frame whose shared
// header prefix (type/control/node/arg/count) is already parsed into
// m. It reads the header extension and body from r using the pooled
// scratch eb, verifies the checksum, and decodes straight into a
// pooled record batch, returning the body length read. Every
// structural failure is ErrCorruptFrame: the stream is desynchronized
// and the connection must be abandoned.
func readColumnarBody(r io.Reader, eb *encodeBuffer, m Message, count uint32) (Message, int, error) {
	if count == 0 {
		return Message{}, 0, fmt.Errorf("tp: columnar frame with no records: %w", ErrCorruptFrame)
	}
	ext := eb.sized(columnarExtSize)
	if _, err := io.ReadFull(r, ext); err != nil {
		return Message{}, 0, fmt.Errorf("tp: truncated columnar header: %w", err)
	}
	bodyLen := binary.LittleEndian.Uint32(ext)
	crc := binary.LittleEndian.Uint32(ext[4:])
	if bodyLen == 0 || int64(bodyLen) > int64(trace.MaxColumnsSize(int(count))) {
		return Message{}, 0, fmt.Errorf("tp: columnar body of %d bytes for %d records: %w", bodyLen, count, ErrCorruptFrame)
	}
	body := eb.sized(int(bodyLen))
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, 0, fmt.Errorf("tp: truncated columnar body: %w", err)
	}
	if got := crc32.Checksum(body, wireCRC); got != crc {
		return Message{}, 0, fmt.Errorf("tp: columnar body checksum mismatch: %w", ErrCorruptFrame)
	}
	rs := flow.GetBatch(int(count))[:count]
	if err := trace.DecodeColumns(body, rs); err != nil {
		flow.PutBatch(rs)
		return Message{}, 0, fmt.Errorf("tp: columnar body: %v: %w", err, ErrCorruptFrame)
	}
	m.Records = rs
	m.Pooled = true
	return m, int(bodyLen), nil
}
