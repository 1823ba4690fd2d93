package tp

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// colRecs builds a batch with realistic column structure: monotone
// times, constant node/process, few kinds, small tag deltas.
func colRecs(n int) []trace.Record {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.Record{
			Time: int64(1000 + 7*i), Logical: uint64(i),
			Node: 3, Process: 2,
			Kind: trace.KindUser, Tag: uint16(i % 5),
			Payload: int64(i * 11),
		}
	}
	return rs
}

// TestColumnarFrameRoundTrip checks the columnar wire frame end to
// end: AppendColumnarMessage bytes decode through ReadMessage into the
// original records, with node and sequence preserved.
func TestColumnarFrameRoundTrip(t *testing.T) {
	rs := colRecs(32)
	var cc trace.ColumnCodec
	m := DataMessage(7, rs)
	m.Arg = 42
	buf, err := AppendColumnarMessage(nil, m, &cc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(buf) - frameHeaderSize - columnarExtSize; got >= len(rs)*trace.RecordSize {
		t.Fatalf("columnar body %d bytes is not smaller than flat %d", got, len(rs)*trace.RecordSize)
	}
	dec, err := ReadMessage(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Type != MsgData || dec.Node != 7 || dec.Arg != 42 {
		t.Fatalf("header fields: %+v", dec)
	}
	if !dec.Pooled {
		t.Fatal("decoded records not marked pooled")
	}
	if len(dec.Records) != len(rs) {
		t.Fatalf("decoded %d records, want %d", len(dec.Records), len(rs))
	}
	for i := range rs {
		if dec.Records[i] != rs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, dec.Records[i], rs[i])
		}
	}
	Recycle(&dec)
}

// TestColumnarFrameFromEnc checks that a pre-encoded body (the session
// replay-window form) frames identically to encoding from records.
func TestColumnarFrameFromEnc(t *testing.T) {
	rs := colRecs(16)
	var cc trace.ColumnCodec
	direct := DataMessage(1, rs)
	direct.Arg = 9
	want, err := AppendColumnarMessage(nil, direct, &cc)
	if err != nil {
		t.Fatal(err)
	}
	body, crc := EncodeColumnarBody(nil, rs, &cc)
	pre := Message{Type: MsgData, Node: 1, Arg: 9, Enc: body, EncCount: len(rs), EncCRC: crc}
	got, err := AppendColumnarMessage(nil, pre, &cc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pre-encoded frame differs from direct encoding:\n got %x\nwant %x", got, want)
	}
}

// TestColumnarFrameCorruption flips, truncates and inflates columnar
// frames: every mutation must fail decode with a classified
// ErrCorruptFrame (or a truncation error) and never panic.
func TestColumnarFrameCorruption(t *testing.T) {
	rs := colRecs(8)
	var cc trace.ColumnCodec
	m := DataMessage(2, rs)
	m.Arg = 5
	frame, err := AppendColumnarMessage(nil, m, &cc)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("body-bit-flip", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0xff
		if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("crc-flip", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[frameHeaderSize+4] ^= 1
		if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("zero-count", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[14], bad[15], bad[16], bad[17] = 0, 0, 0, 0
		if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("absurd-bodylen", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[frameHeaderSize] = 0xff
		bad[frameHeaderSize+1] = 0xff
		bad[frameHeaderSize+2] = 0xff
		if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("invalid-kind", func(t *testing.T) {
		bad := colRecs(8)
		bad[5].Kind = 77
		buf, err := AppendColumnarMessage(nil, DataMessage(2, bad), &cc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadMessage(bytes.NewReader(buf))
		if !errors.Is(err, ErrCorruptFrame) || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("err = %v, want ErrCorruptFrame naming the kind column", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-3])); err == nil {
			t.Fatal("truncated frame decoded")
		}
	})
	t.Run("nonzero-control", func(t *testing.T) {
		for c := 1; c <= 0xff; c++ {
			bad := append([]byte(nil), frame...)
			bad[1] = byte(c)
			if _, err := ReadMessage(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("control %d: err = %v, want ErrCorruptFrame", c, err)
			}
		}
	})
}

// startEchoServer accepts one conn and runs a Recv loop that counts
// data records and echoes a CtlAck per data message.
func startEchoServer(t *testing.T) (*Listener, chan Message) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan Message, 64)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			got <- m
			if m.Type == MsgData {
				_ = conn.Send(ControlMessage(m.Node, CtlAck, m.Arg))
			}
		}
	}()
	return ln, got
}

// recvData pulls the next data message, failing on timeout.
func recvData(t *testing.T, got chan Message) Message {
	t.Helper()
	select {
	case m := <-got:
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("server never received")
		return Message{}
	}
}

// TestFirstFrameColumnar: the very first data frame after Dial — no
// Recv, no wait — is columnar, byte for byte the AppendColumnarMessage
// encoding, and arrives intact.
func TestFirstFrameColumnar(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := colRecs(16)
	var cc trace.ColumnCodec
	want, err := AppendColumnarMessage(nil, DataMessage(1, rs), &cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(DataMessage(1, rs)); err != nil {
		t.Fatal(err)
	}
	if sent := reg.Snapshot().Value("tp.bytes_tx"); sent != float64(len(want)) {
		t.Fatalf("first frame took %v bytes, want the columnar %d (flat is %d)",
			sent, len(want), frameHeaderSize+len(rs)*trace.RecordSize)
	}
	if !ColumnarActive(client) {
		t.Fatal("stream conn does not report columnar framing")
	}
	m := recvData(t, got)
	if len(m.Records) != len(rs) {
		t.Fatalf("got %d records, want %d", len(m.Records), len(rs))
	}
	for i := range rs {
		if m.Records[i] != rs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, m.Records[i], rs[i])
		}
	}
	Recycle(&m)
}

// TestFlatSenderColumnarReceiver: a flat data frame written raw onto
// the socket reaches a stream connection's reader with node, session
// sequence and records intact — receivers decode both frame kinds.
func TestFlatSenderColumnarReceiver(t *testing.T) {
	ln, got := startEchoServer(t)
	nc, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rs := colRecs(8)
	flat := DataMessage(1, rs)
	flat.Arg = 9
	if err := WriteMessage(nc, flat); err != nil {
		t.Fatal(err)
	}
	m := recvData(t, got)
	if m.Type != MsgData || m.Node != 1 || m.Arg != 9 {
		t.Fatalf("header fields: %+v", m)
	}
	if len(m.Records) != len(rs) {
		t.Fatalf("got %d records, want %d", len(m.Records), len(rs))
	}
	for i := range rs {
		if m.Records[i] != rs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, m.Records[i], rs[i])
		}
	}
	Recycle(&m)
}

// TestSendBatchColumnar checks the writev coalescing path ships
// columnar frames.
func TestSendBatchColumnar(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ms := make([]Message, 4)
	for i := range ms {
		ms[i] = DataMessage(1, colRecs(64))
		ms[i].Arg = int64(i)
	}
	if err := SendAll(client, ms); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 4; i++ {
		m := recvData(t, got)
		total += len(m.Records)
		Recycle(&m)
	}
	if total != 4*64 {
		t.Fatalf("received %d records, want %d", total, 4*64)
	}
	sent := reg.Snapshot().Value("tp.bytes_tx")
	if flat := float64(4 * (frameHeaderSize + 64*trace.RecordSize)); sent >= flat/4 {
		t.Fatalf("batch send took %v bytes, want well under flat %v", sent, flat)
	}
}

// FuzzReadMessage feeds arbitrary bytes through the frame reader as a
// stream: frames are read until the first error, and decode must never
// panic. Every frame that decodes re-encodes — columnar when it is data
// with records, flat otherwise, as the stream transport sends it — and
// decodes back to the same type, node, argument and records (and
// control signal, for control frames).
func FuzzReadMessage(f *testing.F) {
	var cc trace.ColumnCodec
	data := DataMessage(3, colRecs(12))
	data.Arg = 1
	var frames [][]byte
	for _, m := range []Message{
		ControlMessage(3, CtlHello, 4),
		ControlMessage(3, CtlAck, 7),
		ControlMessage(3, CtlHeartbeat, 0),
		DataMessage(3, nil),
		data,
	} {
		frame, err := AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	col, err := AppendColumnarMessage(nil, data, &cc)
	if err != nil {
		f.Fatal(err)
	}
	frames = append(frames, col)
	var all []byte
	for _, frame := range frames {
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, in []byte) {
		var cc trace.ColumnCodec
		r := bytes.NewReader(in)
		for {
			m, err := ReadMessage(r)
			if err != nil {
				return
			}
			var re []byte
			if m.Type == MsgData && len(m.Records) > 0 {
				re, err = AppendColumnarMessage(nil, m, &cc)
			} else {
				re, err = AppendMessage(nil, m)
			}
			if err != nil {
				t.Fatalf("decoded frame failed re-encode: %v", err)
			}
			back, err := ReadMessage(bytes.NewReader(re))
			if err != nil {
				t.Fatalf("re-encoded frame failed decode: %v", err)
			}
			if back.Type != m.Type || back.Node != m.Node || back.Arg != m.Arg {
				t.Fatalf("header drifted: %+v != %+v", back, m)
			}
			if m.Type == MsgControl && back.Control != m.Control {
				t.Fatalf("control drifted: %v != %v", back.Control, m.Control)
			}
			if len(back.Records) != len(m.Records) {
				t.Fatalf("round trip count %d != %d", len(back.Records), len(m.Records))
			}
			for i := range back.Records {
				if back.Records[i] != m.Records[i] {
					t.Fatalf("record %d drifted: %+v != %+v", i, back.Records[i], m.Records[i])
				}
			}
			Recycle(&back)
			Recycle(&m)
		}
	})
}
