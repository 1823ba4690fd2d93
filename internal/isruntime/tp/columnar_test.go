package tp

import (
	"bytes"
	"errors"
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
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-3])); err == nil {
			t.Fatal("truncated frame decoded")
		}
	})
}

// startEchoServer accepts one conn and runs a Recv loop that counts
// data records and echoes a CtlAck per data message.
func startEchoServer(t *testing.T, opts ...ConnOption) (*Listener, chan Message) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0", opts...)
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

// drainAck consumes the echo server's per-batch ack on the client; the
// server's capability advert precedes it on the wire, so after this
// returns the client has negotiated columnar.
func drainAck(t *testing.T, c Conn) {
	t.Helper()
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgControl || m.Control != CtlAck {
		t.Fatalf("expected ack, got %+v", m)
	}
}

// TestColumnarNegotiation drives a live TCP conn through negotiation:
// before the peer advert is seen frames go flat, after it they go
// columnar, and the transferred records are identical either way.
func TestColumnarNegotiation(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// First send races the advert: either encoding is legal, but the
	// records must arrive intact.
	rs := colRecs(16)
	if err := client.Send(DataMessage(1, rs)); err != nil {
		t.Fatal(err)
	}
	m := recvData(t, got)
	if len(m.Records) != 16 || m.Records[3] != rs[3] {
		t.Fatalf("first batch mangled: %+v", m)
	}
	Recycle(&m)

	// Drain the ack so the advert (which precedes it) is processed.
	drainAck(t, client)
	if !ColumnarActive(client) {
		t.Fatal("advert consumed but columnar not active")
	}
	before := reg.Snapshot().Value("tp.bytes_tx")
	if err := client.Send(DataMessage(1, rs)); err != nil {
		t.Fatal(err)
	}
	m = recvData(t, got)
	if len(m.Records) != 16 || m.Records[7] != rs[7] {
		t.Fatalf("columnar batch mangled: %+v", m)
	}
	Recycle(&m)
	sent := reg.Snapshot().Value("tp.bytes_tx") - before
	if flat := float64(frameHeaderSize + 16*trace.RecordSize); sent >= flat/2 {
		t.Fatalf("negotiated frame took %v bytes, want well under flat %v", sent, flat)
	}
}

// TestColumnarFlatReceiver pins the mixed-version downgrade: a
// columnar-capable sender facing a receiver that never advertises
// (WireFlat) must keep every frame flat.
func TestColumnarFlatReceiver(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, got := startEchoServer(t, WithWireMode(WireFlat))
	client, err := Dial(ln.Addr(), WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := colRecs(8)
	for i := 0; i < 3; i++ {
		if err := client.Send(DataMessage(1, rs)); err != nil {
			t.Fatal(err)
		}
		m := recvData(t, got)
		if len(m.Records) != 8 {
			t.Fatalf("batch %d mangled", i)
		}
		Recycle(&m)
		time.Sleep(5 * time.Millisecond) // ample time for a (wrong) advert
	}
	if ColumnarActive(client) {
		t.Fatal("client negotiated columnar against a flat-only receiver")
	}
	want := 3 * float64(frameHeaderSize+8*trace.RecordSize)
	if got := reg.Snapshot().Value("tp.bytes_tx"); got != want {
		t.Fatalf("bytes_tx = %v, want flat %v", got, want)
	}
}

// TestFlatSenderColumnarReceiver pins the other direction: a WireFlat
// sender against a columnar-capable receiver stays flat and still
// interoperates.
func TestFlatSenderColumnarReceiver(t *testing.T) {
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithWireMode(WireFlat))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := colRecs(8)
	if err := client.Send(DataMessage(1, rs)); err != nil {
		t.Fatal(err)
	}
	m := recvData(t, got)
	if len(m.Records) != 8 || m.Records[2] != rs[2] {
		t.Fatalf("batch mangled: %+v", m)
	}
	Recycle(&m)
	if ColumnarActive(client) {
		t.Fatal("WireFlat client reports columnar active")
	}
}

// TestPreEncodedBodyOnFlatConn: a pre-encoded body handed to a
// connection that is flat by the time it frames the message (a session
// replaying its encoded window after a reconnect negotiated down) goes
// out as the flat frame of the same message — records decoded, session
// sequence in Arg kept, or the receiver cannot dedup the replay.
func TestPreEncodedBodyOnFlatConn(t *testing.T) {
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithWireMode(WireFlat))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rs := colRecs(8)
	var cc trace.ColumnCodec
	body, crc := EncodeColumnarBody(nil, rs, &cc)
	if err := client.Send(Message{Type: MsgData, Node: 1, Arg: 9, Enc: body, EncCount: len(rs), EncCRC: crc}); err != nil {
		t.Fatal(err)
	}
	m := recvData(t, got)
	if m.Arg != 9 || m.Node != 1 {
		t.Fatalf("flat fallback sent node %d arg %d, want 1 and 9", m.Node, m.Arg)
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
// columnar frames once negotiated.
func TestSendBatchColumnar(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, got := startEchoServer(t)
	client, err := Dial(ln.Addr(), WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(DataMessage(1, colRecs(4))); err != nil {
		t.Fatal(err)
	}
	first := recvData(t, got)
	Recycle(&first)
	drainAck(t, client)

	before := reg.Snapshot().Value("tp.bytes_tx")
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
	sent := reg.Snapshot().Value("tp.bytes_tx") - before
	if flat := float64(4 * (frameHeaderSize + 64*trace.RecordSize)); sent >= flat/4 {
		t.Fatalf("batch send took %v bytes, want well under flat %v", sent, flat)
	}
}

// TestParseWireMode is the table-driven flag-value check.
func TestParseWireMode(t *testing.T) {
	cases := []struct {
		in      string
		want    WireMode
		wantErr bool
	}{
		{"columnar", WireColumnar, false},
		{"flat", WireFlat, false},
		{"", WireColumnar, true},
		{"Columnar", WireColumnar, true},
		{"zstd", WireColumnar, true},
	}
	for _, c := range cases {
		got, err := ParseWireMode(c.in)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("ParseWireMode(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.wantErr)
		}
	}
}

// FuzzColumnarFrameDecode feeds arbitrary bytes through the columnar
// frame reader: decode must never panic, and a frame that decodes must
// re-encode to an equivalent record batch (parse / decode / re-encode
// round trip).
func FuzzColumnarFrameDecode(f *testing.F) {
	var cc trace.ColumnCodec
	seedRecs := colRecs(12)
	m := DataMessage(3, seedRecs)
	m.Arg = 1
	seed, _ := AppendColumnarMessage(nil, m, &cc)
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	mut := append([]byte(nil), seed...)
	mut[20] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if dec.Type != MsgData || len(dec.Records) == 0 {
			Recycle(&dec)
			return
		}
		var cc trace.ColumnCodec
		re, err := AppendColumnarMessage(nil, DataMessage(dec.Node, dec.Records), &cc)
		if err != nil {
			t.Fatalf("decoded frame failed re-encode: %v", err)
		}
		back, err := ReadMessage(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame failed decode: %v", err)
		}
		if len(back.Records) != len(dec.Records) {
			t.Fatalf("round trip count %d != %d", len(back.Records), len(dec.Records))
		}
		for i := range back.Records {
			if back.Records[i] != dec.Records[i] {
				t.Fatalf("record %d drifted: %+v != %+v", i, back.Records[i], dec.Records[i])
			}
		}
		Recycle(&back)
		Recycle(&dec)
	})
}
