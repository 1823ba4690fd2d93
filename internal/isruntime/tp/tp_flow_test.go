package tp

import (
	"io"
	"net"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// TestPipeSendAfterClose pins the send-after-close contract: ErrClosed
// on both ends, with a pooled payload recycled rather than leaked.
func TestPipeSendAfterClose(t *testing.T) {
	a, b := Pipe(2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	batch := flow.GetBatch(4)
	batch = append(batch, trace.Record{Kind: trace.KindUser})
	if err := a.Send(PooledDataMessage(0, batch)); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	// Both ends fail after either closes.
	if err := b.Send(DataMessage(0, nil)); err != ErrClosed {
		t.Fatalf("peer send after close = %v", err)
	}
}

func TestDialTimeout(t *testing.T) {
	// Success path against a live listener.
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		m, err := conn.Recv()
		if err == nil {
			_ = conn.Send(ControlMessage(m.Node, CtlAck, 0))
		}
		conn.Close()
	}()
	conn, err := DialTimeout(ln.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(DataMessage(1, recs(2))); err != nil {
		t.Fatal(err)
	}
	if ack, err := conn.Recv(); err != nil || ack.Control != CtlAck {
		t.Fatalf("ack %+v %v", ack, err)
	}

	// Failure path: nobody listens on a freshly released port.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if _, err := DialTimeout(addr, 250*time.Millisecond); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

// TestConnMetrics checks the transport's registry counters across a
// round trip.
func TestConnMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, err := Listen("127.0.0.1:0", tpOpt(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		m, err := conn.Recv()
		if err == nil {
			got <- m
		}
	}()
	client, err := Dial(ln.Addr(), WithConnMetrics(reg), WithWriteTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(DataMessage(0, recs(3))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("server never received")
	}
	var cc trace.ColumnCodec
	frame, err := AppendColumnarMessage(nil, DataMessage(0, recs(3)), &cc)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantBytes := float64(len(frame))
	if snap.Value("tp.msgs_sent") != 1 || snap.Value("tp.bytes_tx") != wantBytes {
		t.Fatalf("send metrics %+v", snap)
	}
	if snap.Value("tp.msgs_recv") != 1 || snap.Value("tp.bytes_rx") != wantBytes {
		t.Fatalf("recv metrics %+v", snap)
	}
	if snap.Value("tp.recs_tx") != 3 || snap.Value("tp.recs_rx") != 3 {
		t.Fatalf("record metrics %+v", snap)
	}
}

// tpOpt is a helper so the server side shares the registry.
func tpOpt(reg *metrics.Registry) ConnOption { return WithConnMetrics(reg) }

// TestPooledWireRoundTrip checks ownership across the wire: writing a
// pooled message recycles it, and reading marks the decoded records
// pooled for the downstream consumer.
func TestPooledWireRoundTrip(t *testing.T) {
	var buf writableBuffer
	batch := flow.GetBatch(4)
	for i := 0; i < 3; i++ {
		batch = append(batch, trace.Record{Kind: trace.KindUser, Tag: uint16(i)})
	}
	if err := WriteMessage(&buf, PooledDataMessage(2, batch)); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Pooled {
		t.Fatal("decoded records not marked pooled")
	}
	if len(m.Records) != 3 || m.Records[1].Tag != 1 {
		t.Fatalf("decoded %+v", m)
	}
	Recycle(&m)
}

// writableBuffer adapts a byte slice as an io.ReadWriter without the
// bytes.Buffer's internal growth heuristics getting in the way.
type writableBuffer struct {
	b []byte
}

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writableBuffer) Read(p []byte) (int, error) {
	if len(w.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, w.b)
	w.b = w.b[n:]
	return n, nil
}
