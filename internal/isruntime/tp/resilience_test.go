package tp

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"prism/internal/trace"
)

// --- classification -------------------------------------------------

type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "deadline exceeded" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		in   error
		want error // sentinel errors.Is should match; nil = passthrough
	}{
		{"nil", nil, nil},
		{"eof passthrough", io.EOF, nil},
		{"net closed", net.ErrClosed, ErrConnClosed},
		{"closed pipe", io.ErrClosedPipe, ErrConnClosed},
		{"epipe", syscall.EPIPE, ErrConnClosed},
		{"econnreset", syscall.ECONNRESET, ErrConnClosed},
		{"half frame", io.ErrUnexpectedEOF, ErrConnClosed},
		{"net timeout", fakeTimeout{}, ErrTimeout},
		{"wrapped reset", fmt.Errorf("read: %w", syscall.ECONNRESET), ErrConnClosed},
	}
	for _, c := range cases {
		got := Classify(c.in)
		if c.want == nil {
			if got != c.in {
				t.Errorf("%s: Classify changed %v to %v", c.name, c.in, got)
			}
			continue
		}
		if !errors.Is(got, c.want) {
			t.Errorf("%s: Classify(%v) = %v, not Is(%v)", c.name, c.in, got, c.want)
		}
		// The original error must remain reachable through the wrap.
		if !errors.Is(got, c.in) && !errors.As(got, new(net.Error)) {
			t.Errorf("%s: underlying error lost: %v", c.name, got)
		}
		// Idempotent: re-classifying is a no-op.
		if again := Classify(got); again != got {
			t.Errorf("%s: Classify not idempotent", c.name)
		}
	}
	// Unrelated errors stay unclassified.
	odd := errors.New("protocol misuse")
	if got := Classify(odd); got != odd {
		t.Errorf("unrelated error rewritten: %v", got)
	}
}

func TestRetryable(t *testing.T) {
	if Retryable(nil) {
		t.Error("nil retryable")
	}
	if !Retryable(io.EOF) {
		t.Error("EOF must be retryable (peer restart)")
	}
	for _, e := range []error{ErrConnClosed, ErrTimeout, ErrCorruptFrame} {
		if !Retryable(e) || !Retryable(fmt.Errorf("op: %w", e)) {
			t.Errorf("%v must be retryable", e)
		}
	}
	if Retryable(ErrGiveUp) || Retryable(errors.New("bad call")) {
		t.Error("terminal errors must not be retryable")
	}
}

func TestErrClosedAliasesConnClosed(t *testing.T) {
	if ErrClosed != ErrConnClosed {
		t.Fatal("historical ErrClosed must alias ErrConnClosed")
	}
}

func TestStreamConnRecvClassification(t *testing.T) {
	// A read deadline firing surfaces as ErrTimeout.
	c1, c2 := net.Pipe()
	defer c2.Close()
	if err := c1.SetReadDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sc := NewStreamConn(c1)
	if _, err := sc.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("idle deadline: %v, want ErrTimeout", err)
	}
	// Reading our own closed connection surfaces as ErrConnClosed.
	_ = sc.Close()
	if _, err := sc.Recv(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("recv on closed conn: %v, want ErrConnClosed", err)
	}
}

// TestStreamConnStickyWriteFailure checks that a stream conn's first
// write failure fails every later send. SendBatch's writev bypasses
// bufio's sticky error, so a later send used to succeed after a
// timed-out partial write and append whole frames behind the torn one;
// the peer then failed with a columnar body checksum mismatch.
func TestStreamConnStickyWriteFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	defer peer.Close()
	c := NewStreamConn(nc, WithWriteTimeout(20*time.Millisecond))
	defer c.Close()
	bs := c.(BatchSender)

	rng := rand.New(rand.NewSource(1))
	batch := func() []Message {
		ms := make([]Message, 4)
		for i := range ms {
			rs := make([]trace.Record, 1024)
			for j := range rs {
				rs[j] = trace.Record{Node: int32(i), Kind: trace.KindUser,
					Time: int64(j), Logical: uint64(j), Payload: rng.Int63()}
			}
			ms[i] = DataMessage(int32(i), rs)
		}
		return ms
	}
	// The peer does not read yet: the socket buffers fill (a few MB on
	// loopback) and a writev times out part way.
	var first error
	for i := 0; i < 1000 && first == nil; i++ {
		first = bs.SendBatch(batch())
	}
	if !errors.Is(first, ErrTimeout) {
		t.Fatalf("stalled peer: SendBatch = %v, want ErrTimeout", first)
	}
	// The peer drains the backlog, so the socket would take more bytes;
	// the stream must still refuse them behind the torn frame.
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	time.Sleep(50 * time.Millisecond)
	small := []Message{DataMessage(0, recs(1)), DataMessage(1, recs(1))}
	if err := bs.SendBatch(small); err != first {
		t.Fatalf("SendBatch after a write failure = %v, want %v", err, first)
	}
	if err := c.Send(DataMessage(0, recs(1))); err != first {
		t.Fatalf("Send after a write failure = %v, want %v", err, first)
	}
}

// --- double close ---------------------------------------------------

func TestStreamConnDoubleClose(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	sc := NewStreamConn(c1)
	first := sc.Close()
	if second := sc.Close(); second != first {
		t.Fatalf("second Close = %v, want first result %v", second, first)
	}
}

func TestListenerDoubleClose(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	first := ln.Close()
	if second := ln.Close(); second != first {
		t.Fatalf("second Close = %v, want first result %v", second, first)
	}
	if first != nil {
		t.Fatalf("first Close failed: %v", first)
	}
}

// --- redial ---------------------------------------------------------

func TestRedialReconnects(t *testing.T) {
	var mu sync.Mutex
	var serverEnds []Conn
	dials := 0
	rd, err := NewRedial(RedialConfig{
		Dial: func() (Conn, error) {
			a, b := Pipe(8)
			mu.Lock()
			dials++
			serverEnds = append(serverEnds, b)
			mu.Unlock()
			return a, nil
		},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Send(DataMessage(0, nil)); err != nil {
		t.Fatal(err)
	}
	// Cut the connection: the failed Send surfaces its error (no
	// silent retransmit — replay is the session layer's job), and the
	// next operation heals by redialing.
	mu.Lock()
	first := serverEnds[0]
	mu.Unlock()
	_ = first.Close()
	if err := rd.Send(DataMessage(0, nil)); !Retryable(err) {
		t.Fatalf("send on dead conn: %v, want retryable", err)
	}
	if err := rd.Send(DataMessage(0, nil)); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
	mu.Lock()
	gotDials, second := dials, serverEnds[1]
	mu.Unlock()
	if gotDials != 2 || rd.Redials() != 1 {
		t.Fatalf("dials=%d redials=%d, want 2/1", gotDials, rd.Redials())
	}
	if m, err := second.Recv(); err != nil || m.Type != MsgData {
		t.Fatalf("fresh conn did not carry traffic: %v %v", m, err)
	}
	_ = rd.Close()
}

func TestRedialGivesUp(t *testing.T) {
	dials := 0
	rd, err := NewRedial(RedialConfig{
		Dial: func() (Conn, error) {
			dials++
			return nil, errors.New("refused")
		},
		Backoff: 10 * time.Millisecond,
		GiveUp:  50 * time.Millisecond,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Send(DataMessage(0, nil)); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("exhausted budget: %v, want ErrGiveUp", err)
	}
	// Nominal sleeps of 10, 20 and 40 ms: the third overruns 50 ms, so
	// the budget runs out at the third failed dial.
	if dials != 3 {
		t.Fatalf("dialed %d times before giving up, want 3", dials)
	}
	// Give-up is terminal: later operations fail the same way without
	// dialing again.
	if err := rd.Send(DataMessage(0, nil)); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("post-give-up send: %v, want ErrGiveUp", err)
	}
}

// TestRedialDialGivesUp: a Dial that reports ErrGiveUp ends the outage
// at its first attempt, with no backoff sleep and no budget to spend.
func TestRedialDialGivesUp(t *testing.T) {
	dials, sleeps := 0, 0
	rd, err := NewRedial(RedialConfig{
		Dial: func() (Conn, error) {
			dials++
			return nil, fmt.Errorf("%w: the peer has shut down", ErrGiveUp)
		},
		Backoff: 10 * time.Millisecond,
		Sleep:   func(time.Duration) { sleeps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Recv(); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Recv: %v, want ErrGiveUp", err)
	}
	if dials != 1 || sleeps != 0 {
		t.Fatalf("dialed %d times and slept %d, want 1 and 0", dials, sleeps)
	}
}

// TestRedialRejectsUnboundedGiveUp: downtime is counted in nominal
// backoff sleeps, so a give-up budget without a backoff would never run
// out and the Redial would dial back-to-back forever.
func TestRedialRejectsUnboundedGiveUp(t *testing.T) {
	_, err := NewRedial(RedialConfig{
		Dial:   func() (Conn, error) { return nil, errors.New("refused") },
		GiveUp: time.Second,
	})
	if err == nil {
		t.Fatal("GiveUp with zero Backoff accepted")
	}
	if !strings.Contains(err.Error(), "backoff") {
		t.Fatalf("error %q does not name the backoff", err)
	}
}

func TestRedialRecvAcrossReconnect(t *testing.T) {
	var mu sync.Mutex
	var ends []Conn
	end := func(i int) Conn {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(ends) {
			return nil
		}
		return ends[i]
	}
	rd, err := NewRedial(RedialConfig{
		Dial: func() (Conn, error) {
			a, b := Pipe(8)
			mu.Lock()
			ends = append(ends, b)
			mu.Unlock()
			return a, nil
		},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the first connection with one message, then kill it.
	done := make(chan Message, 2)
	go func() {
		for {
			m, err := rd.Recv()
			if err != nil {
				close(done)
				return
			}
			done <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	wait := func() Message {
		select {
		case m := <-done:
			return m
		case <-deadline:
			t.Fatal("Recv never delivered")
			return Message{}
		}
	}
	for end(0) == nil {
		time.Sleep(time.Millisecond)
	}
	_ = end(0).Send(ControlMessage(1, CtlAck, 7))
	if m := wait(); m.Arg != 7 {
		t.Fatalf("first conn message: %+v", m)
	}
	_ = end(0).Close()
	// Recv transparently continues on the re-established connection.
	for end(1) == nil {
		time.Sleep(time.Millisecond)
	}
	_ = end(1).Send(ControlMessage(1, CtlAck, 8))
	if m := wait(); m.Arg != 8 {
		t.Fatalf("second conn message: %+v", m)
	}
	_ = rd.Close()
	if _, ok := <-done; ok {
		t.Fatal("Recv loop did not terminate on Close")
	}
}

func TestRedialOnConnectRunsFirst(t *testing.T) {
	var mu sync.Mutex
	var srv Conn
	rd, err := NewRedial(RedialConfig{
		Dial: func() (Conn, error) {
			a, b := Pipe(8)
			mu.Lock()
			srv = b
			mu.Unlock()
			return a, nil
		},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	rd.SetOnConnect(func(raw Conn) error {
		return raw.Send(ControlMessage(3, CtlHello, 42))
	})
	if err := rd.Send(DataMessage(3, nil)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	server := srv
	mu.Unlock()
	// The hook's hello must precede the first data message.
	if m, err := server.Recv(); err != nil || m.Control != CtlHello || m.Arg != 42 {
		t.Fatalf("first message %+v %v, want hello(42)", m, err)
	}
	if m, err := server.Recv(); err != nil || m.Type != MsgData {
		t.Fatalf("second message %+v %v, want data", m, err)
	}
	_ = rd.Close()
}
