package env

// Steering across a mid-run disconnect: the §2.2.3 control loop only
// steers correctly if the sample stream it smooths is neither lossy
// nor duplicated, so this test runs a SteeringTool behind the full
// resilient pipeline — session/replay sender, reconnecting transport,
// ISM-side dedup — kills the connection mid-run, and asserts the
// steering state machine ends exactly where an undisturbed run would.

import (
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSteeringSurvivesMidRunDisconnect(t *testing.T) {
	var clock event.VirtualClock
	m := ism.New(ism.Config{Buffering: ism.SISO}, &clock)
	defer m.Close()
	e := New(m)
	st, err := NewSteeringTool(7, 80, 20, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("steer", st); err != nil {
		t.Fatal(err)
	}

	// ISM.Serve runs the session receiver: it acks the session and
	// dedupes its replays.
	serveCh := make(chan tp.Conn, 8)
	dispatchDone := make(chan struct{})
	go func() {
		defer close(dispatchDone)
		for c := range serveCh {
			m.Serve(c)
		}
	}()

	// Each dial is a fresh in-process pipe whose server end the ISM
	// serves; lastSrv lets the test cut the live connection.
	var mu sync.Mutex
	var lastSrv tp.Conn
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			a, b := tp.Pipe(128)
			mu.Lock()
			lastSrv = b
			mu.Unlock()
			serveCh <- b
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := fault.NewSession(5, rd, fault.SessionConfig{})
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			if _, err := sess.Recv(); err != nil {
				return
			}
		}
	}()

	sent := 0
	send := func(vals ...int64) {
		t.Helper()
		for _, v := range vals {
			r := trace.Record{Node: 5, Kind: trace.KindSample, Tag: 7, Payload: v,
				Logical: uint64(sent)}
			if err := sess.Send(tp.DataMessage(5, []trace.Record{r})); err != nil {
				t.Fatalf("send: %v", err)
			}
			sent++
		}
	}

	// Drive the smoothed metric over the high watermark: engage.
	send(100, 100, 100)
	waitUntil(t, "steering to engage", func() bool { return st.Engaged(5) })

	// Network fault mid-run: cut the live connection under the sender.
	mu.Lock()
	_ = lastSrv.Close()
	mu.Unlock()

	// Keep steering through the outage: the session absorbs the send
	// failure, redials, replays, and the receiver dedupes — so the
	// EWMA sees each sample exactly once, in order, and the tool
	// disengages exactly as it would on a healthy connection.
	send(0, 0, 0, 0, 0, 0)
	waitUntil(t, "window to drain", func() bool {
		if sess.Pending() == 0 {
			return true
		}
		_ = sess.Resend()
		return false
	})
	waitUntil(t, "all records dispatched", func() bool {
		return int(m.Stats().Dispatched) == sent
	})
	m.Drain()

	if st.Engaged(5) {
		t.Fatal("steering still engaged after low samples crossed the watermark")
	}
	if got := st.Actions(); got != 2 {
		t.Fatalf("steering actions = %d, want exactly 2 (engage, release) despite disconnect", got)
	}
	if got := int(m.Stats().Dispatched); got != sent {
		t.Fatalf("ISM dispatched %d records, want exactly %d (no loss, no dups)", got, sent)
	}
	if rd.Redials() == 0 {
		t.Fatal("disconnect never exercised the redial path")
	}
	if hellos := m.Metrics().Snapshot().Value("session.hellos"); hellos < 2 {
		t.Fatalf("session.hellos = %v, want one per connection (at least 2)", hellos)
	}

	_ = sess.Close()
	<-ackDone
	close(serveCh)
	<-dispatchDone
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}
