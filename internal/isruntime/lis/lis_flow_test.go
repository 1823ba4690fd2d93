package lis

import (
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
)

func TestPolicyStringUnknown(t *testing.T) {
	if got := Policy(7).String(); got != "policy(7)" {
		t.Fatalf("unknown policy renders %q", got)
	}
	if got := Policy(-1).String(); got != "policy(-1)" {
		t.Fatalf("negative policy renders %q", got)
	}
}

// TestBufferedConcurrentCaptureSlowConn stresses Capture from many
// goroutines while a slow connection stalls every flush — the flush
// path and the capture path race over the pooled buffers. Run with
// -race; conservation must hold.
func TestBufferedConcurrentCaptureSlowConn(t *testing.T) {
	conn := &slowConn{delay: 500 * time.Microsecond}
	b, err := NewBuffered(0, 8, conn)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const each = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Capture(rec(i))
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := conn.records(); got != writers*each {
		t.Fatalf("forwarded %d of %d", got, writers*each)
	}
	st := b.Stats()
	if st.Captured != writers*each || st.Forwarded != writers*each || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// blockableConn blocks every Send until released — a wedged transport.
// A Send that reaches the gate signals entered (when non-nil).
type blockableConn struct {
	collectConn
	gate    chan struct{}
	entered chan struct{}
}

func (c *blockableConn) Send(m tp.Message) error {
	if c.entered != nil {
		select {
		case c.entered <- struct{}{}:
		default:
		}
	}
	<-c.gate
	return c.collectConn.Send(m)
}

// TestAsyncFlushPolicies exercises every overflow policy on the
// buffered LIS's async pending stage while the transport is wedged,
// then releases the transport and checks the policy's accounting.
func TestAsyncFlushPolicies(t *testing.T) {
	const capacity = 4
	const pending = 2
	fill := func(b *Buffered, batches int) {
		for i := 0; i < batches*capacity; i++ {
			b.Capture(rec(i))
		}
	}
	wedged := func() *blockableConn {
		return &blockableConn{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	}
	// wedge flushes one batch and waits until the sender is blocked
	// sending it, so every later batch queues in the pending stage (the
	// sender would otherwise coalesce whatever it could pop first).
	wedge := func(b *Buffered, conn *blockableConn) {
		fill(b, 1)
		<-conn.entered
	}

	t.Run("drop-newest", func(t *testing.T) {
		conn := wedged()
		b, err := NewBuffered(0, capacity, conn,
			WithAsyncFlush(pending, flow.DropNewest, nil))
		if err != nil {
			t.Fatal(err)
		}
		wedge(b, conn)
		fill(b, 4) // pending holds 2, 2 batches dropped
		close(conn.gate)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Dropped == 0 {
			t.Fatalf("no drops under wedged conn: %+v", st)
		}
		if st.Forwarded+st.Dropped != st.Captured {
			t.Fatalf("records unaccounted: %+v", st)
		}
	})

	t.Run("drop-oldest", func(t *testing.T) {
		conn := wedged()
		b, err := NewBuffered(0, capacity, conn,
			WithAsyncFlush(pending, flow.DropOldest, nil))
		if err != nil {
			t.Fatal(err)
		}
		wedge(b, conn)
		fill(b, 4)
		close(conn.gate)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Dropped == 0 || st.Forwarded+st.Dropped != st.Captured {
			t.Fatalf("stats %+v", st)
		}
	})

	t.Run("spill-to-storage", func(t *testing.T) {
		store, err := storage.NewTiered(storage.TieredConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		conn := wedged()
		b, err := NewBuffered(0, capacity, conn,
			WithAsyncFlush(pending, flow.SpillToStorage, store))
		if err != nil {
			t.Fatal(err)
		}
		wedge(b, conn)
		fill(b, 4)
		close(conn.gate)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Spilled == 0 {
			t.Fatalf("nothing spilled: %+v", st)
		}
		if got := store.Stats().Appended; got != st.Spilled {
			t.Fatalf("store holds %d, LIS spilled %d", got, st.Spilled)
		}
		if st.Forwarded+st.Dropped+st.Spilled != st.Captured {
			t.Fatalf("records unaccounted: %+v", st)
		}
	})

	t.Run("block", func(t *testing.T) {
		conn := wedged()
		b, err := NewBuffered(0, capacity, conn,
			WithAsyncFlush(pending, flow.Block, nil))
		if err != nil {
			t.Fatal(err)
		}
		wedge(b, conn)
		done := make(chan struct{})
		go func() {
			fill(b, 4) // must stall once the pending stage fills
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("capture never blocked on wedged transport")
		case <-time.After(10 * time.Millisecond):
		}
		close(conn.gate)
		<-done
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Dropped != 0 || st.Forwarded != st.Captured {
			t.Fatalf("Block lost records: %+v", st)
		}
	})
}

func TestAsyncFlushValidation(t *testing.T) {
	if _, err := NewBuffered(0, 4, &collectConn{}, WithAsyncFlush(0, flow.Block, nil)); err == nil {
		t.Fatal("pending 0 accepted")
	}
	if _, err := NewBuffered(0, 4, &collectConn{}, WithAsyncFlush(2, flow.OverflowPolicy(9), nil)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// TestSharedRegistryAcrossLISes checks the metrics tentpole end to
// end at this layer: several LISes report into one registry under
// per-node scopes, and Stats() views agree with the snapshot.
func TestSharedRegistryAcrossLISes(t *testing.T) {
	reg := metrics.NewRegistry()
	connA, connB := &collectConn{}, &collectConn{}
	a, _ := NewBuffered(0, 4, connA, WithMetrics(reg))
	f, _ := NewForwarding(1, connB, WithMetrics(reg))
	for i := 0; i < 6; i++ {
		a.Capture(rec(i))
		f.Capture(rec(i))
	}
	_ = a.Close()
	_ = f.Close()
	snap := reg.Snapshot()
	if got := snap.Value("lis.node0.captured"); got != 6 {
		t.Fatalf("node0 captured %g", got)
	}
	if got := snap.Value("lis.node1.forwarded"); got != 6 {
		t.Fatalf("node1 forwarded %g", got)
	}
	if a.Metrics() != reg || f.Metrics() != reg {
		t.Fatal("Metrics() accessor")
	}
	if a.Stats().Captured != 6 || f.Stats().Forwarded != 6 {
		t.Fatal("Stats view disagrees with registry")
	}
}

// TestBufferedPooledFlushReuse checks that with a quiet conn the flush
// path recycles batches: after a flush's records are recycled by the
// consumer, the next flush reuses the same backing array.
func TestBufferedPooledFlushReuse(t *testing.T) {
	recycleConn := recycleConnT{}
	b, _ := NewBuffered(0, 4, &recycleConn)
	for i := 0; i < 16; i++ {
		b.Capture(rec(i))
	}
	_ = b.Close()
	if recycleConn.n != 16 {
		t.Fatalf("consumed %d", recycleConn.n)
	}
}

// recycleConnT consumes messages and recycles pooled batches, like the
// ISM does.
type recycleConnT struct {
	n int
}

func (c *recycleConnT) Send(m tp.Message) error {
	c.n += len(m.Records)
	tp.Recycle(&m)
	return nil
}
func (c *recycleConnT) Recv() (tp.Message, error) { select {} }
func (c *recycleConnT) Close() error              { return nil }
