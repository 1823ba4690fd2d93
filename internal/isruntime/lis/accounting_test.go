package lis

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
	"prism/internal/raceflag"
	"prism/internal/trace"
)

var errSendFailed = errors.New("send failed")

// failConn is a transport whose every Send fails after a short delay,
// so an async sender builds a backlog. It owns and recycles what it is
// given, as a real conn does.
type failConn struct{}

func (failConn) Send(m tp.Message) error {
	time.Sleep(50 * time.Microsecond)
	tp.Recycle(&m)
	return errSendFailed
}
func (failConn) Recv() (tp.Message, error) { select {} }
func (failConn) Close() error              { return nil }

// failBatchConn adds a failing SendBatch, the path the async sender
// takes when it coalesces a backlog.
type failBatchConn struct{ failConn }

func (c failBatchConn) SendBatch(ms []tp.Message) error {
	time.Sleep(50 * time.Microsecond)
	for i := range ms {
		tp.Recycle(&ms[i])
	}
	return errSendFailed
}

// TestBufferedFailedSendConservation checks that the records of a
// failed send are counted as dropped in sync mode and under every async
// policy, so that once the LIS is closed every captured record is
// forwarded, dropped or spilled, and none counts as forwarded.
func TestBufferedFailedSendConservation(t *testing.T) {
	const capacity, records = 4, 64
	cases := []struct {
		name   string
		policy flow.OverflowPolicy
		async  bool
	}{
		{name: "sync"},
		{name: "block", policy: flow.Block, async: true},
		{name: "drop-newest", policy: flow.DropNewest, async: true},
		{name: "drop-oldest", policy: flow.DropOldest, async: true},
		{name: "spill-to-storage", policy: flow.SpillToStorage, async: true},
	}
	for _, c := range cases {
		for _, conn := range []tp.Conn{failConn{}, failBatchConn{}} {
			_, batching := conn.(tp.BatchSender)
			name := c.name
			if batching {
				name += "/batch"
			}
			t.Run(name, func(t *testing.T) {
				var opts []Option
				if c.async {
					var spill flow.Spill
					if c.policy == flow.SpillToStorage {
						store, err := storage.NewTiered(storage.TieredConfig{})
						if err != nil {
							t.Fatal(err)
						}
						defer store.Close()
						spill = store
					}
					opts = append(opts, WithAsyncFlush(2, c.policy, spill))
				}
				b, err := NewBuffered(0, capacity, conn, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < records; i++ {
					b.Capture(rec(i))
				}
				_ = b.Close()
				st := b.Stats()
				if st.Captured != records || st.Forwarded != 0 {
					t.Fatalf("every send failed, yet %+v", st)
				}
				if st.Forwarded+st.Dropped+st.Spilled != st.Captured {
					t.Fatalf("records unaccounted: %+v", st)
				}
			})
		}
	}
}

// TestBufferedStatsExactBeforeFlush checks that Stats counts records
// still in the buffer, and that the registry shows them as occupancy
// rather than as captured until a flush cuts them.
func TestBufferedStatsExactBeforeFlush(t *testing.T) {
	reg := metrics.NewRegistry()
	conn := &collectConn{}
	b, err := NewBuffered(0, 8, conn, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b.Capture(rec(i))
	}
	if st := b.Stats(); st.Captured != 3 || st.Forwarded != 0 || st.Flushes != 0 {
		t.Fatalf("before flush: %+v", st)
	}
	snap := reg.Snapshot()
	if c, o := snap.Value("lis.node0.captured"), snap.Value("lis.node0.occupancy"); c != 0 || o != 3 {
		t.Fatalf("before flush: captured %g occupancy %g, want 0 and 3", c, o)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Capture(rec(3))
	if st := b.Stats(); st.Captured != 4 || st.Forwarded != 3 || st.Flushes != 1 {
		t.Fatalf("after flush: %+v", st)
	}
	snap = reg.Snapshot()
	if c, o := snap.Value("lis.node0.captured"), snap.Value("lis.node0.occupancy"); c != 3 || o != 1 {
		t.Fatalf("after flush: captured %g occupancy %g, want 3 and 1", c, o)
	}
}

// TestBufferedSnapshotDuringCapture takes registry snapshots while a
// goroutine captures: captured + occupancy may lag the records offered
// but never exceed them (a record moved from the buffer to the counter
// between the two reads must not count twice), and occupancy stays
// within the buffer's capacity.
func TestBufferedSnapshotDuringCapture(t *testing.T) {
	const capacity = 64
	reg := metrics.NewRegistry()
	b, err := NewBuffered(0, capacity, &recycleConnT{}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var offered atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			offered.Add(1)
			b.Capture(rec(i))
		}
	}()
	for offered.Load() == 0 {
		runtime.Gosched()
	}
	partial := 0
	for i := 0; i < 500 || offered.Load() < 100*capacity; i++ {
		snap := reg.Snapshot()
		bound := offered.Load()
		c, o := snap.Value("lis.node0.captured"), snap.Value("lis.node0.occupancy")
		if c+o > float64(bound) {
			t.Fatalf("snapshot %d: captured %g + occupancy %g > %d offered", i, c, o, bound)
		}
		if o < 0 || o > capacity {
			t.Fatalf("snapshot %d: occupancy %g outside [0, %d]", i, o, capacity)
		}
		if o > 0 {
			partial++
		}
	}
	stop.Store(true)
	wg.Wait()
	// On one P the capturer runs only between snapshots' scheduling
	// points, which need not fall inside a fill.
	if partial == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("no snapshot saw a partly filled buffer")
	}
	_ = b.Close()
	snap := reg.Snapshot()
	if c, o := snap.Value("lis.node0.captured"), snap.Value("lis.node0.occupancy"); c != float64(offered.Load()) || o != 0 {
		t.Fatalf("after Close: captured %g occupancy %g, want %d and 0", c, o, offered.Load())
	}
}

// TestBufferedCaptureAllocs checks that capture, flushes included, is
// allocation-free once the batch pool is warm.
func TestBufferedCaptureAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b, err := NewBuffered(0, 64, &recycleConnT{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := trace.Record{Kind: trace.KindUser}
	if n := testing.AllocsPerRun(1000, func() { b.Capture(r) }); n != 0 {
		t.Fatalf("Capture allocates %v per record", n)
	}
}
