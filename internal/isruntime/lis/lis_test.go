package lis

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// collectConn is a tp.Conn that records everything sent on it.
type collectConn struct {
	mu   sync.Mutex
	msgs []tp.Message
}

func (c *collectConn) Send(m tp.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
	return nil
}
func (c *collectConn) Recv() (tp.Message, error) { select {} }
func (c *collectConn) Close() error              { return nil }

func (c *collectConn) messages() []tp.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tp.Message(nil), c.msgs...)
}

func (c *collectConn) records() int {
	n := 0
	for _, m := range c.messages() {
		n += len(m.Records)
	}
	return n
}

func rec(i int) trace.Record {
	return trace.Record{Node: 0, Kind: trace.KindUser, Tag: uint16(i)}
}

func TestBufferedValidation(t *testing.T) {
	if _, err := NewBuffered(0, 0, &collectConn{}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewBuffered(0, 4, nil); err == nil {
		t.Fatal("nil conn accepted")
	}
}

func TestBufferedFOFFlushOnFill(t *testing.T) {
	conn := &collectConn{}
	b, err := NewBuffered(2, 3, conn)
	if err != nil {
		t.Fatal(err)
	}
	if b.Node() != 2 || b.Capacity() != 3 {
		t.Fatal("accessors")
	}
	b.Capture(rec(0))
	b.Capture(rec(1))
	if len(conn.messages()) != 0 {
		t.Fatal("flushed before full")
	}
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
	b.Capture(rec(2)) // fills -> FOF flush
	msgs := conn.messages()
	if len(msgs) != 1 || len(msgs[0].Records) != 3 || msgs[0].Node != 2 {
		t.Fatalf("flush msg %+v", msgs)
	}
	if b.Len() != 0 {
		t.Fatalf("buffer not emptied: %d", b.Len())
	}
	st := b.Stats()
	if st.Captured != 3 || st.Forwarded != 3 || st.Flushes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBufferedManualFlushAndClose(t *testing.T) {
	conn := &collectConn{}
	b, _ := NewBuffered(0, 10, conn)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Flushes != 0 {
		t.Fatal("empty flush counted")
	}
	b.Capture(rec(1))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if conn.records() != 1 {
		t.Fatal("close did not flush")
	}
	b.Capture(rec(2)) // after close: dropped
	if st := b.Stats(); st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBufferedPreservesOrder(t *testing.T) {
	conn := &collectConn{}
	b, _ := NewBuffered(0, 4, conn)
	for i := 0; i < 8; i++ {
		b.Capture(rec(i))
	}
	msgs := conn.messages()
	if len(msgs) != 2 {
		t.Fatalf("flushes %d", len(msgs))
	}
	i := 0
	for _, m := range msgs {
		for _, r := range m.Records {
			if int(r.Tag) != i {
				t.Fatalf("order broken at %d: tag %d", i, r.Tag)
			}
			i++
		}
	}
}

func TestGangFAOFFlushesAll(t *testing.T) {
	connA, connB := &collectConn{}, &collectConn{}
	a, _ := NewBuffered(0, 3, connA)
	b, _ := NewBuffered(1, 3, connB)
	g := NewGang(a, b)

	// Partially fill b, then fill a: both must flush.
	b.Capture(rec(0))
	a.Capture(rec(0))
	a.Capture(rec(1))
	a.Capture(rec(2)) // fills a -> gang flush
	if got := connA.records(); got != 3 {
		t.Fatalf("a flushed %d records", got)
	}
	if got := connB.records(); got != 1 {
		t.Fatalf("b flushed %d records (gang flush missed member)", got)
	}
	if g.GangFlushes() != 1 {
		t.Fatalf("gang flushes %d", g.GangFlushes())
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatal("buffers not emptied")
	}
}

func TestGangFlushFrequencyLowerThanFOF(t *testing.T) {
	// With identical arrivals round-robin across P nodes, FAOF must
	// flush fewer times in total than FOF (the §3.1.3 conclusion).
	const P = 4
	const capacity = 8
	const events = 800

	// FOF.
	fofConns := make([]*collectConn, P)
	fof := make([]*Buffered, P)
	for i := range fof {
		fofConns[i] = &collectConn{}
		fof[i], _ = NewBuffered(int32(i), capacity, fofConns[i])
	}
	for e := 0; e < events; e++ {
		fof[e%P].Capture(rec(e))
	}
	var fofFlushes uint64
	for _, l := range fof {
		fofFlushes += l.Stats().Flushes
	}

	// FAOF.
	faofConns := make([]*collectConn, P)
	faof := make([]*Buffered, P)
	for i := range faof {
		faofConns[i] = &collectConn{}
		faof[i], _ = NewBuffered(int32(i), capacity, faofConns[i])
	}
	g := NewGang(faof...)
	for e := 0; e < events; e++ {
		faof[e%P].Capture(rec(e))
	}
	if g.GangFlushes() >= fofFlushes {
		t.Fatalf("gang sweeps %d not below FOF flushes %d", g.GangFlushes(), fofFlushes)
	}
	// No data lost under either policy (modulo tail still buffered).
	var faofRecords int
	for _, c := range faofConns {
		faofRecords += c.records()
	}
	var tail int
	for _, l := range faof {
		tail += l.Len()
	}
	if faofRecords+tail != events {
		t.Fatalf("FAOF lost records: %d forwarded + %d buffered != %d", faofRecords, tail, events)
	}
}

func TestBufferedConcurrentCapture(t *testing.T) {
	conn := &collectConn{}
	b, _ := NewBuffered(0, 16, conn)
	var wg sync.WaitGroup
	const writers = 8
	const each = 400
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
	_ = b.Flush()
	if got := conn.records(); got != writers*each {
		t.Fatalf("forwarded %d of %d", got, writers*each)
	}
}

// yieldConn is a collectConn whose Send yields before it records the
// message, so concurrent flushes race to the wire.
type yieldConn struct{ collectConn }

func (c *yieldConn) Send(m tp.Message) error {
	runtime.Gosched()
	return c.collectConn.Send(m)
}

// TestBufferedSendsInCaptureOrder: with several processes capturing
// into one buffered LIS, each process's records reach the wire in
// capture order. A manager that adopts a source at its first record
// (ResumeSources) relies on it: a later flush overtaking an earlier one
// would make the earlier records look like duplicates.
func TestBufferedSendsInCaptureOrder(t *testing.T) {
	conn := &yieldConn{}
	b, _ := NewBuffered(0, 4, conn)
	const procs, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Capture(trace.Record{Process: p, Kind: trace.KindUser, Logical: uint64(i)})
			}
		}(int32(p))
	}
	wg.Wait()
	_ = b.Flush()
	var next [procs]uint64
	for _, m := range conn.messages() {
		for _, r := range m.Records {
			if r.Logical != next[r.Process] {
				t.Fatalf("process %d: record %d reached the wire when %d was due", r.Process, r.Logical, next[r.Process])
			}
			next[r.Process]++
		}
	}
	for p, n := range next {
		if n != each {
			t.Fatalf("process %d: %d of %d records forwarded", p, n, each)
		}
	}
}

func TestForwardingLIS(t *testing.T) {
	conn := &collectConn{}
	f, err := NewForwarding(7, conn)
	if err != nil {
		t.Fatal(err)
	}
	f.Capture(rec(0))
	f.Capture(rec(1))
	msgs := conn.messages()
	if len(msgs) != 2 {
		t.Fatalf("forwarding batched: %d msgs", len(msgs))
	}
	for _, m := range msgs {
		if len(m.Records) != 1 || m.Node != 7 {
			t.Fatalf("msg %+v", m)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Captured != 2 || st.Forwarded != 2 {
		t.Fatalf("stats %+v", st)
	}
	_ = f.Close()
	f.Capture(rec(2))
	if st := f.Stats(); st.Dropped != 1 {
		t.Fatalf("closed forwarding accepted data: %+v", st)
	}
	if _, err := NewForwarding(0, nil); err == nil {
		t.Fatal("nil conn accepted")
	}
}

func TestDaemonValidation(t *testing.T) {
	if _, err := NewDaemon(0, nil, 4, 4); err == nil {
		t.Fatal("nil conn")
	}
	if _, err := NewDaemon(0, &collectConn{}, 0, 4); err == nil {
		t.Fatal("pipe cap 0")
	}
	if _, err := NewDaemon(0, &collectConn{}, 4, 0); err == nil {
		t.Fatal("batch 0")
	}
}

func TestDaemonForwardsSamples(t *testing.T) {
	conn := &collectConn{}
	d, err := NewDaemon(1, conn, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachProcess(0)
	d.AttachProcess(1)
	const n = 200
	for i := 0; i < n; i++ {
		d.Capture(trace.Record{Process: int32(i % 2), Kind: trace.KindSample, Tag: 1, Payload: int64(i)})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := conn.records(); got != n {
		t.Fatalf("forwarded %d of %d", got, n)
	}
	st := d.Stats()
	if st.Captured != n || st.Forwarded != n {
		t.Fatalf("stats %+v", st)
	}
}

func TestDaemonDropsUnattachedProcess(t *testing.T) {
	conn := &collectConn{}
	d, _ := NewDaemon(0, conn, 4, 4)
	d.Capture(trace.Record{Process: 42})
	if st := d.Stats(); st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
	_ = d.Close()
}

func TestDaemonAttachIdempotent(t *testing.T) {
	conn := &collectConn{}
	d, _ := NewDaemon(0, conn, 4, 4)
	p1 := d.AttachProcess(3)
	p2 := d.AttachProcess(3)
	if p1 != p2 {
		t.Fatal("re-attach created a second pipe")
	}
	_ = d.Close()
}

// slowConn delays each send, forcing the daemon to fall behind so
// producer pipes fill and Capture blocks — the §3.2.3 effect.
type slowConn struct {
	collectConn
	delay time.Duration
}

func (c *slowConn) Send(m tp.Message) error {
	time.Sleep(c.delay)
	return c.collectConn.Send(m)
}

func TestDaemonBlockingUnderLoad(t *testing.T) {
	conn := &slowConn{delay: 2 * time.Millisecond}
	d, _ := NewDaemon(0, conn, 2, 1) // tiny pipes, no batching
	d.AttachProcess(0)
	const n = 30
	start := time.Now()
	for i := 0; i < n; i++ {
		d.Capture(trace.Record{Process: 0, Kind: trace.KindSample})
	}
	elapsed := time.Since(start)
	_ = d.Close()
	blocked, blockers := d.BlockedTime()
	if blockers == 0 {
		t.Fatal("no captures blocked despite slow daemon")
	}
	if blocked <= 0 || blocked > elapsed+time.Second {
		t.Fatalf("blocked time implausible: %v of %v", blocked, elapsed)
	}
	if got := conn.records(); got != n {
		t.Fatalf("daemon lost records: %d of %d", got, n)
	}
}

func TestDaemonPause(t *testing.T) {
	conn := &collectConn{}
	d, _ := NewDaemon(0, conn, 8, 4)
	d.AttachProcess(0)
	d.Pause(true)
	d.Capture(trace.Record{Process: 0, Kind: trace.KindSample})
	if st := d.Stats(); st.Dropped != 1 || st.Captured != 0 {
		t.Fatalf("paused stats %+v", st)
	}
	d.Pause(false)
	d.Capture(trace.Record{Process: 0, Kind: trace.KindSample})
	_ = d.Close()
	if st := d.Stats(); st.Captured != 1 || st.Forwarded != 1 {
		t.Fatalf("resumed stats %+v", st)
	}
}

func TestPolicyString(t *testing.T) {
	if FOF.String() != "FOF" || FAOF.String() != "FAOF" {
		t.Fatal("policy names")
	}
}
