// Package lis implements Local Instrumentation Servers: "the LIS
// captures instrumentation data of interest from the concurrent
// application processes and forwards the data to other IS modules ...
// Typically, the LIS uses local buffers and a management policy to
// accomplish data capturing and forwarding functions" (§2.2.1).
//
// Three LIS families cover the paper's case studies:
//
//   - Buffered: PICL-style instrumentation-library LIS with local
//     trace buffers and the FOF / FAOF flush policies of §3.1;
//   - Daemon: Paradyn-style per-node daemon that drains bounded pipes
//     filled by application processes (§3.2);
//   - Forwarding: Vista-style bufferless event forwarding, "only one
//     system call per event" (§3.3).
//
// All three are built on the shared flow core: batches travel through
// the flow batch pool (no per-flush allocation), bounded stages apply
// flow.OverflowPolicy uniformly, and every activity counter lives in a
// metrics.Registry (lis.node<N>.captured, .forwarded, .flushes,
// .dropped, .spilled), of which the legacy Stats() snapshot is a thin
// view. A buffered LIS counts captured records per flush, not per
// record, and exports its fill as the read-time gauge
// lis.node<N>.occupancy, so capturing a record costs one lock and no
// metric write.
package lis

import (
	"errors"
	"fmt"
	"sync"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Policy names a buffered-LIS flush policy.
type Policy int

// Flush policies for the Buffered LIS.
const (
	// FOF flushes one buffer when it fills (§3.1: "Flush One buffer
	// when it Fills").
	FOF Policy = iota
	// FAOF flushes all buffers when one fills ("Flush All the
	// buffers when One Fills"); requires a Gang coordinator.
	FAOF
	numPolicies
)

// String returns the policy mnemonic, or policy(N) for unknown values.
func (p Policy) String() string {
	switch p {
	case FOF:
		return "FOF"
	case FAOF:
		return "FAOF"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Stats summarizes a LIS's activity. It is a point-in-time view over
// the LIS's metrics registry. A captured record is forwarded, dropped,
// spilled, still buffered or pending in an async sender, so a closed
// LIS has Captured = Forwarded + Dropped + Spilled, except that Dropped
// also counts the records refused while paused or closed, which were
// never captured.
type Stats struct {
	Captured  uint64 // records accepted from sensors
	Forwarded uint64 // records sent to the ISM
	Flushes   uint64 // flush operations performed
	Dropped   uint64 // records dropped (capture disabled, overflow policy or failed send)
	Spilled   uint64 // records demoted to the spill target (SpillToStorage)
}

// LIS is the common surface of all local instrumentation servers.
type LIS interface {
	event.Sink
	// Flush forces any buffered data to the ISM.
	Flush() error
	// Stats returns a snapshot of activity counters.
	Stats() Stats
	// Close flushes and releases the LIS.
	Close() error
}

// Option configures a LIS at construction time.
type Option func(*options)

type options struct {
	registry *metrics.Registry
	pending  int
	overflow flow.OverflowPolicy
	spill    flow.Spill
	async    bool
}

// WithMetrics reports the LIS's activity through the given registry
// under the lis.node<N> scope. Without it each LIS keeps a private
// registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.registry = reg }
}

// WithAsyncFlush decouples capture from transfer: flushed batches are
// handed to a bounded pending stage (depth pending) drained by a
// sender goroutine, and the overflow policy governs what happens when
// the connection cannot keep up — Block applies backpressure to the
// capturing goroutine, DropNewest/DropOldest shed batches, and
// SpillToStorage demotes the displaced batch to spill. Without this
// option flushes run synchronously on the capturing goroutine (the
// paper's direct-flush perturbation).
func WithAsyncFlush(pending int, policy flow.OverflowPolicy, spill flow.Spill) Option {
	return func(o *options) {
		o.async = true
		o.pending = pending
		o.overflow = policy
		o.spill = spill
	}
}

// lisCounters is the metric set every LIS family reports.
type lisCounters struct {
	captured  *metrics.Counter
	forwarded *metrics.Counter
	flushes   *metrics.Counter
	dropped   *metrics.Counter
	spilled   *metrics.Counter
	scope     metrics.Scope
}

func newLISCounters(node int32, reg *metrics.Registry) lisCounters {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := reg.Scope(fmt.Sprintf("lis.node%d", node))
	return lisCounters{
		captured:  s.Counter("captured"),
		forwarded: s.Counter("forwarded"),
		flushes:   s.Counter("flushes"),
		dropped:   s.Counter("dropped"),
		spilled:   s.Counter("spilled"),
		scope:     s,
	}
}

// sent accounts n records handed to the connection: forwarded when the
// send succeeded, dropped when it failed.
func (c lisCounters) sent(n uint64, err error) {
	if err != nil {
		c.dropped.Add(n)
		return
	}
	c.forwarded.Add(n)
}

func (c lisCounters) stats() Stats {
	return Stats{
		Captured:  c.captured.Value(),
		Forwarded: c.forwarded.Value(),
		Flushes:   c.flushes.Value(),
		Dropped:   c.dropped.Value(),
		Spilled:   c.spilled.Value(),
	}
}

// Buffered is the PICL-style LIS: a fixed-capacity local record buffer
// flushed to the ISM as one data message. The zero value is not
// usable; construct with NewBuffered.
type Buffered struct {
	node     int32
	capacity int
	conn     tp.Conn
	onFull   func(*Buffered) // policy hook; nil means flush self (FOF)
	ctr      lisCounters

	// flushMu orders flushes: a batch is cut from the buffer and handed
	// on under it, so batches reach the wire in the order they were
	// cut and every source's records stay in capture order.
	flushMu sync.Mutex
	// mu guards the buffer; ctr.captured counts the records of every
	// batch cut from it and is advanced under mu, so captured plus
	// len(buf) read under mu is the exact capture count.
	mu      sync.Mutex
	buf     []trace.Record
	stopped bool

	// Async-flush mode (WithAsyncFlush): full batches queue here and
	// the sender goroutine drains them to the conn.
	pending    *flow.Queue[flow.Batch]
	senderDone chan struct{}
}

// NewBuffered creates a buffered LIS for node with the given local
// buffer capacity (the paper's l), forwarding over conn. The returned
// LIS implements the FOF policy; attach it to a Gang for FAOF.
func NewBuffered(node int32, capacity int, conn tp.Conn, opts ...Option) (*Buffered, error) {
	if capacity < 1 {
		return nil, errors.New("lis: buffer capacity must be >= 1")
	}
	if conn == nil {
		return nil, errors.New("lis: nil connection")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	b := &Buffered{
		node:     node,
		capacity: capacity,
		conn:     conn,
		ctr:      newLISCounters(node, o.registry),
	}
	b.buf = flow.GetBatch(capacity)
	b.ctr.scope.GaugeFunc("occupancy", func() int64 { return int64(b.Len()) })
	if o.async {
		if o.pending < 1 {
			return nil, errors.New("lis: async pending depth must be >= 1")
		}
		var spill func(flow.Batch) error
		if o.spill != nil {
			sp := o.spill
			spilled := b.ctr.spilled
			spill = func(batch flow.Batch) error {
				err := sp.Append(batch...)
				if err == nil {
					spilled.Add(uint64(len(batch)))
					flow.PutBatch(batch)
				}
				return err
			}
		}
		q, err := flow.NewQueue[flow.Batch](o.pending, o.overflow, spill)
		if err != nil {
			return nil, err
		}
		dropped := b.ctr.dropped
		q.OnDrop(func(batch flow.Batch) {
			dropped.Add(uint64(len(batch)))
			flow.PutBatch(batch)
		})
		b.pending = q
		b.senderDone = make(chan struct{})
		go b.sender()
	}
	return b, nil
}

// senderBurst caps how many pending batches one send coalesces, so a
// deep backlog still yields the connection periodically.
const senderBurst = 32

// sender drains pending batches to the connection (async mode). When a
// backlog has built up behind a slow connection, the queued batches are
// coalesced into a single SendBatch — one writev on a TCP transport —
// instead of paying a flush round-trip per batch; a conn without
// SendBatch gets one Send per batch. The conn takes ownership of every
// pooled batch.
func (b *Buffered) sender() {
	defer close(b.senderDone)
	msgs := make([]tp.Message, 0, senderBurst)
	bs, batching := b.conn.(tp.BatchSender)
	for {
		batch, ok := b.pending.PopWait()
		if !ok {
			return
		}
		msgs = append(msgs[:0], tp.PooledDataMessage(b.node, batch))
		total := uint64(len(batch))
		for len(msgs) < senderBurst {
			more, ok := b.pending.TryPop()
			if !ok {
				break
			}
			total += uint64(len(more))
			msgs = append(msgs, tp.PooledDataMessage(b.node, more))
		}
		if batching && len(msgs) > 1 {
			b.ctr.sent(total, bs.SendBatch(msgs))
			continue
		}
		for _, m := range msgs {
			n := uint64(len(m.Records))
			b.ctr.sent(n, b.conn.Send(m))
		}
	}
}

// Node returns the node id this LIS serves.
func (b *Buffered) Node() int32 { return b.node }

// Capacity returns the local buffer capacity l.
func (b *Buffered) Capacity() int { return b.capacity }

// Metrics returns the registry this LIS reports through.
func (b *Buffered) Metrics() *metrics.Registry { return b.ctr.scope.Registry() }

// Capture implements event.Sink. When the buffer reaches capacity the
// policy hook runs: plain FOF flushes this buffer; under a Gang the
// coordinator flushes every member (FAOF). A record costs one lock and
// no metric write: Flush counts the batch it cuts.
func (b *Buffered) Capture(r trace.Record) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.ctr.dropped.Inc()
		return
	}
	b.buf = append(b.buf, r)
	full := len(b.buf) >= b.capacity
	onFull := b.onFull
	b.mu.Unlock()

	if !full {
		return
	}
	if onFull != nil {
		onFull(b)
		return
	}
	_ = b.Flush()
}

// Len returns the current buffer occupancy.
func (b *Buffered) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Flush sends the buffered records to the ISM as one data message.
// An empty buffer is a no-op (and not counted as a flush). In async
// mode the batch is enqueued for the sender goroutine and the overflow
// policy applies when the pending stage is full. The records of a
// failed send are counted as dropped.
func (b *Buffered) Flush() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	if len(b.buf) == 0 {
		b.mu.Unlock()
		return nil
	}
	batch := b.buf
	b.buf = flow.GetBatch(b.capacity)
	b.ctr.captured.Add(uint64(len(batch)))
	conn := b.conn
	b.mu.Unlock()
	b.ctr.flushes.Inc()

	if b.pending != nil {
		b.pending.Push(batch) // drops/spills are accounted by the hooks
		return nil
	}
	n := uint64(len(batch))
	err := conn.Send(tp.PooledDataMessage(b.node, batch))
	b.ctr.sent(n, err)
	return err
}

// Stats implements LIS. Captured includes the records still in the
// buffer.
func (b *Buffered) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.ctr.stats()
	st.Captured += uint64(len(b.buf))
	return st
}

// Close flushes remaining records and marks the LIS stopped. The
// connection is left open for the caller to close (it may be shared).
func (b *Buffered) Close() error {
	err := b.Flush()
	b.mu.Lock()
	alreadyStopped := b.stopped
	b.stopped = true
	b.mu.Unlock()
	if b.pending != nil && !alreadyStopped {
		b.pending.Close()
		<-b.senderDone
	}
	return err
}

// Gang coordinates the FAOF policy across the buffered LISes of all
// nodes: when any member fills, every member flushes. This is the
// gang-scheduled context-switch flush the paper attributes to Pablo on
// the CM-5 and ParAide's TAM on the Paragon (§3.1.3).
type Gang struct {
	mu      sync.Mutex
	members []*Buffered
	flushes uint64
}

// NewGang wires the members together under FAOF and returns the
// coordinator.
func NewGang(members ...*Buffered) *Gang {
	g := &Gang{members: members}
	for _, m := range members {
		m.mu.Lock()
		m.onFull = func(*Buffered) { g.FlushAll() }
		m.mu.Unlock()
	}
	return g
}

// FlushAll flushes every member buffer. Concurrent triggers are
// serialized; a member that filled while another flush was in flight
// is simply flushed by the next sweep.
func (g *Gang) FlushAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushes++
	for _, m := range g.members {
		_ = m.Flush()
	}
}

// GangFlushes returns the number of gang flush sweeps performed.
func (g *Gang) GangFlushes() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushes
}

// Forwarding is the Vista-style LIS: no local buffer, every event is
// sent to the ISM immediately ("event forwarding involves only one
// system call per event", §3.3).
type Forwarding struct {
	node int32
	conn tp.Conn
	ctr  lisCounters

	mu      sync.Mutex
	stopped bool
}

// NewForwarding creates a forwarding LIS.
func NewForwarding(node int32, conn tp.Conn, opts ...Option) (*Forwarding, error) {
	if conn == nil {
		return nil, errors.New("lis: nil connection")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Forwarding{
		node: node, conn: conn,
		ctr: newLISCounters(node, o.registry),
	}, nil
}

// Metrics returns the registry this LIS reports through.
func (f *Forwarding) Metrics() *metrics.Registry { return f.ctr.scope.Registry() }

// Capture implements event.Sink.
func (f *Forwarding) Capture(r trace.Record) {
	f.mu.Lock()
	stopped := f.stopped
	f.mu.Unlock()
	if stopped {
		f.ctr.dropped.Inc()
		return
	}
	f.ctr.captured.Inc()
	f.ctr.forwarded.Inc()
	batch := append(flow.GetBatch(1), r)
	_ = f.conn.Send(tp.PooledDataMessage(f.node, batch))
}

// Flush implements LIS; a forwarding LIS holds nothing back.
func (f *Forwarding) Flush() error { return nil }

// Stats implements LIS.
func (f *Forwarding) Stats() Stats { return f.ctr.stats() }

// Close implements LIS.
func (f *Forwarding) Close() error {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	return nil
}
