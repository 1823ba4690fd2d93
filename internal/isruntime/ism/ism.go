// Package ism implements the Instrumentation System Manager: "the LIS
// forwards instrumentation data from the concurrent system nodes to a
// logically centralized location called the Instrumentation System
// Manager, which manages the data in real-time. The functions of the
// ISM include temporary buffering of data, storing of data on a
// mass-storage device, and pre-processing of data for analysis and/or
// visualization tools (e.g., causal ordering)." (§2.2.2)
//
// The manager supports the two input-buffer configurations the Vista
// case study evaluates (§3.3.2): SISO (single input buffer shared by
// all sources) and MISO (one input buffer per source), a pluggable
// data processor performing causal ordering with logical timestamps,
// dispatch to subscribed tools, and optional spooling to a trace
// segment stream for off-line use.
//
// Data moves in units of one LIS flush. Inject establishes ownership
// once: from there every batch is pool-owned, each stage that retires
// one recycles it, and each sink (SubscribeBatch) receives every
// dispatched batch whole.
//
// Ingest is sharded: each shard lane owns an input stage and a
// trace.Sequencer restoring per-source program order, and hands its
// ordered sub-stream through a bounded merge lane to one merger
// goroutine (flow.Merger, configured in merge.go) that k-way merges
// the lanes on their ingest-tick frontiers and runs each batch through
// the dispatch tail the relay shares (flow.Tail): causal ordering,
// spool, tools. No lock is taken on the record hot path.
//
// Every served connection runs through the session receiver
// (fault.Receiver) before the input stage, as at the relay: resilient
// LIS sessions are acked and their replays deduplicated, while plain
// unsequenced traffic passes untouched.
//
// Serve and Close keep the relay's contract: a stream ends when its
// sender hangs up. Close refuses new connections, closes the served
// ones and waits for their readers, which inject whatever the
// connection still holds, and only then closes the input stages; so a
// record a sender queued before Close is dispatched, never acked and
// dropped. A byte stream loses what its kernel buffers hold when the
// manager closes it, so an orderly stop over TCP broadcasts
// CtlShutdown and waits for the LISes to hang up (WaitHangup) first.
//
// The input stage is a bounded flow.Queue with a pluggable overflow
// policy (Config.Overflow); activity is reported through an
// ism-scoped metrics.Registry of which Stats() is a snapshot view.
package ism

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Buffering selects the ISM input-buffer configuration.
type Buffering int

// Input-buffer configurations of §3.3.2.
const (
	// SISO uses a single input buffer for all sources ("Single
	// Input buffer, Single Output buffer").
	SISO Buffering = iota
	// MISO uses one input buffer per source ("Multiple Input
	// buffers, Single Output buffer"), the Falcon arrangement.
	MISO
)

// String returns the configuration mnemonic.
func (b Buffering) String() string {
	if b == SISO {
		return "SISO"
	}
	return "MISO"
}

// Config parameterizes an ISM.
type Config struct {
	// Buffering selects SISO or MISO input buffers.
	Buffering Buffering
	// InputCapacity bounds each input buffer in queued batch
	// envelopes (the unit of transfer is one LIS flush, not one
	// record). Zero means a generous default.
	InputCapacity int
	// Shards fans ingest out across N lanes, each with its own input
	// stage, sequencer and drain goroutine, with source-affinity
	// hashing: a given node always lands in the same shard, so
	// per-source FIFO order — the causal orderer's contract — is
	// preserved, while independent sources decode, stage and sequence
	// in parallel. The lanes' ordered sub-streams are k-way merged by
	// a dedicated merger goroutine before dispatch. Zero or one keeps
	// a single lane.
	Shards int
	// MergeRingCapacity bounds each lane's SPSC hand-off ring to the
	// merger, in batch slots (rounded up to a power of two). A full
	// ring backpressures the lane, which in turn backpressures the
	// input stage under its overflow policy. Zero means a generous
	// default.
	MergeRingCapacity int
	// Overflow selects what the input stage does when a buffer is
	// full. The zero value, flow.DropOldest, keeps the monitoring
	// default: displace stale backlog to admit fresh data. Block
	// applies backpressure to the LIS readers; SpillToStorage demotes
	// the displaced records to OverflowSpill.
	Overflow flow.OverflowPolicy
	// OverflowSpill receives records displaced under SpillToStorage
	// (e.g. an isruntime/storage.Tiered).
	OverflowSpill flow.Spill
	// Metrics, when non-nil, is the registry the ISM reports through
	// (under the "ism" scope). Nil gets a private registry.
	Metrics *metrics.Registry
	// Spool, when non-nil, receives every dispatched record as a trace
	// segment stream (the off-line storage path of Figure 2). It is
	// flushed only by Close, so its bytes depend on the dispatched
	// records alone, not on how dispatch batched them.
	Spool io.Writer
	// Ordered enables the causal-ordering data processor. When
	// false, records are dispatched in arrival order (a pure
	// merge-only off-line ISM, as in the PICL Table 1 spec).
	Ordered bool
	// DeferCausal keeps the per-shard sequencers (program order per
	// source is restored exactly as under Ordered) but skips the
	// cross-source causal merge: dispatched records are restamped with
	// fresh per-source uplink sequence numbers in Logical (contiguous
	// from 0 per source) instead of Lamport timestamps. This is the
	// leaf half of the federated tier — a leaf's sends may pair with
	// receives captured on other leaves, so send/recv matching must
	// wait for the root relay; the restamp hands the relay's per-lane
	// sequencers the same per-source contract the LIS capture sequence
	// gives this manager, surviving dedup and resume adoption (the
	// restamped stream is always contiguous even when the input was
	// not). Ignored unless Ordered. New panics on MISO: its round-robin
	// pop reorders records across sources, so the uplink watermark,
	// which needs dispatch nondecreasing in capture Time, could overclaim.
	DeferCausal bool
	// ResumeSources makes the ordered processor adopt a source's
	// first-seen capture sequence as its start instead of holding for
	// sequence zero — required when this manager can (re)start against
	// LIS nodes already mid-stream (the resilient session replays only
	// the unacked suffix; the prefix died with the previous
	// incarnation). Needs an in-order per-source feed starting at the
	// source's first unseen record: the session protocol provides it,
	// and so does any one-connection-per-node transport in order from
	// sequence zero, on which adoption changes nothing. Ignored unless
	// Ordered.
	ResumeSources bool
}

// Stats is a snapshot of ISM activity and performance, read from the
// ISM's metrics registry.
type Stats struct {
	Arrived       uint64  // records received from LISes
	Dispatched    uint64  // records dispatched: spooled and handed to the tools
	OutOfOrder    uint64  // arrivals that had to be held back
	Held          int     // currently held records
	MaxHeld       int     // maximum simultaneously held records
	HoldBackRatio float64 // OutOfOrder / Arrived (Falcon's metric, §3.3.2)
	MeanLatencyNs float64 // mean arrival->dispatch latency
	MaxLatencyNs  int64
	ControlsSeen  uint64 // control messages processed
	// InputDropped counts records lost to input-stage overflow.
	InputDropped uint64
	// InputSpilled counts records demoted to OverflowSpill.
	InputSpilled uint64
	// MergeStalls counts merger waits imposed by the frontier rule.
	MergeStalls uint64
}

// batchEnv is the unit flowing through the input stage: one data
// message's records (a whole LIS flush) plus its arrival timestamp and
// the global ingest tick the merger orders lanes by. The slice is
// pool-owned from Inject on — pooled injections transfer ownership
// zero-copy, unpooled ones are copied into a pooled batch — and
// whichever stage retires it (a drop, a spill, the sequencer's repair
// copy or dispatch) recycles it.
type batchEnv struct {
	node    int32
	recs    []trace.Record
	arrival int64
	tick    uint64
}

// ismCounters is the metric set the manager reports under the "ism"
// scope.
type ismCounters struct {
	arrived      *metrics.Counter
	dispatched   *metrics.Counter
	outOfOrder   *metrics.Counter
	controlsSeen *metrics.Counter
	held         *metrics.Gauge
	maxHeld      *metrics.Gauge
	latency      *metrics.Histogram
	reg          *metrics.Registry
}

func newISMCounters(reg *metrics.Registry) ismCounters {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := reg.Scope("ism")
	return ismCounters{
		arrived:      s.Counter("arrived"),
		dispatched:   s.Counter("dispatched"),
		outOfOrder:   s.Counter("out_of_order"),
		controlsSeen: s.Counter("controls_seen"),
		held:         s.Gauge("held"),
		maxHeld:      s.Gauge("max_held"),
		latency:      s.Histogram("latency_ns"),
		reg:          reg,
	}
}

// orderBook is what one ordering stage (a lane's sequencer, the tail's
// causal merger) last published. The held gauge and the out-of-order
// counter sum all stages, so each publishes deltas.
type orderBook struct {
	held       int
	outOfOrder uint64
}

func (b *orderBook) publish(c *ismCounters, h int, o uint64) {
	if o != b.outOfOrder {
		c.outOfOrder.Add(o - b.outOfOrder)
		b.outOfOrder = o
	}
	if h != b.held {
		c.held.Add(int64(h - b.held))
		b.held = h
		c.maxHeld.SetMax(c.held.Value())
	}
}

// ismShard is one ingest lane: an input stage drained by its own
// goroutine, a per-lane sequencer restoring program order for the
// sources hashed to it, and a merge lane handing the ordered
// sub-stream to the merger. Source-affinity hashing keeps each node's
// batches in one lane, so per-source FIFO order survives the fan-out.
type ismShard struct {
	id    int
	input inputStage
	avail chan struct{}

	seq   *trace.Sequencer // nil unless Ordered
	order orderBook        // what seq last published

	lane *mergeLane

	// pushedBatches counts batches bound for this lane, raised before
	// the batch's tick is drawn; settledBatches counts batches that
	// left the lane (sequenced, dropped or spilled). Equality means no
	// tick is outstanding — the merger's drained-lane test.
	pushedBatches  atomic.Uint64
	settledBatches atomic.Uint64
	// frontier is the highest tick the lane has finished sequencing
	// (monotone watermark).
	frontier atomic.Uint64

	lagGauge *metrics.Gauge
}

func (s *ismShard) signal() {
	select {
	case s.avail <- struct{}{}:
	default:
	}
}

// maxTick raises an atomic tick watermark monotonically.
func maxTick(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ISM is a running instrumentation system manager. Create with New,
// feed it by serving LIS connections (Serve) or direct injection
// (Inject), and consume via SubscribeBatch or the spool.
type ISM struct {
	cfg   Config
	clock event.Clock
	ctr   ismCounters
	recv  *fault.Receiver

	shards []*ismShard
	merge  *merger
	tail   *flow.Tail    // merger goroutine; Subscribe from anywhere
	tick   atomic.Uint64 // global ingest tick, drawn per batch
	stop   chan struct{}
	runWG  sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	lisConns  []tp.Conn      // served connections whose reader still runs
	serveWG   sync.WaitGroup // one per reader
	flushAcks chan struct{}
}

// New creates and starts an ISM. It panics on an invalid overflow
// policy or DeferCausal with MISO (configuration, not runtime, errors).
func New(cfg Config, clock event.Clock) *ISM {
	if cfg.InputCapacity <= 0 {
		cfg.InputCapacity = 1 << 16
	}
	if cfg.MergeRingCapacity <= 0 {
		cfg.MergeRingCapacity = 256
	}
	if !cfg.Overflow.Valid() {
		panic(fmt.Sprintf("ism: invalid overflow policy %v", cfg.Overflow))
	}
	if cfg.Ordered && cfg.DeferCausal && cfg.Buffering == MISO {
		panic("ism: DeferCausal needs SISO buffering: MISO reorders records across sources")
	}
	if clock == nil {
		clock = event.NewRealClock()
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	m := &ISM{
		cfg:   cfg,
		clock: clock,
		ctr:   newISMCounters(cfg.Metrics),
		stop:  make(chan struct{}),
	}
	m.recv = fault.NewReceiver(fault.ReceiverConfig{Clock: clock, Metrics: m.ctr.reg})
	scope := m.ctr.reg.Scope("ism")
	m.tail = flow.NewTail(cfg.Ordered && !cfg.DeferCausal, cfg.Spool, m.ctr.dispatched, scope.Counter("spool_errors"))
	m.merge = newMerger(m)
	m.shards = make([]*ismShard, shards)
	for i := range m.shards {
		sh := &ismShard{id: i, avail: make(chan struct{}, 1)}
		// Dropped and spilled batches still settle, or the merger would
		// wait forever for their ticks. They advance the frontier too:
		// a lane absorbing a stream of drops (a lossy policy under
		// overload, or late injections against a closing stage) must
		// clear the frontier rule by watermark, not only by the drained
		// check — the drained check alone livelocks while drops are in
		// flight. Lossy policies carry no cross-lane determinism
		// contract, so the overshoot is harmless.
		settle := func(e batchEnv) {
			maxTick(&sh.frontier, e.tick)
			sh.settledBatches.Add(1)
			m.merge.Signal()
		}
		if cfg.Buffering == SISO {
			sh.input = newSISOStage(cfg.InputCapacity, cfg.Overflow, cfg.OverflowSpill, settle)
		} else {
			sh.input = newMISOStage(cfg.InputCapacity, cfg.Overflow, cfg.OverflowSpill, settle)
		}
		if cfg.Ordered {
			sh.seq = trace.NewSequencer()
			if cfg.ResumeSources {
				sh.seq.Resume()
			}
		}
		ss := scope.Scope(fmt.Sprintf("shard%d", i))
		sh.lagGauge = ss.Gauge("frontier_lag")
		sh.lane = m.merge.NewLane(ss)
		m.merge.Attach(sh.lane, sh)
		m.shards[i] = sh
	}
	// Effective configuration, exposed so sweep results stay
	// attributable from a metrics snapshot alone.
	scope.Gauge("shards").Set(int64(shards))
	scope.Gauge("merge_ring_capacity").Set(int64(m.MergeRingCap()))
	m.merge.Start()
	m.runWG.Add(len(m.shards))
	for _, s := range m.shards {
		go m.runShard(s)
	}
	return m
}

// shardFor maps a source node to its ingest shard. The multiplicative
// hash spreads adjacent node ids across shards while keeping the
// mapping stable — the source-affinity invariant per-source FIFO
// depends on.
func (m *ISM) shardFor(node int32) *ismShard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	h := uint32(node) * 2654435761 // Knuth multiplicative hash
	return m.shards[h%uint32(len(m.shards))]
}

// Metrics returns the registry the ISM reports through.
func (m *ISM) Metrics() *metrics.Registry { return m.ctr.reg }

// SubscribeBatch registers a tool sink with the dispatch tail: fn gets
// every batch dispatched from now on whole, in causal (or arrival)
// order, on the merger goroutine. The ISM recycles the slice after the
// call, so sinks that keep records must copy. The name labels the sink
// for the caller's benefit.
func (m *ISM) SubscribeBatch(name string, fn func([]trace.Record)) {
	m.tail.Subscribe(fn)
}

// Serve reads messages from a LIS connection until EOF, feeding the
// input stage. It returns immediately; readers run on their own
// goroutines. Broadcast and GangFlush reach the connection until its
// reader exits, which closes and forgets it. The session layer
// (hello/ack/dedup) is interposed automatically: sequenced batches
// from a fault.Session are acked on receipt and their replays
// absorbed, and the session's hellos and heartbeats never reach
// Inject. After Close, Serve refuses the connection and reads nothing.
func (m *ISM) Serve(conn tp.Conn) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.lisConns = append(m.lisConns, conn)
	m.serveWG.Add(1)
	m.mu.Unlock()
	go func() {
		defer func() {
			m.mu.Lock()
			m.lisConns = slices.DeleteFunc(m.lisConns, func(c tp.Conn) bool { return c == conn })
			m.mu.Unlock()
			_ = conn.Close()
			m.serveWG.Done()
		}()
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if m.recv.Filter(conn, msg) {
				continue
			}
			m.Inject(msg)
		}
	}()
}

// Degraded reports LIS nodes not heard from within the silence budget.
func (m *ISM) Degraded(silence time.Duration) []int32 {
	return m.recv.Degraded(silence)
}

// Broadcast sends a control signal to every served LIS connection —
// the ISM-to-LIS control path of Figure 2 (e.g. CtlFlush for a gang
// flush, CtlShutdown for orderly termination).
func (m *ISM) Broadcast(ctl tp.Control, arg int64) {
	m.mu.Lock()
	conns := append([]tp.Conn(nil), m.lisConns...)
	m.mu.Unlock()
	for _, c := range conns {
		_ = c.Send(tp.ControlMessage(-1, ctl, arg))
	}
}

// GangFlush broadcasts CtlFlush to every served LIS and waits (up to
// timeout) for each connection to acknowledge with CtlFlushDone — the
// ISM-coordinated FAOF sweep over the transfer protocol. It returns
// the number of acknowledgements received.
func (m *ISM) GangFlush(timeout time.Duration) int {
	m.mu.Lock()
	want := len(m.lisConns)
	m.flushAcks = make(chan struct{}, want)
	m.mu.Unlock()
	m.Broadcast(tp.CtlFlush, 0)
	got := 0
	deadline := time.After(timeout)
	for got < want {
		select {
		case <-m.flushAcks:
			got++
		case <-deadline:
			return got
		}
	}
	return got
}

// Inject feeds one message directly into the ISM (used by in-process
// deployments and tests). Pooled data messages transfer their record
// slice into the input stage zero-copy — the ISM takes over the
// batch's ownership chain and recycles after dispatch. Unpooled
// messages are copied into a pooled batch, so the caller retains its
// slice either way.
func (m *ISM) Inject(msg tp.Message) {
	switch msg.Type {
	case tp.MsgControl:
		m.ctr.controlsSeen.Inc()
		m.mu.Lock()
		acks := m.flushAcks
		m.mu.Unlock()
		if msg.Control == tp.CtlFlushDone && acks != nil {
			select {
			case acks <- struct{}{}:
			default:
			}
		}
	case tp.MsgData:
		n := len(msg.Records)
		if n == 0 {
			tp.Recycle(&msg)
			return
		}
		s := m.shardFor(msg.Node)
		// The batch must be visible in pushedBatches before its tick
		// is drawn: the merger reads settled==pushed as "no tick
		// outstanding", which must imply no smaller tick is still in
		// flight toward this lane.
		s.pushedBatches.Add(1)
		env := batchEnv{
			node:    msg.Node,
			arrival: m.clock.Now(),
			tick:    m.tick.Add(1),
		}
		if msg.Pooled {
			env.recs = msg.Records
			msg.Records, msg.Pooled = nil, false // ownership moved
		} else {
			env.recs = flow.GetBatch(n)[:n]
			copy(env.recs, msg.Records)
		}
		s.input.push(msg.Node, env)
		s.signal()
	}
}

// runShard drains one ingest lane through its sequencer into the
// merge ring.
func (m *ISM) runShard(s *ismShard) {
	defer m.runWG.Done()
	// The stage is drained and the ring holds the lane's final
	// contents: any still-unsettled push is a drop on the closed stage
	// whose tick postdates every ring slot. Without the exit the
	// shutdown race livelocks — injectors hammering a closing ISM keep
	// an in-flight push outstanding at every settled-count read, the
	// frontier never clears, and a sibling lane parked on a full ring is
	// never refilled.
	defer s.lane.Exit()
	for {
		env, ok := s.input.pop()
		if !ok {
			select {
			case <-s.avail:
				continue
			case <-m.stop:
				// Final drain.
				for {
					env, ok := s.input.pop()
					if !ok {
						return
					}
					m.sequenceBatch(s, env)
				}
			}
		}
		m.sequenceBatch(s, env)
	}
}

// sequenceBatch runs one batch envelope through the lane's sequencer
// and hands the program-ordered releases to the merger as one ring
// slot. The whole batch is sequenced in one pass — one ring push, one
// frontier update and, only for a batch that arrived out of order, one
// batch-pool round trip per LIS flush instead of per record. A full
// ring parks the lane on the space signal, which backpressures the
// input stage under its overflow policy.
func (m *ISM) sequenceBatch(s *ismShard, env batchEnv) {
	m.ctr.arrived.Add(uint64(len(env.recs)))
	out := env.recs
	if s.seq != nil {
		// The sensor carried the capture sequence in Logical, and the
		// merger overwrites Logical on dispatch (a Lamport stamp, or the
		// uplink sequence). An in-order batch is its own release and
		// moves on as it is; only one that needs repair is copied.
		var inPlace bool
		out, inPlace = s.seq.AddBatch(env.recs, flow.GetBatch)
		if !inPlace {
			flow.PutBatch(env.recs)
		}
		s.order.publish(&m.ctr, s.seq.Held(), s.seq.OutOfOrder())
	}
	if len(out) > 0 {
		s.lane.Push(mergeSlot{tick: env.tick, arrival: env.arrival, recs: out})
	} else {
		flow.PutBatch(out)
	}
	// Settle order matters: the frontier must cover the tick before
	// the batch counts as settled, and the batch settles after its ring
	// push, so Drain's settled watermark implies the push is visible.
	maxTick(&s.frontier, env.tick)
	s.settledBatches.Add(1)
	m.merge.Signal()
}

// ShardCount reports the effective number of ingest lanes.
func (m *ISM) ShardCount() int { return len(m.shards) }

// MergeRingCap reports the effective per-lane merge ring capacity
// after the power-of-two rounding the ring applies.
func (m *ISM) MergeRingCap() int { return m.shards[0].lane.Cap() }

// Stats returns a snapshot of ISM statistics — a view over the
// metrics registry plus input-stage accounting.
func (m *ISM) Stats() Stats {
	st := Stats{
		Arrived:       m.ctr.arrived.Value(),
		Dispatched:    m.ctr.dispatched.Value(),
		OutOfOrder:    m.ctr.outOfOrder.Value(),
		Held:          int(m.ctr.held.Value()),
		MaxHeld:       int(m.ctr.maxHeld.Value()),
		MeanLatencyNs: m.ctr.latency.Mean(),
		MaxLatencyNs:  m.ctr.latency.Max(),
		ControlsSeen:  m.ctr.controlsSeen.Value(),
		InputDropped:  m.stageDropped(),
		InputSpilled:  m.stageSpilled(),
		MergeStalls:   m.merge.stalls.Value(),
	}
	if st.Arrived > 0 {
		st.HoldBackRatio = float64(st.OutOfOrder) / float64(st.Arrived)
	}
	return st
}

// stageDropped sums record-granular overflow losses across shards.
func (m *ISM) stageDropped() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.input.dropped()
	}
	return n
}

// stageSpilled sums records demoted to spill storage across shards.
func (m *ISM) stageSpilled() uint64 {
	var n uint64
	for _, s := range m.shards {
		n += s.input.spilled()
	}
	return n
}

// Drain blocks until every record injected so far has been processed
// and merged. It is a test and shutdown aid; production tools consume
// the live stream. Records injected concurrently with Drain may or may
// not be covered.
func (m *ISM) Drain() {
	// Every batch pushed toward a lane settles exactly once, sequenced
	// or displaced by input-stage overflow (dropped or spilled), so the
	// lanes' batch ledger alone tells when the input stages are through.
	target := make([]uint64, len(m.shards))
	for i, s := range m.shards {
		target[i] = s.pushedBatches.Load()
	}
	for i, s := range m.shards {
		for s.settledBatches.Load() < target[i] {
			s.signal()
			time.Sleep(50 * time.Microsecond)
		}
	}
	// Sequenced records sit in the merge rings until the merger consumes
	// them; every lane pushes its slot before the batch settles, so the
	// rings' pushed watermark is final once the loop above exits.
	m.merge.WaitConsumed(time.Time{})
}

// Close closes every served connection and waits for its reader to
// inject what the connection still holds (a tp.Pipe reader drains its
// queue before EOF), then stops the lanes after draining buffered
// input, lets the merger drain the rings, flushes the spool, and
// returns the first spool failure, if any. Serve refuses connections
// from here on.
func (m *ISM) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := append([]tp.Conn(nil), m.lisConns...)
	m.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	m.serveWG.Wait()
	// The input stages must close BEFORE the lanes stop: an Inject racing
	// Close has already raised its lane's pushed count, and if its stage
	// push landed after that lane's final drain the batch would never
	// settle — the merger would then stall forever on settled < pushed
	// while another lane sits parked on a full ring, deadlocking the
	// runWG wait below. A closed stage rejects the late push as a drop,
	// and the drop hook settles the batch. Envelopes already queued
	// remain poppable, so the lanes' final drain still processes them.
	for _, s := range m.shards {
		s.input.close()
	}
	close(m.stop)
	m.runWG.Wait()
	// Lanes are done: every slot is in the rings. Stop the merger,
	// which final-drains them without the frontier rule.
	m.merge.Close()
	err := m.tail.Flush()
	// Records demoted to spill storage are part of the off-line record:
	// a spill target with buffered state (a storage.Tiered hot window)
	// is flushed so shutdown leaves every demoted record durable, not
	// parked in memory.
	if f, ok := m.cfg.OverflowSpill.(interface{ Flush() error }); ok {
		if ferr := f.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// WaitHangup waits until every served peer has hung up, each reader
// having injected what its connection held, or until timeout passes,
// and reports whether all did. After a CtlShutdown broadcast it is the
// wait on LISes that drain and hang up; the timeout covers one that is
// gone without a word. No Serve may race it: stop accepting first.
func (m *ISM) WaitHangup(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() { // after a timeout, Close ends it: it closes the connections
		m.serveWG.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
