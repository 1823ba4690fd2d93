package relay

import (
	"fmt"
	"io"
	"math"
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

// Config parameterizes a Relay.
type Config struct {
	// Root marks this relay as the top of the tree: the merged stream
	// runs through a trace.CausalMerger matching sends to receives
	// across managers and assigning Lamport stamps. A non-root relay
	// forwards the merged stream with the per-source uplink sequences
	// in Logical untouched, preserving the downstream contract for the
	// next tier's lane sequencers.
	Root bool
	// Downstreams, when positive, is the expected downstream count.
	// The merger holds dispatch until that many lanes have attached: a
	// downstream that has not connected yet is a silent lane with no
	// watermark at all, and dispatching around it would break the
	// global Time order the moment it appears. Zero trusts whoever is
	// connected — correct only when downstreams attach before data
	// flows.
	Downstreams int
	// MaxStall bounds how long the merger waits for a silent lane's
	// watermark before force-dispatching the minimum head out of order
	// (counted in Stats.OrderBreaks). Zero means wait forever — strict
	// ordering, at the mercy of the slowest downstream's marks.
	MaxStall time.Duration
	// Resume seeds a restarted relay from its own durable output: the
	// records the previous incarnation emitted (its spool, re-read).
	// Emission counts, causal-merge state and per-source dedup cursors
	// are rebuilt from it, so downstream at-least-once replays dedupe
	// record-granularly instead of re-emitting.
	Resume []trace.Record
	// Spool, when non-nil, receives every emitted record as a trace
	// segment stream — at the root, the federation's single causally
	// ordered trace. A restarted relay may append to the spool it
	// resumed from: segments frame themselves.
	Spool io.Writer
	// Metrics, when non-nil, is the registry the relay reports through
	// (under the "ism.relay" scope). Nil gets a private registry.
	Metrics *metrics.Registry
	// Clock supplies arrival timestamps for degradation tracking. Nil
	// means a real clock.
	Clock event.Clock
}

// Stats is a snapshot of relay activity.
type Stats struct {
	Lanes            int    // downstream lanes created
	Dispatched       uint64 // records emitted from the merge
	Resumes          uint64 // hello-frontier adoptions (downstream resumed us)
	Stalls           uint64 // merger waits imposed by the watermark rule
	OrderBreaks      uint64 // records force-dispatched past a stalled lane
	DupRecords       uint64 // record-granular replays absorbed by lane sequencers
	PartitionRejects uint64 // records refused for arriving via a second lane
	Marks            uint64 // watermark records consumed
	Held             int    // records parked in the cross-manager causal merge
	SessionDups      uint64 // batch-granular replays absorbed by the session layer
	Sealed           int    // lanes whose downstream sealed: watermark at +∞
}

// flushBatch bounds the dispatch buffer in records before it is
// flushed through the tail.
const flushBatch = 512

// laneRing bounds each downstream lane's SPSC hand-off ring to the
// merger, in batch slots. A full ring backpressures the lane's serve
// goroutine, which backpressures the session sender.
const laneRing = 256

// laneSlot is one ordered, pool-owned sub-batch handed from a lane to
// the merger, which consumes it record by record (in passes over every
// lane's head, or one at a time): pos is its cursor.
type laneSlot struct {
	recs []trace.Record
	pos  int
}

type mergeLane = flow.MergeLane[laneSlot, *lane]

// source is one source's relay-wide book. Admission and the merger
// each reach it through a lookaside of their own (lane.books,
// Relay.emit) and then hold the pointer, so the table below is locked
// once per source per goroutine, not per record.
type source struct {
	// owner is the one lane the source enters the federation through,
	// fixed by its first claim; restore is the dedup cursor rebuilt from
	// Config.Resume (zero: none), installed in the owner's sequencer at
	// that claim. Both under Relay.ownMu.
	owner   *lane
	restore uint64
	// emitted counts the source's records emitted so far — the currency
	// the ack gate trades in. Merger goroutine only.
	emitted uint64
}

// laneSource is what one lane's admission keeps per source, under
// admitMu: the ownership verdict, settled by the lane's first record of
// the source and final from then on, and the source's share of the
// batch in process.
type laneSource struct {
	src      *source // nil until the verdict is in
	owned    bool
	touched  bool   // listed in lane.touched: the batch in process carried the source
	batchMax uint64 // highest uplink sequence the batch in process carried for it
}

// sourceNeed is one source's contribution to a batch's ack condition:
// the batch may be acknowledged once the relay has emitted past seq
// (the highest uplink sequence the batch carried for the source).
type sourceNeed struct {
	src *source
	seq uint64
}

// ackEntry gates one session batch's acknowledgement on dispatch: the
// entry is satisfied once every need is emitted. Entries form a FIFO
// per lane (session sequences are admitted contiguously), so the
// satisfied prefix is exactly the cumulative ack frontier.
type ackEntry struct {
	seq   int64
	needs []sourceNeed
}

// lane is one downstream manager's ingest path: contiguous session
// admission, record-granular dedup, a bounded merge lane to the
// merger, and the dispatch-gated ack queue.
type lane struct {
	node int32
	ml   *mergeLane

	// admitMu serializes admission. The merge lane's single-producer
	// contract must survive a reconnect moving the downstream to a new
	// serve goroutine; the mutex is uncontended in steady state (one
	// live connection per downstream).
	admitMu   sync.Mutex
	nextBatch int64                    // highest contiguously admitted session seq
	held      map[int64][]trace.Record // batches parked above a contiguity hole
	seq       *trace.Sequencer
	books     trace.SourceTable[laneSource]
	touched   []*laneSource // the sources the batch in process carried

	// watermark is the lane's Time frontier: the downstream promises
	// every future record carries at least this capture Time. Advanced
	// by admitted data (after it is in the ring) and by mark records.
	watermark atomic.Int64

	connMu sync.Mutex
	conn   tp.Conn

	ackMu    sync.Mutex
	ackSent  int64 // highest dispatch-gated ack advertised
	pendAcks []ackEntry

	wmGauge  *metrics.Gauge
	lagGauge *metrics.Gauge
}

// raiseWatermark advances the lane's Time frontier monotonically.
func (ln *lane) raiseWatermark(w int64) {
	for {
		cur := ln.watermark.Load()
		if w <= cur || ln.watermark.CompareAndSwap(cur, w) {
			return
		}
	}
}

// Relay is a running relay ISM: it accepts downstream manager sessions
// (Serve), merges their ordered sub-streams into one causally ordered
// trace, and acknowledges each downstream batch only once every record
// in it has been emitted — so a downstream's empty replay window means
// its data is merged at the root, not merely received.
type Relay struct {
	cfg  Config
	recv *fault.Receiver

	// merge is the frontier merge core, configured on (Time, Node,
	// Process) record cursors with watermarks as the frontier source.
	// lanesMu serializes lane creation; lookups read its snapshot.
	merge   *flow.Merger[laneSlot, *lane]
	lanesMu sync.Mutex

	// sources holds every source's book. Source-partitioned admission —
	// a source enters the federation through exactly one lane — is
	// enforced on it, at each lane's first record of a source.
	ownMu   sync.Mutex
	sources map[trace.SourceKey]*source

	reg        *metrics.Registry
	laneScope  metrics.Scope
	mLanes     *metrics.Gauge
	mDispatch  *metrics.Counter
	mResumes   *metrics.Counter
	mStalls    *metrics.Counter
	mBreaks    *metrics.Counter
	mDups      *metrics.Counter
	mRejects   *metrics.Counter
	mMarks     *metrics.Counter
	mHeld      *metrics.Gauge
	mUnseq     *metrics.Counter
	mAcksGated *metrics.Counter

	// Merger-goroutine state; the tail's spool failure freezes acks.
	tail    *flow.Tail // causal at the root; Subscribe from anywhere
	emit    trace.SourceTable[*source]
	pending []trace.Record // merged, not yet through the tail

	frontier atomic.Int64 // merge frontier: no future emission below this Time
	killed   atomic.Bool  // the tests' crash hook (Kill): dispatch nothing more

	mu      sync.Mutex
	conns   []tp.Conn // served connections whose reader still runs
	closed  bool
	serveWG sync.WaitGroup
}

// New creates and starts a relay. Resume records, if any, are absorbed
// before any downstream is served.
func New(cfg Config) *Relay {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = event.NewRealClock()
	}
	r := &Relay{
		cfg:     cfg,
		sources: make(map[trace.SourceKey]*source),
		reg:     reg,
	}
	r.frontier.Store(math.MinInt64)
	s := reg.Scope("ism").Scope("relay")
	r.laneScope = s
	r.mLanes = s.Gauge("lanes")
	r.mDispatch = s.Counter("dispatched")
	r.mResumes = s.Counter("resumes")
	r.mStalls = s.Counter("stalls")
	r.mBreaks = s.Counter("order_breaks")
	r.mDups = s.Counter("dup_records")
	r.mRejects = s.Counter("partition_rejects")
	r.mMarks = s.Counter("marks")
	r.mHeld = s.Gauge("held")
	r.mUnseq = s.Counter("unsequenced_drops")
	r.mAcksGated = s.Counter("acks_gated")
	r.tail = flow.NewTail(cfg.Root, cfg.Spool, r.mDispatch, s.Counter("spool_errors"))
	r.merge = flow.NewMerger(flow.MergeParams[laneSlot, *lane]{
		RingCap:     laneRing,
		MinLanes:    cfg.Downstreams,
		StallBudget: cfg.MaxStall,
		Forced:      r.mBreaks,
		Scope:       s,
		Clock:       clock,
		Less: func(a, b *laneSlot) bool {
			return trace.Precedes(&a.recs[a.pos], &b.recs[b.pos])
		},
		Passed:  passed,
		Consume: r.consume,
		OnPark:  r.onPark,
		Pass:    r.pass,
	})
	// Restore: replay the previous incarnation's emitted output through
	// the accounting (and, at the root, the causal-merge state) so
	// at-least-once replays from downstreams dedupe by sequence match.
	// The emitted counts double as the per-source restore cursors —
	// emission preserves per-source order, so "n records of key seen"
	// means exactly uplink sequences [0, n).
	for i := range cfg.Resume {
		rec := &cfg.Resume[i]
		src := r.emitBook(rec)
		src.restore++
		src.emitted++
		r.tail.Observe(*rec)
	}
	r.recv = fault.NewReceiver(fault.ReceiverConfig{
		Clock:       clock,
		Metrics:     reg,
		AckFrontier: r.ackFrontier,
		OnHello:     r.onHello,
	})
	r.merge.Start()
	return r
}

// Metrics returns the registry the relay reports through.
func (r *Relay) Metrics() *metrics.Registry { return r.reg }

// SubscribeBatch registers a sink for the merged stream: fn runs on
// the merger goroutine with each emitted batch in emission order, and
// the slice is only valid for the duration of the call. An Uplink's
// Push makes a non-root relay's output the next tier's input: relay
// trees compose. The name labels the sink for the caller's benefit.
func (r *Relay) SubscribeBatch(name string, fn func([]trace.Record)) {
	r.tail.Subscribe(fn)
}

// Serve reads messages from a downstream connection until EOF. The
// session layer (hello/ack/dedup) is interposed automatically. Once
// the reader exits the connection is closed and forgotten, so a
// downstream that redials adds no dead connection.
func (r *Relay) Serve(conn tp.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.conns = append(r.conns, conn)
	r.serveWG.Add(1)
	r.mu.Unlock()
	go func() {
		defer func() {
			r.mu.Lock()
			r.conns = slices.DeleteFunc(r.conns, func(c tp.Conn) bool { return c == conn })
			r.mu.Unlock()
			_ = conn.Close()
			r.serveWG.Done()
		}()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if r.recv.Filter(conn, m) {
				continue
			}
			r.inject(conn, m)
		}
	}()
}

// Degraded reports downstreams not heard from within the silence
// budget.
func (r *Relay) Degraded(silence time.Duration) []int32 {
	return r.recv.Degraded(silence)
}

// inject routes one post-filter message. Only sequenced data batches
// feed the merge; a relay's inputs are managers, which always speak
// the session protocol.
func (r *Relay) inject(conn tp.Conn, m tp.Message) {
	if m.Type != tp.MsgData {
		return
	}
	if m.Arg == 0 {
		r.mUnseq.Inc()
		tp.Recycle(&m)
		return
	}
	// Every batch past this point is pool-owned: a pooled message hands
	// its slice over, an unpooled one is copied so the sender keeps its
	// own.
	recs := m.Records
	if !m.Pooled {
		recs = flow.GetBatch(len(m.Records))[:len(m.Records)]
		copy(recs, m.Records)
	}
	ln := r.laneFor(m.Node)
	ln.connMu.Lock()
	ln.conn = conn
	ln.connMu.Unlock()
	r.admit(ln, m.Arg, recs)
}

// lookupLane finds an existing lane without creating one.
func (r *Relay) lookupLane(node int32) *lane {
	for _, ml := range r.merge.Lanes() {
		if ml.State.node == node {
			return ml.State
		}
	}
	return nil
}

// laneFor returns (creating if needed) the downstream's lane.
func (r *Relay) laneFor(node int32) *lane {
	if ln := r.lookupLane(node); ln != nil {
		return ln
	}
	r.lanesMu.Lock()
	defer r.lanesMu.Unlock()
	if ln := r.lookupLane(node); ln != nil {
		return ln
	}
	ln := &lane{
		node: node,
		held: make(map[int64][]trace.Record),
		seq:  trace.NewSequencer(),
	}
	// A relay can (re)start against downstreams already mid-stream; the
	// restore cursors override adoption per source as they are claimed.
	ln.seq.Resume()
	ln.watermark.Store(math.MinInt64)
	ls := r.laneScope.Scope(fmt.Sprintf("lane%d", node))
	ln.wmGauge = ls.Gauge("watermark")
	ln.lagGauge = ls.Gauge("lag_ticks")
	ln.ml = r.merge.NewLane(ls)
	r.merge.Attach(ln.ml, ln)
	r.mLanes.Set(int64(len(r.merge.Lanes())))
	return ln
}

// onHello adopts a reconnecting downstream's acked frontier: batches
// at or below it were claimed by a previous incarnation of this relay
// and will never be resent, so the lane's contiguity cursor and ack
// floor both start there.
func (r *Relay) onHello(node int32, acked int64) {
	ln := r.laneFor(node)
	ln.admitMu.Lock()
	if acked > ln.nextBatch {
		ln.nextBatch = acked
		for s, recs := range ln.held {
			if s <= acked {
				flow.PutBatch(recs)
				delete(ln.held, s)
			}
		}
		r.mResumes.Inc()
	}
	ln.admitMu.Unlock()
	ln.ackMu.Lock()
	if acked > ln.ackSent {
		ln.ackSent = acked
	}
	ln.ackMu.Unlock()
}

// ackFrontier supplies the dispatch-gated ack value the session layer
// rides back to a downstream in place of the receipt frontier.
func (r *Relay) ackFrontier(node int32) int64 {
	ln := r.lookupLane(node)
	if ln == nil {
		return 0
	}
	ln.ackMu.Lock()
	defer ln.ackMu.Unlock()
	return ln.ackSent
}

// admit applies contiguous session ordering to one delivered batch.
// The fault.Receiver delivers above-hole batches immediately (its job
// is dedup, not ordering); the lane parks them until the hole closes
// so the per-lane stream stays in uplink order — the merge's per-lane
// FIFO contract.
func (r *Relay) admit(ln *lane, seq int64, recs []trace.Record) {
	ln.admitMu.Lock()
	if seq <= ln.nextBatch {
		// Below the admission floor: a replay that raced the receiver's
		// own dedup window (fresh receiver after restart).
		ln.admitMu.Unlock()
		flow.PutBatch(recs)
		return
	}
	if seq != ln.nextBatch+1 {
		ln.held[seq] = recs
		ln.admitMu.Unlock()
		return
	}
	r.process(ln, seq, recs)
	ln.nextBatch = seq
	for {
		held, ok := ln.held[ln.nextBatch+1]
		if !ok {
			break
		}
		delete(ln.held, ln.nextBatch+1)
		ln.nextBatch++
		r.process(ln, ln.nextBatch, held)
	}
	ln.admitMu.Unlock()
}

// process runs one contiguously admitted batch: watermark application
// for marks; ownership check, record-granular dedup, ring hand-off and
// ack gating for data. Runs with ln.admitMu held.
func (r *Relay) process(ln *lane, seq int64, recs []trace.Record) {
	if isMarkBatch(recs) {
		w := recs[0].Time
		ln.ackMu.Lock()
		ln.pendAcks = append(ln.pendAcks, ackEntry{seq: seq})
		ln.ackMu.Unlock()
		flow.PutBatch(recs)
		ln.raiseWatermark(w)
		ln.wmGauge.Set(ln.watermark.Load())
		r.mMarks.Inc()
		r.merge.Signal()
		return
	}
	held0 := ln.seq.Held()
	maxT := int64(math.MinInt64)
	rejects := 0
	for i := range recs {
		rec := &recs[i]
		key := trace.SourceKey{Node: rec.Node, Process: rec.Process}
		b := ln.books.Get(key)
		if b.src == nil {
			r.claim(key, ln, b)
		}
		if !b.owned {
			rejects++
			continue
		}
		if rec.Time > maxT {
			maxT = rec.Time
		}
		if !b.touched {
			b.touched, b.batchMax = true, rec.Logical
			ln.touched = append(ln.touched, b)
		} else if rec.Logical > b.batchMax {
			b.batchMax = rec.Logical
		}
		if rejects > 0 {
			recs[i-rejects] = *rec // close the gaps refused records leave
		}
	}
	if rejects > 0 {
		r.mRejects.Add(uint64(rejects))
	}
	// Claims come first so a restore cursor is seeded before the source's
	// records reach the sequencer. A batch in uplink order — the steady
	// state — then moves on as it is.
	out, inPlace := ln.seq.AddBatch(recs[:len(recs)-rejects], flow.GetBatch)
	// Accepted records either came out (len(out) may exceed the batch
	// when releases unblock held successors), went on hold (a gap the
	// dedup cursors open is impossible on an in-order lane, but a
	// buggy downstream is not), or were absorbed as sequence-matched
	// duplicates — the replayed prefix of a partially dispatched batch.
	heldDelta := ln.seq.Held() - held0
	if absorbed := len(recs) - rejects - len(out) - heldDelta; absorbed > 0 {
		r.mDups.Add(uint64(absorbed))
	}
	var needs []sourceNeed
	if len(ln.touched) > 0 {
		needs = make([]sourceNeed, 0, len(ln.touched))
		for _, b := range ln.touched {
			needs = append(needs, sourceNeed{src: b.src, seq: b.batchMax})
			b.touched = false
		}
		ln.touched = ln.touched[:0]
	}
	ln.ackMu.Lock()
	ln.pendAcks = append(ln.pendAcks, ackEntry{seq: seq, needs: needs})
	ln.ackMu.Unlock()
	if !inPlace {
		flow.PutBatch(recs)
	}
	if len(out) > 0 {
		ln.ml.Push(laneSlot{recs: out})
	} else {
		flow.PutBatch(out)
	}
	// The watermark must not advance until the records it covers are in
	// the ring: the merge core reads "watermark past t, then ring empty"
	// as "this lane cannot contribute below t".
	if maxT != math.MinInt64 {
		ln.raiseWatermark(maxT)
		ln.wmGauge.Set(ln.watermark.Load())
	}
	r.merge.Signal()
}

// claim enforces source partitioning at a lane's first record of a
// source, filling the lane's verdict in b: a source's first lane owns
// it for the relay's lifetime, and that first claim installs the
// restore cursor rebuilt from Config.Resume into the owning lane's
// sequencer — before the record reaches it.
func (r *Relay) claim(key trace.SourceKey, ln *lane, b *laneSource) {
	r.ownMu.Lock()
	src := r.sourceLocked(key)
	if src.owner == nil {
		src.owner = ln
		if src.restore > 0 {
			ln.seq.SetNext(key, src.restore)
		}
	}
	b.src, b.owned = src, src.owner == ln
	r.ownMu.Unlock()
}

// sourceLocked returns key's book, opening it at the first mention.
// Runs with r.ownMu held.
func (r *Relay) sourceLocked(key trace.SourceKey) *source {
	src := r.sources[key]
	if src == nil {
		src = new(source)
		r.sources[key] = src
	}
	return src
}

// emitBook returns the book of rec's source for the merger goroutine,
// which keeps its own lookaside over the shared table.
func (r *Relay) emitBook(rec *trace.Record) *source {
	key := trace.SourceKey{Node: rec.Node, Process: rec.Process}
	p := r.emit.Get(key)
	if *p == nil {
		r.ownMu.Lock()
		*p = r.sourceLocked(key)
		r.ownMu.Unlock()
	}
	return *p
}

// passed is the lane frontier predicate: a headless lane's watermark at
// or past the candidate's capture Time is its promise that nothing
// older is coming. Equal Times across lanes are arbitrated by
// (Node, Process); the federation's determinism contract stamps
// distinct Times, so the >= is exact there and best-effort otherwise.
func passed(ln *lane, head *laneSlot) bool {
	return ln.watermark.Load() >= head.recs[head.pos].Time
}

// pass is the merge while every lane holds a head, when the frontier
// rule has nothing to hold back: record by record it takes the least
// head's record — one comparison for two lanes, a scan for more — into
// the dispatch buffer. It ends at the first exhausted slot, reporting
// its index, or once the buffer has gone through the tail, so a pass
// dispatches at most flushBatch records.
func (r *Relay) pass(heads []*laneSlot) int {
	for {
		w, least := 0, &heads[0].recs[heads[0].pos]
		for i := 1; i < len(heads); i++ {
			if h := heads[i]; trace.Precedes(&h.recs[h.pos], least) {
				w, least = i, &h.recs[h.pos]
			}
		}
		flushed := r.dispatch(least)
		if heads[w].advance() {
			return w
		}
		if flushed {
			return -1
		}
	}
}

// consume is the one-record case of pass, for when some lane is
// headless and the frontier rule picks each record.
func (r *Relay) consume(_ *lane, h *laneSlot) bool {
	r.dispatch(&h.recs[h.pos])
	return h.advance()
}

// dispatch appends rec to the dispatch buffer, which goes through the
// tail every flushBatch records (and at every park), and reports
// whether it did. A killed relay dispatches nothing more.
func (r *Relay) dispatch(rec *trace.Record) (flushed bool) {
	if r.killed.Load() {
		return false
	}
	r.pending = append(r.pending, *rec)
	if len(r.pending) < flushBatch {
		return false
	}
	r.flushOut()
	return true
}

// advance moves the cursor past its record and reports whether the
// slot is exhausted, recycling it then.
func (h *laneSlot) advance() bool {
	h.pos++
	if h.pos < len(h.recs) {
		return false
	}
	flow.PutBatch(h.recs)
	return true
}

// onPark is the merger's park point: everything dispatched becomes
// durable and visible, then — and only then — acknowledgements advance
// (the dispatch gate). A watermark stall publishes how far the lane
// waited on trails the record it holds back.
func (r *Relay) onPark(blocker *mergeLane, head *laneSlot) {
	r.flushOut()
	r.updateFrontier()
	r.advanceAcks()
	if blocker != nil {
		ln := blocker.State
		if lag := head.recs[head.pos].Time - ln.watermark.Load(); lag > 0 {
			ln.lagGauge.Set(lag)
		}
	}
}

// flushOut runs the dispatch buffer through the tail — when it fills,
// which ends a pass, and at every park — counts each released record
// as emitted for its source (the ack gate's currency), and seals the
// spool, always before acks can advance (DESIGN.md, "The dispatch
// tail"). A record the root's causal merger holds (its send is
// still in flight on another lane) stays unemitted, so its batch stays
// unacked and in the downstream's replay window.
func (r *Relay) flushOut() {
	out := r.tail.Emit(r.pending)
	for i := range out {
		r.emitBook(&out[i]).emitted++
	}
	r.pending = r.pending[:0]
	_ = r.tail.Flush() // a failure is sticky: advanceAcks reads it
	held, _ := r.tail.Holding()
	r.mHeld.Set(int64(held))
}

// satisfied reports whether every record a batch carried has been
// emitted. Reads the merger-owned emitted counts — advanceAcks (its
// only caller) runs on the merger goroutine.
func satisfied(e ackEntry) bool {
	for _, n := range e.needs {
		if n.src.emitted <= n.seq {
			return false
		}
	}
	return true
}

// advanceAcks walks each lane's gated-ack FIFO, advances the frontier
// across the satisfied prefix, and tells the downstream. Runs on the
// merger goroutine at its park points and during final drain.
func (r *Relay) advanceAcks() {
	if r.tail.Err() != nil {
		return
	}
	for _, ml := range r.merge.Lanes() {
		ln := ml.State
		changed := false
		ln.ackMu.Lock()
		for len(ln.pendAcks) > 0 && satisfied(ln.pendAcks[0]) {
			if s := ln.pendAcks[0].seq; s > ln.ackSent {
				ln.ackSent = s
				changed = true
			}
			ln.pendAcks = ln.pendAcks[1:]
		}
		v := ln.ackSent
		ln.ackMu.Unlock()
		if !changed {
			continue
		}
		ln.connMu.Lock()
		c := ln.conn
		ln.connMu.Unlock()
		if r.recv.SendAck(c, ln.node, v) {
			r.mAcksGated.Inc()
		}
	}
}

// updateFrontier recomputes the merge frontier: the Time below which
// no future record can be emitted. A lane's contribution is its head's
// Time when it has one, its watermark when idle; an un-refilled ring
// leaves the frontier where it was (unknown backlog). A non-root relay
// reads Watermark() to drive its own uplink marks.
func (r *Relay) updateFrontier() {
	lanes := r.merge.Lanes()
	if len(lanes) == 0 || len(lanes) < r.cfg.Downstreams {
		return
	}
	low := int64(math.MaxInt64)
	for _, ml := range lanes {
		var f int64
		if h := ml.Head(); h != nil {
			f = h.recs[h.pos].Time
		} else {
			// Watermark before ring (merge invariant 2): a batch landing
			// between the loads must not let its watermark vouch for an
			// empty ring.
			w := ml.State.watermark.Load()
			if ml.Backlog() > 0 {
				return
			}
			f = w
		}
		if f < low {
			low = f
		}
	}
	if low > r.frontier.Load() {
		r.frontier.Store(low)
	}
}

// Watermark returns the relay's merge frontier: every record it will
// ever emit from now on carries at least this capture Time. An inner
// tier forwards it upstream via its Uplink's Mark.
func (r *Relay) Watermark() int64 { return r.frontier.Load() }

// Drain blocks until every record admitted so far has been merged,
// flushed and acked. It needs the downstream watermarks to have
// released everything admitted — a merge stalled waiting for a silent
// lane does not drain (downstreams Seal their uplinks, or MaxStall
// bounds the wait). End-to-end tests prefer Uplink.WaitAcked, which
// adds the wire to the guarantee.
func (r *Relay) Drain() {
	r.merge.WaitQuiet(time.Time{})
}

// Stats returns a snapshot of relay activity.
func (r *Relay) Stats() Stats {
	st := Stats{
		Lanes:            len(r.merge.Lanes()),
		Dispatched:       r.mDispatch.Value(),
		Resumes:          r.mResumes.Value(),
		Stalls:           r.mStalls.Value(),
		OrderBreaks:      r.mBreaks.Value(),
		DupRecords:       r.mDups.Value(),
		PartitionRejects: r.mRejects.Value(),
		Marks:            r.mMarks.Value(),
		Held:             int(r.mHeld.Value()),
		SessionDups:      r.recv.TotalDups(),
	}
	for _, ml := range r.merge.Lanes() {
		if ml.State.watermark.Load() == math.MaxInt64 {
			st.Sealed++
		}
	}
	return st
}

// Close shuts the relay down: the merger switches to closing mode
// (drains stall-free so no admission can deadlock on a full ring), the
// downstream connections close, the serve goroutines exit, the merger
// final-drains, and the spool flushes; the first spool write failure of
// the incarnation, if any, is returned. Records still parked in the
// root causal merge at that point are intentionally NOT emitted or
// acked — their sends never arrived, and the downstream replay windows
// redeliver them to the next incarnation. A clean shutdown stops the
// downstreams first, each one Sealing and then Draining its uplink, so
// the final drain finds nothing; what an unsealed lane's watermark
// still holds, it dispatches rule-free.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := append([]tp.Conn(nil), r.conns...)
	r.mu.Unlock()
	r.merge.BeginClose()
	for _, c := range conns {
		_ = c.Close()
	}
	r.serveWG.Wait()
	r.merge.Close()
	return r.tail.Flush()
}
