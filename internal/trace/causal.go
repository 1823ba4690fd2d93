package trace

import (
	"fmt"
)

// Causal ordering. "To avoid problems due to the lack of a global
// clock, we use the technique of assigning logical time-stamps, as
// implemented by VIZIR. If an arriving event is in correct causal
// order, it is assigned a logical time-stamp and stored in an output
// buffer ... If the arriving event is not in causal order, it is added
// in one (or multiple) input buffer(s) to reconstruct the causal order
// of the data before dispatch to a tool." (§3.3)
//
// The implementation is split into two independently usable stages so
// a sharded ISM can run the first stage per ingest shard and the
// second once at the merge point:
//
//   - Sequencer repairs program order within each source from the
//     per-source capture sequence numbers. It needs no cross-source
//     state, so one Sequencer per shard is sound as long as each
//     source's records all land on the same shard (the ISM's
//     source-affinity hash guarantees this).
//   - CausalMerger matches receives to sends across sources and
//     assigns Lamport logical timestamps. It is inherently global and
//     runs single-threaded at the merge point. Its input must be
//     program-ordered per source; it never reorders within a source.

// SourceKey identifies an event source (node, process).
type SourceKey struct {
	Node, Process int32
}

// SourceTable holds one *T of per-source state per SourceKey: a single
// map behind a small direct-mapped lookaside, so a record of a recently
// seen source reaches its state without a map operation. The lookaside
// is a pure cache — which slots it holds never influences what a lookup
// returns — and states are created on first lookup and never removed
// (a manager's sources are a fixed, small population). The zero value
// is an empty table; it is not safe for concurrent use. Exported for
// the per-record books other layers keep per source: the leaf's uplink
// restamp and the relay's admission and emission state.
type SourceTable[T any] struct {
	look [lookasideSlots]struct {
		key SourceKey
		st  *T
	}
	all map[SourceKey]*T
}

// lookasideSlots and the slot function suit the dense ids sources
// carry: up to 16 nodes of 4 processes, or 64 single-process nodes, map
// to distinct slots. Sources that collide only fall back to the map.
const lookasideSlots = 64

// Get returns key's state, zero-valued on the first lookup.
func (t *SourceTable[T]) Get(key SourceKey) *T {
	e := &t.look[(uint32(key.Node)+uint32(key.Process)<<4)%lookasideSlots]
	if e.st != nil && e.key == key {
		return e.st
	}
	st := t.all[key]
	if st == nil {
		if t.all == nil {
			t.all = map[SourceKey]*T{}
		}
		st = new(T)
		t.all[key] = st
	}
	e.key, e.st = key, st
	return st
}

// seqRecord is a Record plus the per-source sequence number assigned
// at capture time; the LIS stamps Tag-independent sequence numbers
// into Payload for kinds that do not use it, but to stay general the
// Sequencer takes the sequence explicitly.
type seqRecord struct {
	rec Record
	seq uint64
}

type msgKey struct {
	from, to int32
	tag      uint16
}

// sendKey and recvKey name the message a send or receive record is one
// half of: both carry the message tag, with Payload holding the peer
// node.
func sendKey(r *Record) msgKey { return msgKey{from: r.Node, to: int32(r.Payload), tag: r.Tag} }
func recvKey(r *Record) msgKey { return msgKey{from: int32(r.Payload), to: r.Node, tag: r.Tag} }

// Sequencer reconstructs per-source program order from out-of-order
// arrivals. Records released by AddTo are in capture-sequence order
// within each source; duplicates (sequence below the source's cursor)
// are dropped. The Sequencer does not look at record kinds and does
// not assign logical timestamps — that is the CausalMerger's job.
type Sequencer struct {
	resume     bool
	sources    SourceTable[seqSource]
	heldCount  int
	maxHeld    int
	sequenced  uint64
	outOfOrder uint64
}

// seqSource is one source's sequencing state.
type seqSource struct {
	next uint64      // the capture sequence the source's next release must carry
	seen bool        // next is established: seeded, adopted, or advanced by a release
	held []seqRecord // out-of-order input buffer, in arrival order
}

// NewSequencer returns an empty Sequencer.
func NewSequencer() *Sequencer { return &Sequencer{} }

// Held returns the number of records currently held back waiting for a
// program-order predecessor.
func (s *Sequencer) Held() int { return s.heldCount }

// MaxHeld returns the maximum number of simultaneously held records.
func (s *Sequencer) MaxHeld() int { return s.maxHeld }

// Sequenced returns the total number of records released in program
// order.
func (s *Sequencer) Sequenced() uint64 { return s.sequenced }

// OutOfOrder returns the total number of offered records that released
// nothing on arrival: held back behind a gap, or dropped as duplicates.
func (s *Sequencer) OutOfOrder() uint64 { return s.outOfOrder }

// Resume makes the sequencer adopt an unseen source's first capture
// sequence as that source's starting point instead of holding it back
// waiting for sequence zero. A manager that (re)starts against sources
// already mid-stream — a crashed ISM re-served by resilient LIS
// sessions replaying their unacked windows — would otherwise hold
// every event forever: the prefix went to the dead incarnation and
// will never be resent. Only sound when each source's events arrive in
// program order until its first dispatch (the session protocol's
// in-order replay guarantees this); a reordering transport could
// present sequence n before 0 for a brand-new source and lose the
// prefix to dedup. Sources already seen are unaffected.
func (s *Sequencer) Resume() { s.resume = true }

// SetNext seeds a source's program-order cursor: the next fresh record
// accepted from the source must carry exactly seq, and anything below
// it is dropped as a duplicate. It is the record-granular restore hook
// for a manager rebuilt from its own durable output — a relay that
// re-reads its spool knows exactly how many records of each source it
// already emitted, and seeding the cursor there makes a sender's
// at-least-once replay (which resends whole unacked batches, including
// the already-emitted prefix of a partially dispatched one) dedupe by
// sequence match instead of re-delivering. Call before the source's
// records arrive; it overrides any Resume adoption for the key.
func (s *Sequencer) SetNext(key SourceKey, seq uint64) {
	st := s.sources.Get(key)
	st.next, st.seen = seq, true
}

// AddTo offers a record with its per-source capture sequence number
// (0-based, contiguous per source) and appends every record that
// became releasable — the record itself plus any held successors it
// unblocks — to dst in program order.
func (s *Sequencer) AddTo(dst []Record, rec Record, seq uint64) []Record {
	return s.add(dst, s.sources.Get(SourceKey{rec.Node, rec.Process}), &rec, seq)
}

// AddBatch is AddTo over a whole batch whose records carry their
// capture sequence in Logical (left as it is). When the batch needs no
// repair — every record is its source's next in sequence and nothing
// of that source is held — the releases are the batch itself: AddBatch
// returns recs, inPlace true, and copies nothing. Otherwise it takes a
// buffer of capacity n from alloc, once, at the first record that is
// out of order, and returns the releases in it.
func (s *Sequencer) AddBatch(recs []Record, alloc func(n int) []Record) (out []Record, inPlace bool) {
	inPlace = true
	for i := range recs {
		r := &recs[i]
		st := s.sources.Get(SourceKey{r.Node, r.Process})
		if inPlace {
			if len(st.held) == 0 && s.inOrder(st, r.Logical) {
				continue
			}
			out, inPlace = append(alloc(len(recs))[:0], recs[:i]...), false
		}
		out = s.add(out, st, r, r.Logical)
	}
	if inPlace {
		return recs, true
	}
	return out, false
}

// inOrder reports whether seq is the source's next sequence — after
// adopting it as such for an unseen source under Resume — and if so
// advances the cursor past it.
func (s *Sequencer) inOrder(st *seqSource, seq uint64) bool {
	if !st.seen && s.resume {
		st.next, st.seen = seq, true
	}
	if seq != st.next {
		return false
	}
	st.next, st.seen = seq+1, true
	s.sequenced++
	return true
}

func (s *Sequencer) add(dst []Record, st *seqSource, rec *Record, seq uint64) []Record {
	if !s.inOrder(st, seq) {
		s.outOfOrder++
		if seq < st.next {
			// Duplicate or replayed record; drop.
			return dst
		}
		st.held = append(st.held, seqRecord{rec: *rec, seq: seq})
		s.heldCount++
		if s.heldCount > s.maxHeld {
			s.maxHeld = s.heldCount
		}
		return dst
	}
	dst = append(dst, *rec)
	// Drain held successors now contiguous with the cursor. The buffer
	// is in arrival order, so every release scans it: quadratic in one
	// source's hold depth, which an in-order transport keeps at zero and
	// a reordering one at a few flushes.
	for len(st.held) > 0 {
		idx := -1
		for i := range st.held {
			if st.held[i].seq == st.next {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		dst = append(dst, st.held[idx].rec)
		s.sequenced++
		st.next++
		st.held = append(st.held[:idx], st.held[idx+1:]...)
		s.heldCount--
	}
	return dst
}

// CausalMerger enforces the cross-source happens-before edges (a
// KindRecv happens-after its matching KindSend, matched by Tag with
// Payload holding the peer node) and assigns Lamport logical
// timestamps. Input must already be in program order per source;
// within that constraint sources may interleave arbitrarily, which is
// exactly what the ISM's k-way shard merge produces.
//
// When a receive arrives before its send, the receive is parked and
// its whole source stalls: later records from that source queue behind
// it (program order must survive the wait). The matching send releases
// the receive and drains the queue, recursively unblocking any chains.
// Release order is deterministic — it depends only on the input
// sequence, never on the message table's seed or layout (it is never
// iterated) or on what the source lookaside happens to hold — which is
// what makes sharded-vs-single-orderer runs byte-comparable.
//
// A record touches only its own source's state, plus — a send or a
// receive — its message's entry in the one message table; the only
// other write to a source's state is the send that releases its parked
// receive.
type CausalMerger struct {
	clock      uint64
	sources    SourceTable[mergeSource]
	msgs       msgTable    // messages with an unmatched send or a waiting receive
	freeMsgs   []*msgState // retired entries, reused so matching allocates nothing
	heldCount  int
	maxHeld    int
	dispatched uint64
	outOfOrder uint64
}

// mergeSource is one source's merge state: whether a receive of it is
// parked, and the program-order successors queued behind that receive.
type mergeSource struct {
	stalled bool
	pend    pendRing
}

// msgState is one (from, to, tag) message's matching state. An entry
// lives in the table only while it has either; with unique tags the
// table therefore holds the messages in flight, not the run's.
type msgState struct {
	sends   int          // dispatched sends no receive has consumed
	waiting []parkedRecv // receives that arrived ahead of their send, oldest first
}

// parkedRecv is a receive waiting for its send, with the source it
// stalls.
type parkedRecv struct {
	rec Record
	src *mergeSource
}

// pendRing is a FIFO ring of records parked behind a stalled receive.
// It grows only when full, so its capacity stays within twice the most
// records ever parked behind the source at once, however long the
// source runs without fully draining.
type pendRing struct {
	buf  []Record // length zero or a power of two
	head int      // index of the oldest record
	n    int      // records queued
}

func (q *pendRing) push(rec *Record) {
	if q.n == len(q.buf) {
		grown := make([]Record, max(8, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = *rec
	q.n++
}

// pop returns the oldest record in place: the slot stays intact until
// the next push.
func (q *pendRing) pop() *Record {
	rec := &q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return rec
}

// NewCausalMerger returns an empty CausalMerger whose Lamport clock
// starts at 1.
func NewCausalMerger() *CausalMerger {
	return newCausalMerger(randomSeed(), msgTableSlots)
}

// newCausalMerger returns an empty merger whose message table has the
// given seed and initial slot count.
func newCausalMerger(seed [2]uint64, slots int) *CausalMerger {
	return &CausalMerger{msgs: newMsgTable(seed, slots)}
}

// Held returns the number of records currently held back waiting for a
// message dependency (parked receives plus their queued successors).
func (m *CausalMerger) Held() int { return m.heldCount }

// MaxHeld returns the maximum number of simultaneously held records.
func (m *CausalMerger) MaxHeld() int { return m.maxHeld }

// Dispatched returns the total number of records released in causal
// order.
func (m *CausalMerger) Dispatched() uint64 { return m.dispatched }

// OutOfOrder returns the total number of offered records that released
// nothing on arrival: parked receives and records queued behind one.
func (m *CausalMerger) OutOfOrder() uint64 { return m.outOfOrder }

// Clock returns the current Lamport clock value — the logical
// timestamp of the most recently dispatched record.
func (m *CausalMerger) Clock() uint64 { return m.clock }

func (m *CausalMerger) hold() {
	m.heldCount++
	if m.heldCount > m.maxHeld {
		m.maxHeld = m.heldCount
	}
}

// msg returns mk's table entry, entering one when the message has none.
func (m *CausalMerger) msg(mk msgKey) *msgState {
	i, e := m.msgs.find(mk)
	if e == nil {
		e = m.enter(i, mk)
	}
	return e
}

// enter gives mk, which has no entry, a recycled or fresh one in slot
// i, where find left it. The table may grow: i is stale afterwards.
func (m *CausalMerger) enter(i int, mk msgKey) *msgState {
	var e *msgState
	if n := len(m.freeMsgs); n > 0 {
		e, m.freeMsgs = m.freeMsgs[n-1], m.freeMsgs[:n-1]
	} else {
		e = new(msgState)
	}
	m.msgs.insert(i, mk, e)
	return e
}

// retire removes the entry in slot i once nothing is left to match
// against it.
func (m *CausalMerger) retire(i int, e *msgState) {
	if e.sends == 0 && len(e.waiting) == 0 {
		m.msgs.del(i)
		m.freeMsgs = append(m.freeMsgs, e)
	}
}

// Observe replays one already-dispatched record back into the merger's
// bookkeeping without re-emitting it: the Lamport clock adopts the
// record's stamp, and send/recv matching state is rebuilt exactly as
// the original dispatch left it (a send deposits a match, a receive
// consumes one). Feeding a previously emitted trace through Observe in
// order therefore reconstructs the merger a crash destroyed — the
// restart hook a relay uses to resume from its spooled root trace with
// Lamport continuity and without double-matching receives against
// sends that were consumed before the crash.
func (m *CausalMerger) Observe(rec Record) {
	if rec.Logical > m.clock {
		m.clock = rec.Logical
	}
	m.dispatched++
	switch rec.Kind {
	case KindSend:
		m.msg(sendKey(&rec)).sends++
	case KindRecv:
		// A causally valid trace never emits a receive before its send,
		// so the guard only matters for hand-built inputs.
		if i, e := m.msgs.find(recvKey(&rec)); e != nil && e.sends > 0 {
			e.sends--
			m.retire(i, e)
		}
	}
}

// AddTo offers the next record of its source's program-ordered stream
// and appends every record that became dispatchable — stamped with
// Lamport timestamps, in causal order — to dst.
func (m *CausalMerger) AddTo(dst []Record, rec Record) []Record {
	return m.AddBatchTo(dst, []Record{rec})
}

// AddBatchTo is AddTo over recs in order, without the per-call copy of
// each record.
func (m *CausalMerger) AddBatchTo(dst []Record, recs []Record) []Record {
	for i := range recs {
		r := &recs[i]
		src := m.sources.Get(SourceKey{r.Node, r.Process})
		switch {
		case src.stalled:
			// A receive from this source is parked; program order forces
			// everything behind it to wait too.
			src.pend.push(r)
			m.hold()
			m.outOfOrder++
		case !r.Kind.matched():
			dst = m.stamp(dst, r)
		default:
			n := len(dst)
			if dst = m.offer(dst, src, r); len(dst) == n {
				m.outOfOrder++
			}
		}
	}
	return dst
}

func (m *CausalMerger) offer(dst []Record, src *mergeSource, rec *Record) []Record {
	if rec.Kind == KindRecv {
		mk := recvKey(rec)
		i, e := m.msgs.find(mk)
		if e == nil || e.sends == 0 {
			if e == nil {
				e = m.enter(i, mk)
			}
			e.waiting = append(e.waiting, parkedRecv{rec: *rec, src: src})
			src.stalled = true
			m.hold()
			return dst
		}
		e.sends--
		m.retire(i, e)
	}
	return m.release(dst, rec)
}

// stamp dispatches rec: it appends it to dst under the next Lamport
// time. A record that is neither send nor receive needs nothing else,
// so AddBatchTo and the drain below stamp it without the offer and
// release calls.
func (m *CausalMerger) stamp(dst []Record, rec *Record) []Record {
	m.clock++
	m.dispatched++
	dst = append(dst, *rec)
	dst[len(dst)-1].Logical = m.clock
	return dst
}

func (m *CausalMerger) release(dst []Record, rec *Record) []Record {
	dst = m.stamp(dst, rec)
	if rec.Kind != KindSend {
		return dst
	}
	mk := sendKey(rec)
	i, e := m.msgs.find(mk)
	if e == nil {
		m.enter(i, mk).sends++
		return dst
	}
	if len(e.waiting) == 0 {
		e.sends++
		return dst
	}
	// Unblock the oldest receive waiting on this send, then drain the
	// successors queued behind it.
	w := e.waiting[0]
	e.waiting = e.waiting[:copy(e.waiting, e.waiting[1:])]
	m.retire(i, e)
	m.heldCount--
	dst = m.release(dst, &w.rec)
	w.src.stalled = false
	for w.src.pend.n > 0 && !w.src.stalled {
		m.heldCount--
		// May re-park (another receive with a missing send) — the loop
		// condition stops the drain and the remainder stays queued. Only
		// AddBatchTo pushes onto a ring, never a release, so the popped
		// slot stays valid throughout the offer.
		if rec := w.src.pend.pop(); rec.Kind.matched() {
			dst = m.offer(dst, w.src, rec)
		} else {
			dst = m.stamp(dst, rec)
		}
	}
	return dst
}

// matched reports whether records of kind k are one half of a message,
// matched by the merger across sources.
func (k Kind) matched() bool { return k == KindSend || k == KindRecv }

// CheckCausal verifies that a dispatched stream is causally
// consistent: logical timestamps strictly increase and no receive
// precedes its send. The send/receive books are a merger's, kept by
// Observe.
func CheckCausal(rs []Record) error {
	var lastLogical uint64
	m := NewCausalMerger()
	for i := range rs {
		r := &rs[i]
		if r.Logical <= lastLogical {
			return fmt.Errorf("trace: record %d logical %d not increasing", i, r.Logical)
		}
		lastLogical = r.Logical
		if r.Kind == KindRecv {
			if _, e := m.msgs.find(recvKey(r)); e == nil || e.sends == 0 {
				return fmt.Errorf("trace: record %d receive before matching send", i)
			}
		}
		m.Observe(*r)
	}
	return nil
}
