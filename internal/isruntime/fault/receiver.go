package fault

// Receiver: the ISM half of the resilience protocol. It keeps one
// session entry per LIS node — highest contiguous sequence accepted,
// the set of batches delivered above a hole, duplicate and gap counts,
// last time the node was heard from — and sits in front of both
// managers' input paths (ism.ISM.Serve and relay.Relay.Serve run every
// inbound message through Filter). Replayed duplicates are absorbed
// before they reach the input stage (exactly-once accounting on top of
// the sender's at-least-once wire behavior), and nodes that fall
// silent past a deadline are reported degraded rather than silently
// absent — the evaluation loop needs to know the difference between
// "no events" and "no instrumentation".
//
// Acks are cumulative but strictly contiguous: CtlAck{Arg: high}
// claims every batch up to and including high, so high only advances
// across a closed prefix. A batch that arrives above a hole (its
// predecessor was silently dropped on a lossy link) is delivered and
// remembered in a pending set for dedup, but NOT acked — otherwise the
// sender would trim the dropped batch from its replay window as if it
// had been delivered, turning a recoverable drop into silent loss. The
// sender closes holes by resending its unacked window (on reconnect,
// on ack stall, or during shutdown drain); the pending set absorbs the
// re-deliveries of everything that already made it across. Every
// sequenced batch, fresh or duplicate, is answered with an ack;
// unsequenced (Arg 0) data is never acked, only timestamped.

import (
	"sync"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
)

// ReceiverConfig parameterizes the ISM-side session table.
type ReceiverConfig struct {
	// Clock supplies arrival timestamps for degradation tracking. Nil
	// means a real clock anchored at construction.
	Clock event.Clock
	// Metrics, when non-nil, reports dup_batches, gap_batches, hellos
	// and acks_sent under the session scope.
	Metrics *metrics.Registry
	// OnHello, when non-nil, observes every hello with the sender's
	// acked frontier. A dispatch-gated consumer (the relay tier) uses
	// it to adopt a reconnecting downstream's frontier into its own
	// admission and ack state.
	OnHello func(node int32, acked int64)
	// AckFrontier, when non-nil, overrides the sequence every ack
	// carries: instead of the receipt frontier, acknowledgements report
	// this caller-supplied value — a dispatch-gated frontier that only
	// advances once delivered batches have actually been consumed.
	AckFrontier func(node int32) int64
}

// nodeSession is the per-node sequencing state.
type nodeSession struct {
	high      int64              // highest contiguous sequence accepted (acked frontier)
	maxSeen   int64              // highest sequence ever accepted
	pending   map[int64]struct{} // accepted above a hole, awaiting the prefix to close
	dups      uint64
	lastHeard int64
}

// missing is the number of open holes: batches in (high, maxSeen]
// neither contiguously accepted nor pending. Holes close when a
// resend fills them; under a lossy policy with no replay they are the
// counted loss.
func (ns *nodeSession) missing() uint64 {
	if ns.maxSeen <= ns.high {
		return 0
	}
	n := ns.maxSeen - ns.high
	for seq := range ns.pending {
		if seq > ns.high {
			n--
		}
	}
	return uint64(n)
}

// advanceLocked walks the frontier forward through the pending set and
// discards pending entries the frontier has overtaken.
func advanceLocked(ns *nodeSession) {
	for {
		if _, ok := ns.pending[ns.high+1]; !ok {
			break
		}
		delete(ns.pending, ns.high+1)
		ns.high++
	}
	for seq := range ns.pending {
		if seq <= ns.high {
			delete(ns.pending, seq)
		}
	}
	if ns.maxSeen < ns.high {
		ns.maxSeen = ns.high
	}
}

// Receiver tracks per-node sessions, deduplicates replays and
// acknowledges delivery. Safe for concurrent use by multiple
// connection-serving goroutines.
type Receiver struct {
	cfg ReceiverConfig

	mDups   *metrics.Counter
	mGaps   *metrics.Counter
	mHellos *metrics.Counter
	mAcks   *metrics.Counter

	mu    sync.Mutex
	nodes map[int32]*nodeSession
}

// NewReceiver creates an empty session table.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	if cfg.Clock == nil {
		cfg.Clock = event.NewRealClock()
	}
	r := &Receiver{cfg: cfg, nodes: make(map[int32]*nodeSession)}
	if cfg.Metrics != nil {
		s := cfg.Metrics.Scope("session")
		r.mDups = s.Counter("dup_batches")
		r.mGaps = s.Counter("gap_batches")
		r.mHellos = s.Counter("hellos")
		r.mAcks = s.Counter("acks_sent")
	}
	return r
}

// node returns (creating if needed) the session entry. Called with
// r.mu held.
func (r *Receiver) nodeLocked(id int32) *nodeSession {
	ns := r.nodes[id]
	if ns == nil {
		ns = &nodeSession{}
		r.nodes[id] = ns
	}
	return ns
}

// Filter inspects one inbound message and returns true when it was
// consumed by the session protocol (hello, heartbeat, duplicate) and
// false when the caller should process it (fresh data, unrelated
// control traffic). Acks ride back on conn best-effort: a failed ack
// just means the sender replays and the duplicate path re-acks.
func (r *Receiver) Filter(conn tp.Conn, m tp.Message) bool {
	now := r.cfg.Clock.Now()
	if m.Type == tp.MsgControl {
		switch m.Control {
		case tp.CtlHello:
			r.mu.Lock()
			ns := r.nodeLocked(m.Node)
			ns.lastHeard = now
			// The hello's Arg is the sender's acked frontier. It can sit
			// above ours only when WE lost state (a restarted manager with
			// a fresh session table): the sender has already trimmed the
			// prefix below it, so nothing can ever close that hole — adopt
			// the frontier or no batch would ever be acked again. A hello
			// BELOW our frontier is the normal lost-ack case and must not
			// regress it (the replay it precedes dedupes instead).
			if m.Arg > ns.high {
				ns.high = m.Arg
				advanceLocked(ns)
			}
			high := ns.high
			r.mu.Unlock()
			if r.mHellos != nil {
				r.mHellos.Inc()
			}
			if r.cfg.OnHello != nil {
				r.cfg.OnHello(m.Node, m.Arg)
			}
			// Tell the (re)connecting sender where it stands so it can
			// trim everything we already accepted.
			r.ack(conn, m.Node, r.ackSeq(m.Node, high))
			return true
		case tp.CtlHeartbeat:
			r.mu.Lock()
			r.nodeLocked(m.Node).lastHeard = now
			r.mu.Unlock()
			return true
		}
		return false
	}
	// Data. Arg==0 is legacy unsequenced traffic: track liveness only.
	if m.Arg == 0 {
		r.mu.Lock()
		r.nodeLocked(m.Node).lastHeard = now
		r.mu.Unlock()
		return false
	}
	seq := m.Arg
	r.mu.Lock()
	ns := r.nodeLocked(m.Node)
	ns.lastHeard = now
	dup := seq <= ns.high
	if !dup {
		_, dup = ns.pending[seq]
	}
	if dup {
		ns.dups++
		high := ns.high
		r.mu.Unlock()
		if r.mDups != nil {
			r.mDups.Inc()
		}
		tp.Recycle(&m)
		r.ack(conn, m.Node, r.ackSeq(m.Node, high))
		return true
	}
	// Fresh batch. Count any holes it opens above the old frontier;
	// they close (and stop being reported by Gaps) when a resend fills
	// them, but the gap_batches metric is monotone: holes ever opened.
	if seq > ns.maxSeen {
		if opened := seq - max(ns.maxSeen, ns.high) - 1; opened > 0 && r.mGaps != nil {
			r.mGaps.Add(uint64(opened))
		}
		ns.maxSeen = seq
	}
	if seq == ns.high+1 {
		ns.high = seq
		advanceLocked(ns)
	} else {
		if ns.pending == nil {
			ns.pending = make(map[int64]struct{})
		}
		ns.pending[seq] = struct{}{}
	}
	high := ns.high
	r.mu.Unlock()
	r.ack(conn, m.Node, r.ackSeq(m.Node, high))
	return false
}

// ackSeq resolves the sequence to acknowledge: the receipt frontier by
// default, the AckFrontier override when a dispatch-gated caller
// installed one.
func (r *Receiver) ackSeq(node int32, high int64) int64 {
	if r.cfg.AckFrontier != nil {
		return r.cfg.AckFrontier(node)
	}
	return high
}

// ack sends a cumulative acknowledgement, ignoring transport errors.
func (r *Receiver) ack(conn tp.Conn, node int32, high int64) {
	if conn == nil {
		return
	}
	if err := conn.Send(tp.ControlMessage(node, tp.CtlAck, high)); err == nil {
		if r.mAcks != nil {
			r.mAcks.Inc()
		}
	}
}

// High returns the highest contiguously accepted (i.e. acked)
// sequence from a node.
func (r *Receiver) High(node int32) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.nodes[node]; ns != nil {
		return ns.high
	}
	return 0
}

// Dups returns the duplicate batches absorbed from a node.
func (r *Receiver) Dups(node int32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.nodes[node]; ns != nil {
		return ns.dups
	}
	return 0
}

// Gaps returns the currently open holes for a node: batches below its
// delivery frontier that have never arrived. Zero once replay has
// healed everything; the counted loss under lossy policies.
func (r *Receiver) Gaps(node int32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ns := r.nodes[node]; ns != nil {
		return ns.missing()
	}
	return 0
}

// TotalDups returns duplicates absorbed across all nodes.
func (r *Receiver) TotalDups() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, ns := range r.nodes {
		n += ns.dups
	}
	return n
}

// TotalGaps returns the currently open holes across all nodes.
func (r *Receiver) TotalGaps() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, ns := range r.nodes {
		n += ns.missing()
	}
	return n
}

// Degraded returns the nodes not heard from within the silence budget,
// judged against the receiver's clock. A node that has never spoken is
// not reported (it has no session yet).
func (r *Receiver) Degraded(silence time.Duration) []int32 {
	now := r.cfg.Clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int32
	for id, ns := range r.nodes {
		if now-ns.lastHeard > int64(silence) {
			out = append(out, id)
		}
	}
	return out
}
