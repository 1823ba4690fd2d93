// Package relay implements the federated ISM tier: relay managers
// that aggregate N downstream managers (leaves or other relays) into
// one causally ordered root trace — the "logically centralized" ISM of
// §2.2.2 made literal at a scale one manager cannot serve alone. The
// topology is the GIPSY manager-of-managers tree; the ordering
// discipline is DeWiz's: every tier forwards an already-ordered
// sub-stream and causality is kept intact across tier boundaries
// instead of being re-derived at the root.
//
// The tier has two halves:
//
//   - Uplink (this file): attached to a leaf ISM running in
//     Config.DeferCausal mode (or to a non-root Relay), it batches the
//     manager's merged output and forwards it through a fault.Session,
//     so the relay link inherits the exact guarantees LIS links have —
//     at-least-once wire delivery, exactly-once accounting,
//     crash-restart resume via hello-frontier adoption.
//
//   - Relay (relay.go): accepts N downstream sessions, runs one
//     bounded SPSC lane per downstream, and k-way merges the lane
//     streams record-granularly on the (Time, Node, Process) total
//     order under a per-lane watermark rule, feeding a
//     trace.CausalMerger that matches sends/recvs across managers.
//
// Watermarks travel in-band: Mark sends a single KindMark record with
// Process == -1 as a normal sequenced data batch, so watermark
// delivery inherits the session's ordering, dedup and replay — a mark
// can never overtake the data it vouches for, even across drops and
// reconnects.
//
// The determinism contract a downstream must honor: its forwarded
// stream is nondecreasing in capture Time (globally unique Times make
// the (Time, Node, Process) order total and the root trace
// reproducible). A leaf satisfies it by injecting in capture order
// with SISO input staging — MISO's per-source round-robin pop
// preserves program order per source but reorders across sources, and
// would let a leaf's own watermark overclaim.
package relay

import (
	"math"
	"sync"
	"time"

	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// markProcess is the reserved Process id of in-band watermark records.
// Real sources use non-negative process ids; a mark batch is exactly
// one KindMark record with this process, and is consumed by the lane
// it arrives on rather than admitted into the stream.
const markProcess int32 = -1

// markRecord builds the sequenced watermark record: Time carries the
// watermark — a promise that every record this uplink will ever send
// after this point has a capture Time of at least w.
func markRecord(w int64) trace.Record {
	return trace.Record{Process: markProcess, Kind: trace.KindMark, Time: w}
}

// isMarkBatch reports whether a delivered batch is an in-band
// watermark rather than stream data.
func isMarkBatch(rs []trace.Record) bool {
	return len(rs) == 1 && rs[0].Process == markProcess && rs[0].Kind == trace.KindMark
}

// UplinkConfig parameterizes an Uplink.
type UplinkConfig struct {
	// BatchSize is the flush threshold in records. Zero means 512.
	BatchSize int
	// Window bounds the session replay window in unacked batches.
	// Zero means the fault.Session default.
	Window int
	// Spill receives batches demoted from the replay window (overflow,
	// terminal send failure). Nil drops (and counts) them.
	Spill flow.Spill
	// Metrics, when non-nil, reports uplink and session counters.
	Metrics *metrics.Registry
}

// Uplink forwards a manager's merged output upstream as sequenced
// batches through a fault.Session. Attach it with ISM.SubscribeBatch
// (or Relay.SubscribeBatch for deeper trees): Push runs on the
// manager's dispatch goroutine, everything else may run elsewhere.
type Uplink struct {
	node int32
	sess *fault.Session

	recvDone chan struct{}

	mRecords *metrics.Counter
	mFlushes *metrics.Counter
	mMarks   *metrics.Counter

	mu      sync.Mutex
	buf     []trace.Record
	batch   int
	maxTime int64 // highest capture Time pushed: the data-driven watermark
	marked  int64 // highest watermark sent, so marks stay monotone
	sendErr error // first terminal send failure
}

// NewUplink wraps conn (typically a *tp.Redial dialing the relay) with
// a replay session for the given downstream node id and starts the ack
// loop. The node id names this manager on the relay — it must be
// unique among the relay's downstreams and is unrelated to the Node
// ids inside the records it forwards.
func NewUplink(node int32, conn tp.Conn, cfg UplinkConfig) *Uplink {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	u := &Uplink{
		node: node,
		sess: fault.NewSession(node, conn, fault.SessionConfig{
			Window: cfg.Window, Spill: cfg.Spill, Metrics: cfg.Metrics,
		}),
		recvDone: make(chan struct{}),
		batch:    cfg.BatchSize,
	}
	if cfg.Metrics != nil {
		s := cfg.Metrics.Scope("uplink")
		u.mRecords = s.Counter("records")
		u.mFlushes = s.Counter("flushes")
		u.mMarks = s.Counter("marks")
	}
	// The ack loop: the session filters CtlAck out of the inbound
	// stream; anything else from the relay is drained and ignored (the
	// relay has no downstream-bound control traffic today).
	go func() {
		defer close(u.recvDone)
		for {
			m, err := u.sess.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	return u
}

// Push appends a dispatched batch to the outbound buffer, flushing
// when the batch threshold is reached. The slice is copied — Push is
// safe to use directly as an ISM.SubscribeBatch sink whose slices are
// pool-owned.
func (u *Uplink) Push(rs []trace.Record) {
	if len(rs) == 0 {
		return
	}
	u.mu.Lock()
	for _, r := range rs {
		if r.Time > u.maxTime {
			u.maxTime = r.Time
		}
	}
	u.buf = append(u.buf, rs...)
	if len(u.buf) >= u.batch {
		u.sendLocked(u.takeLocked())
	}
	u.mu.Unlock()
	if u.mRecords != nil {
		u.mRecords.Add(uint64(len(rs)))
	}
}

// takeLocked moves the buffered records into a pooled batch whose
// ownership transfers to the wire. Called with u.mu held.
func (u *Uplink) takeLocked() []trace.Record {
	n := len(u.buf)
	if n == 0 {
		return nil
	}
	out := flow.GetBatch(n)[:n]
	copy(out, u.buf)
	u.buf = u.buf[:0]
	return out
}

// sendLocked forwards one pooled batch through the session, which
// copies it into the replay window before transmission; retryable
// transport failures are absorbed (the batch replays on reconnect).
// Called with u.mu held: the session stamps sequence numbers under its
// own lock but transmits outside it, so the uplink's lock is what
// keeps a concurrent Mark from putting a watermark on the wire ahead
// of data it covers.
func (u *Uplink) sendLocked(out []trace.Record) {
	if out == nil {
		return
	}
	err := u.sess.Send(tp.PooledDataMessage(u.node, out))
	if u.mFlushes != nil {
		u.mFlushes.Inc()
	}
	if err != nil && u.sendErr == nil {
		u.sendErr = err
	}
}

// Flush sends any buffered records immediately.
func (u *Uplink) Flush() {
	u.mu.Lock()
	u.sendLocked(u.takeLocked())
	u.mu.Unlock()
}

// Mark flushes and then advances the relay's watermark for this lane
// to at least w (clamped up to the highest Time already pushed, and
// kept monotone). The mark is a sequenced single-record data batch, so
// it can never overtake the data it covers. Send marks on a beacon
// cadence, and end the stream with Seal: a lane whose watermark lags
// stalls the relay's merge up to its MaxStall budget.
func (u *Uplink) Mark(w int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.sendLocked(u.takeLocked())
	if u.maxTime > w {
		w = u.maxTime
	}
	if w <= u.marked {
		return
	}
	u.marked = w
	mb := flow.GetBatch(1)[:1]
	mb[0] = markRecord(w)
	u.sendLocked(mb)
	if u.mMarks != nil {
		u.mMarks.Inc()
	}
}

// Beacon sends a mark at the highest capture Time forwarded so far —
// the safe live watermark (the manager dispatches in nondecreasing
// Time order, so nothing older can still be in flight behind it).
func (u *Uplink) Beacon() { u.Mark(0) }

// Seal ends the stream: it flushes and marks the lane at +∞, a promise
// that nothing follows, so the lane never holds the relay's merge
// again. The seal is sequenced after the last batch and acked like
// data; any later Mark, Beacon or Seal is a no-op. Push nothing after
// it.
func (u *Uplink) Seal() { u.Mark(math.MaxInt64) }

// Pending returns the unacked batches in the replay window.
func (u *Uplink) Pending() int { return u.sess.Pending() }

// WaitAcked blocks until the replay window is empty or the timeout
// expires. Because the relay's acks are dispatch-gated, an empty
// window means every forwarded record has been merged into the root
// trace — end-to-end drain, not just wire delivery.
func (u *Uplink) WaitAcked(timeout time.Duration) bool {
	return u.sess.WaitAcked(timeout)
}

// Drain resends the unacked window until the relay has acked it all
// (true: with dispatch-gated acks, every forwarded record is merged at
// the root) or the timeout passes (false); see fault.Session.Drain.
func (u *Uplink) Drain(timeout time.Duration) bool { return u.sess.Drain(timeout) }

// Err returns the first terminal send failure, if any.
func (u *Uplink) Err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sendErr
}

// Close closes the underlying connection and waits for the ack loop
// to exit. Buffered but unflushed records are dropped — callers Seal
// and Drain first for an orderly shutdown.
func (u *Uplink) Close() error {
	err := u.sess.Close()
	<-u.recvDone
	return err
}
