package flow

import (
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/metrics"
)

// The frontier merge core: a k-way streaming merge over independently
// ordered sub-streams ("lanes"), the DeWiz shape the ISM runs at every
// tier. Each lane hands ordered slots through a bounded SPSC ring to
// one merger goroutine, which keeps the lane heads in a 4-ary min-heap
// and dispatches the minimum head only once every headless lane is
// provably unable to still produce something smaller (the frontier
// rule). While every attached lane holds a head the rule has nothing
// to hold back, so a configuration that sets Pass is handed the whole
// head set at once and merges it in one pass, instead of one unit per
// step and a heap sift per unit. The flat ISM (lanes = ingest shards,
// key = ingest tick, a slot consumed whole, no Pass) and the relay
// (lanes = downstream managers, key = (Time, Node, Process), a slot
// consumed record by record, in passes while every lane holds a head)
// are two MergeParams over this one loop.
//
// Invariants the loop relies on and every configuration owes
// (DESIGN.md, "The frontier merge core", has the rationale):
//
//  1. One producer per lane: Push calls on a lane are serialized.
//  2. Frontier source before ring length: the merger observes a lane's
//     exit flag and Passed BEFORE it reads the ring's length, and a
//     producer pushes BEFORE it moves whatever Passed reads, so a slot
//     landing between the two loads only makes the observation stale.
//  3. Every unit the frontier source counts as outstanding settles
//     exactly once, pushed or discarded, and Signal follows.
//  4. Exit after the final push: "exited, ring empty" means spent.
//  5. Drain order: producers stop (or BeginClose lifts the rule so none
//     stays parked on a full ring), then Close drains rule-free.

// MergeParams fixes one configuration of the merge core: constructor
// arguments chosen by its two callers, not settings. S is the slot type
// handed through the rings and held as a lane's head (a cursor, when
// slots are consumed in several units); L is the configuration's
// per-lane state, handed back to every callback.
type MergeParams[S, L any] struct {
	// RingCap bounds each lane's hand-off ring, in slots.
	RingCap int
	// MinLanes holds every dispatch until that many lanes have attached:
	// an expected lane not yet attached has no frontier at all.
	MinLanes int
	// StallBudget, when positive, bounds one frontier stall: past it
	// the minimum head is dispatched out of order, counted in Forced.
	StallBudget time.Duration
	Forced      *metrics.Counter
	// Scope receives the merger's "stalls" and "stall_ns" counters.
	Scope metrics.Scope
	Clock metrics.Clock

	// Less orders two lane heads by their next unit's key.
	Less func(a, b *S) bool
	// Passed loads lane ln's frontier source and reports whether ln,
	// headless, can no longer produce a unit ordered before head's.
	Passed func(ln L, head *S) bool
	// Consume dispatches head's next unit and reports whether the slot
	// is exhausted. Slots are never empty.
	Consume func(ln L, head *S) (exhausted bool)
	// OnPark runs on the merger goroutine whenever it runs out of
	// dispatchable work, before it blocks, and after the closing drain.
	// On a frontier stall blocker is the lane waited on and head the
	// minimum head held back; otherwise both are nil.
	OnPark func(blocker *MergeLane[S, L], head *S)
	// Pass, when set, runs instead of Consume while every attached lane
	// holds a head (and at least MinLanes are attached): it dispatches
	// units off heads, in heap order (heads[0] the least), in Less order
	// across them. It returns at the first exhausted slot, with that
	// head's index, or after a bounded run of units with -1. A lane
	// attached during a pass joins at the next step.
	Pass func(heads []*S) (dry int)
}

// MergeLane is one producer's handle on the merge: a bounded ring into
// the merger plus the merger's head cursor for it.
type MergeLane[S, L any] struct {
	// State is the configuration's per-lane state, set by Attach.
	State L

	m         *Merger[S, L]
	ring      *SPSC[S]
	space     chan struct{} // merger -> producer: a ring slot freed
	exited    atomic.Bool
	occupancy *metrics.Gauge
	stalls    *metrics.Counter

	_ [64]byte // keep the merger's per-step writes off the producer's line
	// Merger-goroutine state: the slot being consumed, and the count
	// of slots fully consumed (the drain watermark against ring.tail).
	head     S
	has      bool
	consumed atomic.Uint64
}

// Merger is a running frontier merge. Create with NewMerger, attach
// lanes, Start it, and stop it with Close.
type Merger[S, L any] struct {
	p MergeParams[S, L]

	attachMu sync.Mutex
	lanes    atomic.Pointer[[]*MergeLane[S, L]]

	// Merger-goroutine state.
	heap    []*MergeLane[S, L] // 4-ary min-heap of lanes with a head, by Less
	blocker *MergeLane[S, L]   // lane the last step stalled on
	stalled bool               // the last step hit the frontier rule
	retry   bool               // a slot landed mid-check; re-step instead of parking
	force   bool               // the stall budget ran out; dispatch regardless

	closing atomic.Bool
	parks   atomic.Uint64
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}

	stalls  *metrics.Counter
	stallNs *metrics.Counter

	heads []*S // merger goroutine: the heap's heads, handed to Pass
}

// NewMerger returns a merger with no lanes; it does nothing until
// Start.
func NewMerger[S, L any](p MergeParams[S, L]) *Merger[S, L] {
	m := &Merger[S, L]{
		p:       p,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		stalls:  p.Scope.Counter("stalls"),
		stallNs: p.Scope.Counter("stall_ns"),
	}
	m.lanes.Store(new([]*MergeLane[S, L]))
	return m
}

// NewLane creates a lane, reporting "ring_occupancy" and "stalls"
// under scope. The merger ignores it until Attach.
func (m *Merger[S, L]) NewLane(scope metrics.Scope) *MergeLane[S, L] {
	return &MergeLane[S, L]{
		m:         m,
		ring:      NewSPSC[S](m.p.RingCap),
		space:     make(chan struct{}, 1),
		occupancy: scope.Gauge("ring_occupancy"),
		stalls:    scope.Counter("stalls"),
	}
}

// Attach publishes ln with its configuration state, which must be
// ready for Passed. Lanes only ever append, at any time: the snapshot
// is copy-on-append behind an atomic pointer and every per-lane merge
// cursor lives in the lane itself, so a step over the older snapshot
// simply does not see the lane yet.
func (m *Merger[S, L]) Attach(ln *MergeLane[S, L], state L) {
	ln.State = state
	m.attachMu.Lock()
	cur := *m.lanes.Load()
	next := make([]*MergeLane[S, L], len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ln
	m.lanes.Store(&next)
	m.attachMu.Unlock()
	m.Signal()
}

// Lanes returns the current lane snapshot; callers must not modify it.
func (m *Merger[S, L]) Lanes() []*MergeLane[S, L] { return *m.lanes.Load() }

// Start launches the merger goroutine.
func (m *Merger[S, L]) Start() { go m.run() }

// Signal wakes the merger; safe from any goroutine, never blocks.
func (m *Merger[S, L]) Signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Push hands one non-empty slot to the merger, parking while the ring
// is full — the backpressure a slow merge exerts on its producers. The
// producer moves its frontier source and calls Signal afterwards.
func (ln *MergeLane[S, L]) Push(slot S) {
	for !ln.ring.TryPush(slot) {
		<-ln.space
	}
	ln.occupancy.Set(int64(ln.ring.Len()))
}

// Exit marks the lane spent: its producer has made its final push.
func (ln *MergeLane[S, L]) Exit() {
	ln.exited.Store(true)
	ln.m.Signal()
}

// Cap reports the lane ring's capacity after power-of-two rounding.
func (ln *MergeLane[S, L]) Cap() int { return ln.ring.Cap() }

// Head returns the slot the merger is consuming from this lane, or nil
// when the lane is headless. Merger goroutine only (the callbacks).
func (ln *MergeLane[S, L]) Head() *S {
	if !ln.has {
		return nil
	}
	return &ln.head
}

// Backlog reports the slots waiting in the lane's ring. A callback
// that pairs it with the lane's frontier source owes invariant 2: load
// the frontier source first.
func (ln *MergeLane[S, L]) Backlog() int { return ln.ring.Len() }

// run is the merger goroutine: step until out of safe work, park on
// the wake signal, and on stop drain what the producers left behind.
func (m *Merger[S, L]) run() {
	defer close(m.done)
	for {
		if m.step() {
			continue
		}
		var head *S
		if len(m.heap) > 0 {
			head = &m.heap[0].head
		}
		m.p.OnPark(m.blocker, head)
		m.parks.Add(1)
		var t0 int64
		var timer *time.Timer
		var budget <-chan time.Time
		if m.stalled {
			// Heads are waiting but the frontier rule blocks them: that
			// wait is the price of ordering across lanes, metered apart
			// from plain idleness and charged to the lane waited on.
			m.stalls.Inc()
			if m.blocker != nil {
				m.blocker.stalls.Inc()
			}
			t0 = m.p.Clock.Now()
			if m.p.StallBudget > 0 {
				timer = time.NewTimer(m.p.StallBudget)
				budget = timer.C
			}
		}
		stopped := false
		select {
		case <-m.wake:
		case <-budget:
			// step re-checks first: if the stall cleared while the
			// merger slept, nothing is forced.
			m.force = true
		case <-m.stop:
			stopped = true
		}
		if timer != nil {
			timer.Stop()
		}
		if m.stalled {
			if d := m.p.Clock.Now() - t0; d > 0 {
				m.stallNs.Add(uint64(d))
			}
		}
		if stopped {
			for m.step() {
			}
			m.p.OnPark(nil, nil)
			m.parks.Add(1)
			return
		}
	}
}

// step dispatches at most one unit and reports whether it made
// progress. No progress with stalled set is a frontier stall; without
// it the rings are simply empty.
func (m *Merger[S, L]) step() bool {
	m.stalled, m.blocker = false, nil
	lanes := *m.lanes.Load()
	// The heap holds exactly the lanes with a head, so a full heap means
	// there is nothing to refill and (in clear) nobody to wait on.
	if len(m.heap) < len(lanes) {
		for _, ln := range lanes {
			if ln.has {
				continue
			}
			if slot, ok := ln.ring.TryPop(); ok {
				ln.head, ln.has = slot, true
				m.heapPush(ln)
				select {
				case ln.space <- struct{}{}:
				default:
				}
				ln.occupancy.Set(int64(ln.ring.Len()))
			}
		}
	}
	if len(m.heap) == 0 {
		m.force = false
		return false
	}
	if m.p.Pass != nil && len(m.heap) == len(lanes) && len(lanes) >= m.p.MinLanes {
		m.force = false
		m.pass()
		return true
	}
	top := m.heap[0]
	if !m.closing.Load() && !m.clear(lanes, top) {
		if m.retry {
			m.retry = false
			return true
		}
		if !m.force {
			return false
		}
		m.p.Forced.Inc()
	}
	m.force = false
	if m.p.Consume(top.State, &top.head) {
		var zero S
		top.head, top.has = zero, false
		top.consumed.Add(1)
		m.heapPop()
	} else {
		m.siftDown(0)
	}
	return true
}

// pass hands every head to Pass, clears the head of the lane that ran
// dry, as step does, and restores heap order over the rest.
func (m *Merger[S, L]) pass() {
	m.heads = m.heads[:0]
	for _, ln := range m.heap {
		m.heads = append(m.heads, &ln.head)
	}
	if dry := m.p.Pass(m.heads); dry >= 0 {
		ln := m.heap[dry]
		var zero S
		ln.head, ln.has = zero, false
		ln.consumed.Add(1)
		last := len(m.heap) - 1
		m.heap[dry] = m.heap[last]
		m.heap[last] = nil
		m.heap = m.heap[:last]
	}
	for i := (len(m.heap) - 2) / 4; i >= 0; i-- {
		m.siftDown(i)
	}
}

// clear applies the frontier rule to top's next unit: every other
// headless lane must have exited or passed it, with nothing in its
// ring.
func (m *Merger[S, L]) clear(lanes []*MergeLane[S, L], top *MergeLane[S, L]) bool {
	if len(lanes) < m.p.MinLanes {
		m.stalled = true
		return false
	}
	if len(m.heap) == len(lanes) {
		return true
	}
	for _, ln := range lanes {
		if ln == top || ln.has {
			continue
		}
		// Invariant 2: both frontier observations precede the ring
		// length. An exited lane's pushes are over, so its length read
		// is final; a passed lane pushed everything its frontier covers
		// before the frontier moved.
		passed := ln.exited.Load() || m.p.Passed(ln.State, &top.head)
		if ln.ring.Len() > 0 {
			// A slot landed after the refill; it may sort before top.
			m.retry = true
			return false
		}
		if !passed {
			m.stalled, m.blocker = true, ln
			return false
		}
	}
	return true
}

// BeginClose lifts the frontier rule for good, so a producer parked on
// a full ring is always released: for configurations whose producers
// only stop once their connections are torn down.
func (m *Merger[S, L]) BeginClose() {
	m.closing.Store(true)
	m.Signal()
}

// Close stops the merger after a final rule-free drain of the rings
// and a last OnPark. Producers must have stopped pushing.
func (m *Merger[S, L]) Close() {
	m.closing.Store(true)
	close(m.stop)
	<-m.done
}

// The two drains poll each ring's tail cursor (pushed) against the
// lane's count of exhausted slots; the zero deadline waits forever.

// WaitConsumed blocks until every slot pushed before the call has been
// consumed, or until deadline, and reports whether it was.
func (m *Merger[S, L]) WaitConsumed(deadline time.Time) bool {
	lanes := *m.lanes.Load()
	var buf [8]uint64
	targets := buf[:0]
	for _, ln := range lanes {
		targets = append(targets, ln.ring.tail.Load())
	}
	for {
		reached := true
		for i, ln := range lanes {
			if ln.consumed.Load() < targets[i] {
				reached = false
				break
			}
		}
		if reached {
			return true
		}
		if !m.pause(deadline) {
			return false
		}
	}
}

// WaitQuiet blocks until nothing is left unconsumed on any lane, slots
// landing while it waits included, and the merger has since parked (so
// OnPark has seen the result), or until deadline.
func (m *Merger[S, L]) WaitQuiet(deadline time.Time) bool {
	armed := false
	var parks uint64
	for {
		quiet := true
		for _, ln := range *m.lanes.Load() {
			if ln.consumed.Load() != ln.ring.tail.Load() {
				quiet = false
				break
			}
		}
		switch {
		case !quiet:
			armed = false
		case !armed:
			armed, parks = true, m.parks.Load()
		case m.parks.Load() > parks:
			return true
		}
		if !m.pause(deadline) {
			return false
		}
	}
}

// pause is one turn of a drain poll: nudge the merger and sleep. It
// reports false once the deadline has passed or the merger has closed.
func (m *Merger[S, L]) pause(deadline time.Time) bool {
	select {
	case <-m.done:
		return false
	default:
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return false
	}
	m.Signal()
	time.Sleep(50 * time.Microsecond)
	return true
}

// 4-ary min-heap over the lanes holding a head. Lane counts are small,
// so the shallow fan-out keeps the whole heap within a cache line or
// two.

func (m *Merger[S, L]) heapPush(ln *MergeLane[S, L]) {
	m.heap = append(m.heap, ln)
	i := len(m.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !m.p.Less(&m.heap[i].head, &m.heap[p].head) {
			break
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *Merger[S, L]) heapPop() {
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap[last] = nil
	m.heap = m.heap[:last]
	m.siftDown(0)
}

func (m *Merger[S, L]) siftDown(i int) {
	for {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < len(m.heap); c++ {
			if m.p.Less(&m.heap[c].head, &m.heap[min].head) {
				min = c
			}
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}
