// Package flow is the shared data-flow core of the instrumentation
// runtime: pooled record batches and bounded queues with pluggable
// overflow policies. Every IS layer that moves records — the buffered
// and daemon LISes, the transfer-protocol pipes, and the ISM input
// stage — is built on this package, so buffer occupancy, drops and
// blocking behave (and are measured) uniformly across the runtime.
//
// The paper models each layer by the same small set of parameters —
// buffer capacity, arrival rate, flush/drain cost, and the policy
// applied when a buffer fills (§3, Figs. 4–6). Centralizing those
// mechanics here makes the layers directly comparable and keeps the
// hot capture/flush path free of per-flush allocation.
package flow

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prism/internal/trace"
)

// OverflowPolicy selects what a bounded flow stage does when it is full
// and another element arrives.
type OverflowPolicy int

// Overflow policies. DropOldest — the zero value — is monitoring's
// default discipline (favor fresh data over stale backlog); Block is
// the paper's §3.2.3 backpressure effect ("the pipes become full and
// application processes, blocked"); DropNewest favors the backlog over
// the arrival; SpillToStorage demotes the displaced data to the next
// level of the §3.1/Fig. 4 storage hierarchy instead of losing it.
const (
	// DropOldest displaces the oldest queued element to admit the new
	// one (monitoring favors fresh data over stale backlog).
	DropOldest OverflowPolicy = iota
	// Block makes the producer wait until space frees up (backpressure).
	Block
	// DropNewest rejects the arriving element.
	DropNewest
	// SpillToStorage displaces the oldest queued element into a spill
	// target (e.g. an isruntime/storage.Tiered) and admits the new
	// one. Without a spill target it degrades to DropOldest.
	SpillToStorage
	numPolicies
)

var policyNames = [...]string{
	Block: "block", DropNewest: "drop-newest",
	DropOldest: "drop-oldest", SpillToStorage: "spill",
}

// String returns the policy name, or policy(N) for unknown values.
func (p OverflowPolicy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Valid reports whether p is a defined overflow policy.
func (p OverflowPolicy) Valid() bool { return p >= 0 && p < numPolicies }

// Spill is the next storage level a SpillToStorage stage demotes
// displaced records to. isruntime/storage.Tiered implements it.
type Spill interface {
	Append(rs ...trace.Record) error
}

// --- pooled batches -------------------------------------------------

// Batch is a record slice drawn from the shared batch pool. Ownership
// is linear: whoever holds a Batch either hands it on (a flush hands
// it to the transport, the transport to the ISM) or returns it with
// PutBatch. tp.Message marks pool-owned record slices with its Pooled
// flag so the final consumer knows to recycle.
type Batch = []trace.Record

// container carries a pooled slice; a second pool recycles the empty
// containers themselves so steady-state Get/Put performs no allocation.
type container struct{ rs []trace.Record }

var (
	fullPool  sync.Pool // containers holding a usable slice
	emptyPool sync.Pool // containers whose slice was handed out
)

// GetBatch returns an empty batch with at least the given capacity,
// reusing pooled backing storage when possible.
func GetBatch(capacity int) Batch {
	if v := fullPool.Get(); v != nil {
		c := v.(*container)
		rs := c.rs
		c.rs = nil
		emptyPool.Put(c)
		if cap(rs) >= capacity {
			return rs[:0]
		}
	}
	return make([]trace.Record, 0, capacity)
}

// PutBatch returns a batch's backing storage to the pool. The caller
// must not touch the slice afterwards.
func PutBatch(b Batch) {
	if cap(b) == 0 {
		return
	}
	var c *container
	if v := emptyPool.Get(); v != nil {
		c = v.(*container)
	} else {
		c = new(container)
	}
	c.rs = b[:0]
	fullPool.Put(c)
}

// --- bounded queue with overflow policy -----------------------------

// QueueStats summarizes a queue's activity.
type QueueStats struct {
	Pushed      uint64 // elements accepted (including via displacement)
	Dropped     uint64 // elements lost to DropNewest/DropOldest/close
	Spilled     uint64 // elements demoted to the spill target
	SpillErrors uint64 // spill attempts that failed (element dropped)
	Blocked     uint64 // pushes that had to wait (Block policy)
	BlockedNs   int64  // cumulative producer wait time
	Len         int    // current occupancy
	Peak        int    // maximum occupancy observed
}

// Queue is a bounded FIFO with a pluggable overflow policy. It is safe
// for concurrent producers and consumers. The element type is generic
// so the same core serves record pipes (Queue[trace.Record]), batch
// hand-off stages (Queue[Batch]) and the ISM's timestamped envelopes.
type Queue[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []T
	head     int
	count    int
	capacity int
	policy   OverflowPolicy
	spill    func(T) error
	onDrop   func(T)
	closed   bool
	st       QueueStats
}

// NewQueue creates a queue with the given capacity and policy. spill
// receives elements displaced under SpillToStorage; it may be nil, in
// which case SpillToStorage degrades to DropOldest. spill and the
// OnDrop hook are invoked with the queue lock held and must not call
// back into the queue.
func NewQueue[T any](capacity int, policy OverflowPolicy, spill func(T) error) (*Queue[T], error) {
	if capacity < 1 {
		return nil, errors.New("flow: queue capacity must be >= 1")
	}
	if !policy.Valid() {
		return nil, fmt.Errorf("flow: invalid overflow policy %v", policy)
	}
	// The ring buffer grows on demand up to capacity rather than being
	// allocated eagerly: ISM input stages default to large capacities
	// (1<<16) that short benchmark runs and lightly loaded clusters
	// never come close to filling.
	q := &Queue[T]{capacity: capacity, policy: policy, spill: spill}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q, nil
}

// OnDrop registers a hook invoked for every element the queue loses —
// policy victims and elements rejected after Close. Used by batch
// stages to recycle dropped batches. Set before the queue is used.
func (q *Queue[T]) OnDrop(fn func(T)) { q.onDrop = fn }

// Push offers one element, applying the overflow policy when full. It
// reports whether v itself was enqueued; a false return means v was
// dropped (and counted). Under the Block policy Push waits for space
// and only fails once the queue is closed.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.policy == Block {
		waited := false
		var start time.Time
		for q.count == q.capacity && !q.closed {
			if !waited {
				waited = true
				start = time.Now()
				q.st.Blocked++
			}
			q.notFull.Wait()
		}
		if waited {
			q.st.BlockedNs += int64(time.Since(start))
		}
	}
	if q.closed {
		q.drop(v)
		q.mu.Unlock()
		return false
	}
	if q.count == q.capacity {
		switch q.policy {
		case DropNewest:
			q.drop(v)
			q.mu.Unlock()
			return false
		case SpillToStorage:
			victim := q.evict()
			if q.spill == nil {
				q.drop(victim)
			} else if err := q.spill(victim); err != nil {
				q.st.SpillErrors++
				q.drop(victim)
			} else {
				q.st.Spilled++
			}
		default: // DropOldest
			q.drop(q.evict())
		}
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	q.st.Pushed++
	if q.count > q.st.Peak {
		q.st.Peak = q.count
	}
	q.notEmpty.Signal()
	q.mu.Unlock()
	return true
}

// grow widens the ring toward capacity, linearizing the live elements
// to the front of the new buffer. Callers hold mu and have checked
// count == len(buf) < capacity.
func (q *Queue[T]) grow() {
	newCap := 2 * len(q.buf)
	if newCap < 16 {
		newCap = 16
	}
	if newCap > q.capacity {
		newCap = q.capacity
	}
	nb := make([]T, newCap)
	if q.count > 0 {
		n := copy(nb, q.buf[q.head:])
		copy(nb[n:], q.buf[:q.head])
	}
	q.buf = nb
	q.head = 0
}

// drop counts a lost element and runs the OnDrop hook. Callers hold mu.
func (q *Queue[T]) drop(v T) {
	q.st.Dropped++
	if q.onDrop != nil {
		q.onDrop(v)
	}
}

// evict removes and returns the oldest element. Callers hold mu and
// have checked count > 0.
func (q *Queue[T]) evict() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return v
}

// TryPop dequeues the next element without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		var zero T
		return zero, false
	}
	v := q.evict()
	q.notFull.Signal()
	return v, true
}

// PopWait dequeues the next element, waiting until one is available or
// the queue is closed. After Close it drains remaining elements before
// reporting false.
func (q *Queue[T]) PopWait() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		var zero T
		return zero, false
	}
	v := q.evict()
	q.notFull.Signal()
	return v, true
}

// Close marks the queue closed: blocked producers fail their push
// (counted as drops), and consumers drain what remains before PopWait
// reports false. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// Len returns the current occupancy.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Policy returns the queue's overflow policy.
func (q *Queue[T]) Policy() OverflowPolicy { return q.policy }

// Stats returns an activity snapshot.
func (q *Queue[T]) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Len = q.count
	return st
}
