package ism

import (
	"sync"
	"sync/atomic"

	"prism/internal/isruntime/flow"
)

// Input buffer stages, built on flow.Queue so the overflow discipline
// is pluggable and uniform with the LIS and TP layers. The unit of
// transfer is a whole batch envelope — one LIS flush — not a single
// record: DeWiz-style pipelines only scale when every stage moves
// blocks of events. The SISO stage is one bounded FIFO shared by all
// sources; the MISO stage keeps one FIFO per source and scans sources
// round-robin on pop — the per-buffer maintenance work that makes MISO
// "incur more overhead, especially in accessing memory ... under high
// arrival rate conditions" (§3.3.2).
//
// Because queue elements are batches, the loss accounting the ISM
// exposes stays record-granular: every stage counts dropped and
// spilled records (not batches) through its OnDrop and spill hooks,
// which also return the slices to the batch pool so a policy drop
// cannot leak pool capacity.
type inputStage interface {
	// push enqueues a batch envelope from the given source node,
	// applying the stage's overflow policy when the target buffer is
	// full.
	push(node int32, e batchEnv)
	// pop dequeues the next envelope, reporting false when empty. It
	// never blocks.
	pop() (batchEnv, bool)
	// dropped returns the number of records lost to overflow or close.
	dropped() uint64
	// spilled returns the number of records demoted to the spill
	// target under SpillToStorage.
	spilled() uint64
	// close rejects further pushes (counted as drops); queued
	// envelopes remain poppable.
	close()
}

// stageAccounting is the record-granular drop/spill bookkeeping both
// stages share.
type stageAccounting struct {
	droppedRecs atomic.Uint64
	spilledRecs atomic.Uint64
}

// onDropEnv builds the OnDrop hook: count the batch's records as
// dropped and recycle the slice. extra runs afterwards (the
// MISO stage uses it to maintain its occupancy hints); settle tells
// the owning lane the batch left the stage without being popped, so
// the merger stops waiting for its ingest tick.
func (a *stageAccounting) onDropEnv(extra func(), settle func(batchEnv)) func(batchEnv) {
	return func(e batchEnv) {
		a.droppedRecs.Add(uint64(len(e.recs)))
		flow.PutBatch(e.recs)
		if extra != nil {
			extra()
		}
		if settle != nil {
			settle(e)
		}
	}
}

// spillEnv adapts a storage spill target to batch envelopes: the whole
// batch is appended as one bulk write, counted per record, and the
// slice recycled. extra runs after a successful spill; settle
// as in onDropEnv.
func (a *stageAccounting) spillEnv(s flow.Spill, extra func(), settle func(batchEnv)) func(batchEnv) error {
	if s == nil {
		return nil
	}
	return func(e batchEnv) error {
		if err := s.Append(e.recs...); err != nil {
			return err
		}
		a.spilledRecs.Add(uint64(len(e.recs)))
		flow.PutBatch(e.recs)
		if extra != nil {
			extra()
		}
		if settle != nil {
			settle(e)
		}
		return nil
	}
}

type sisoStage struct {
	stageAccounting
	q *flow.Queue[batchEnv]
}

// newSISOStage builds the shared-FIFO stage. The policy must be valid
// (the ISM constructor checks). capacity counts queued batches; settle
// (may be nil) is notified when a batch is dropped or spilled.
func newSISOStage(capacity int, policy flow.OverflowPolicy, spill flow.Spill, settle func(batchEnv)) *sisoStage {
	s := &sisoStage{}
	q, err := flow.NewQueue[batchEnv](capacity, policy, s.spillEnv(spill, nil, settle))
	if err != nil {
		panic(err)
	}
	q.OnDrop(s.onDropEnv(nil, settle))
	s.q = q
	return s
}

func (s *sisoStage) push(_ int32, e batchEnv) { s.q.Push(e) }

func (s *sisoStage) pop() (batchEnv, bool) { return s.q.TryPop() }

func (s *sisoStage) dropped() uint64 { return s.droppedRecs.Load() }

func (s *sisoStage) spilled() uint64 { return s.spilledRecs.Load() }

func (s *sisoStage) close() { s.q.Close() }

// misoSource is one source's buffer plus an occupancy hint. The hint
// is a safe upper bound on the queue's length: producers increment it
// BEFORE pushing and every path that removes an element (pop, policy
// drop, spill) decrements it after. It can transiently overcount —
// never undercount — so pop may skip a queue only when the hint is
// zero, and the round-robin scan touches just the sources that might
// hold data instead of walking the whole ring when most are idle.
type misoSource struct {
	q    *flow.Queue[batchEnv]
	hint atomic.Int64
}

type misoStage struct {
	stageAccounting
	cap    int
	policy flow.OverflowPolicy
	spill  flow.Spill
	settle func(batchEnv)

	// total upper-bounds the stage-wide occupancy for an O(1) empty
	// fast path on pop.
	total atomic.Int64

	mu     sync.Mutex
	order  []int32
	queues map[int32]*misoSource
	next   int // round-robin cursor
	closed bool
}

func newMISOStage(capacityPerSource int, policy flow.OverflowPolicy, spill flow.Spill, settle func(batchEnv)) *misoStage {
	if !policy.Valid() {
		panic("ism: invalid overflow policy")
	}
	return &misoStage{
		cap:    capacityPerSource,
		policy: policy,
		spill:  spill,
		settle: settle,
		queues: map[int32]*misoSource{},
	}
}

// push enqueues into the source's own buffer, creating it on first
// arrival. The queue push runs outside the stage lock so a Block
// policy stalls only this producer, not the stage. The occupancy hints
// are raised before the push: a consumer that observes the hint but
// loses the race to the push simply retries via the availability
// signal that follows every push.
func (s *misoStage) push(node int32, e batchEnv) {
	s.mu.Lock()
	src, ok := s.queues[node]
	if !ok {
		src = &misoSource{}
		dec := func() {
			src.hint.Add(-1)
			s.total.Add(-1)
		}
		q, err := flow.NewQueue[batchEnv](s.cap, s.policy, s.spillEnv(s.spill, dec, s.settle))
		if err != nil {
			s.mu.Unlock()
			panic(err)
		}
		q.OnDrop(s.onDropEnv(dec, s.settle))
		src.q = q
		if s.closed {
			q.Close()
		}
		s.queues[node] = src
		s.order = append(s.order, node)
	}
	s.mu.Unlock()
	src.hint.Add(1)
	s.total.Add(1)
	src.q.Push(e)
}

func (s *misoStage) pop() (batchEnv, bool) {
	if s.total.Load() <= 0 {
		return batchEnv{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Round-robin scan across per-source buffers, skipping sources
	// whose hint says they cannot hold data.
	n := len(s.order)
	for i := 0; i < n; i++ {
		src := s.queues[s.order[(s.next+i)%n]]
		if src.hint.Load() <= 0 {
			continue
		}
		if e, ok := src.q.TryPop(); ok {
			src.hint.Add(-1)
			s.total.Add(-1)
			s.next = (s.next + i + 1) % n
			return e, true
		}
	}
	return batchEnv{}, false
}

func (s *misoStage) dropped() uint64 { return s.droppedRecs.Load() }

func (s *misoStage) spilled() uint64 { return s.spilledRecs.Load() }

func (s *misoStage) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, src := range s.queues {
		src.q.Close()
	}
}
