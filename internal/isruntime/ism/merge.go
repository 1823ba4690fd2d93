package ism

import (
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// The merge point behind the sharded ingest: the flat-manager
// configuration of flow.Merger. Each shard lane sequences its own
// sources and pushes program-ordered sub-streams into its merge lane;
// the core k-way merges the lane heads on their global ingest tick and
// hands each slot, whole, to dispatch below, which runs it through the
// manager's flow.Tail (causal stamp, spool, tools). The frontier source
// is the lane's batch ledger (passed). A lane the merger stalls on
// always has outstanding batches, so it makes progress; a lane blocked
// on a full ring has a head in the heap by definition and is never
// stalled on.

// mergeSlot is one element of a shard's ordered sub-stream: the
// pool-owned records one input batch released from the lane's
// sequencer, keyed by that batch's global ingest tick and carrying its
// arrival timestamp for the dispatch-latency metric.
type mergeSlot struct {
	tick    uint64
	arrival int64
	recs    []trace.Record
}

type mergeLane = flow.MergeLane[mergeSlot, *ismShard]

// merger is the merge core plus the dispatch state its goroutine owns.
type merger struct {
	*flow.Merger[mergeSlot, *ismShard]
	m *ISM

	order orderBook // what the tail's causal merger last published

	// Under Config.DeferCausal (restamp) dispatched records leave with
	// fresh per-source uplink sequence numbers, counted in uplinkSeq:
	// the leaf's contribution to the cross-manager contract (contiguous
	// per-source sequences for the relay's lane sequencers).
	restamp   bool
	uplinkSeq trace.SourceTable[uint64]

	slots  *metrics.Counter
	stalls *metrics.Counter
}

func newMerger(m *ISM) *merger {
	s := m.ctr.reg.Scope("ism").Scope("merge")
	g := &merger{m: m, restamp: m.cfg.Ordered && m.cfg.DeferCausal, slots: s.Counter("slots"), stalls: s.Counter("stalls")}
	g.Merger = flow.NewMerger(flow.MergeParams[mergeSlot, *ismShard]{
		RingCap: m.cfg.MergeRingCapacity,
		Scope:   s,
		Clock:   m.clock,
		Less:    func(a, b *mergeSlot) bool { return a.tick < b.tick },
		Passed:  passed,
		Consume: g.dispatch,
		OnPark: func(blocker *mergeLane, _ *mergeSlot) {
			if blocker != nil {
				sh := blocker.State
				sh.lagGauge.Set(int64(m.tick.Load() - sh.frontier.Load()))
			}
		},
	})
	return g
}

// passed is the lane frontier predicate. pushed must be read BEFORE
// settled: a batch counted after the read drew its tick after the
// candidate existed, so its tick exceeds the candidate's and cannot
// invalidate the dispatch. Reading the pair the other way around
// livelocks under a steady stream of instantly-settling batches (e.g.
// drops on a closing stage): settled would forever trail the in-flight
// push between the two loads. The frontier watermark is monotone, and
// with tick-sorted lane streams everything still queued is newer.
func passed(s *ismShard, head *mergeSlot) bool {
	p := s.pushedBatches.Load()
	return s.settledBatches.Load() >= p || s.frontier.Load() >= head.tick
}

// dispatch consumes one merged slot whole: the deferred-causal restamp
// (when configured), then the tail. All records in a slot share the
// arrival batch, so the latency observation and the batch-pool round
// trip stay per-slot.
func (g *merger) dispatch(_ *ismShard, slot *mergeSlot) bool {
	m := g.m
	g.slots.Inc()
	if g.restamp {
		// Deferred causal mode: the record leaves this manager in
		// program order with a fresh per-source uplink sequence in
		// Logical — contiguous even when the inbound capture sequence
		// stream was not (dedup, resume adoption).
		for i := range slot.recs {
			rec := &slot.recs[i]
			next := g.uplinkSeq.Get(trace.SourceKey{Node: rec.Node, Process: rec.Process})
			rec.Logical = *next
			*next++
		}
	}
	// Latency is attributed to the arriving batch that caused dispatch;
	// records the causal merger held are folded in when released.
	now := m.clock.Now()
	if out := m.tail.Emit(slot.recs); len(out) > 0 {
		m.ctr.latency.Observe(now - slot.arrival)
	}
	held, outOfOrder := m.tail.Holding()
	g.order.publish(&m.ctr, held, outOfOrder)
	flow.PutBatch(slot.recs)
	return true
}
