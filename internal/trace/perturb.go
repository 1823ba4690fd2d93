package trace

import (
	"errors"
	"math"
	"slices"
)

// Perturbation compensation, after Malony, Reed and Wijshoff
// ("Performance Measurement Intrusion and Perturbation Analysis", the
// paper's reference [16], discussed in §4): "The goal of perturbation
// compensation is to reconstruct the actual program behavior from the
// perturbed behavior as it may be recorded by the IS."
//
// The model implemented here is the standard time-based one: every
// captured event carries a fixed per-event instrumentation overhead,
// and every IS flush inserts a known stall (recorded as KindFlush
// markers whose Payload is the stall duration in ns). Compensation
// subtracts, per process timeline, the accumulated overhead from each
// event's timestamp, then re-establishes cross-process consistency by
// delaying receives to not precede their matching (compensated) sends.

// CompensateOptions parameterizes perturbation compensation.
type CompensateOptions struct {
	// PerEventOverheadNs is the capture cost charged to every
	// non-flush record.
	PerEventOverheadNs int64
	// MinMessageLatencyNs is the minimum send->recv latency enforced
	// when re-aligning messages (models wire time).
	MinMessageLatencyNs int64
	// DropFlushRecords removes KindFlush markers from the output.
	DropFlushRecords bool
}

// Compensate returns a new trace with instrumentation perturbation
// removed under the given model. The input must be time-sorted; the
// output is time-sorted. Records are copied, not mutated in place.
func Compensate(rs []Record, opt CompensateOptions) ([]Record, error) {
	c := NewCompensator(opt)
	c.out = make([]Record, 0, len(rs))
	c.Consume(rs)
	return c.Result()
}

// Compensator is Compensate as a fold over a time-sorted stream
// consumed batch by batch: the input must be time-sorted across the
// whole stream, and the result does not depend on where the stream
// was cut into batches.
type Compensator struct {
	opt      CompensateOptions
	last     int64 // time of the last record consumed, dropped flushes included
	unsorted bool  // the stream went back in time; ends the fold
	matchErr error // first receive with no matching send

	// offset per timeline: the forward shifts of re-aligned receives
	// less the overhead removed so far.
	offset  map[SourceKey]int64
	pending map[msgKey][]int64 // compensated send times, FIFO
	out     []Record
}

// NewCompensator returns an empty Compensator. Invalid options are
// reported by Result.
func NewCompensator(opt CompensateOptions) *Compensator {
	return &Compensator{opt: opt, last: math.MinInt64,
		offset: map[SourceKey]int64{}, pending: map[msgKey][]int64{}}
}

// Consume folds the next batch of the stream. Each record loses the
// overhead accumulated on its timeline; a receive that would then
// precede its matching send is pushed forward, and so is the rest of
// its timeline.
func (c *Compensator) Consume(rs []Record) {
	for _, r := range rs {
		if c.unsorted {
			return
		}
		if r.Time < c.last {
			c.unsorted = true
			return
		}
		c.last = r.Time
		key := SourceKey{r.Node, r.Process}
		r.Time += c.offset[key]
		if r.Kind == KindFlush {
			// The whole stall is IS artifact: remove it from this
			// timeline's future. The flush starts before its own stall.
			c.offset[key] -= r.Payload
			if c.opt.DropFlushRecords {
				continue
			}
		} else {
			c.offset[key] -= c.opt.PerEventOverheadNs
		}
		switch r.Kind {
		case KindSend:
			mk := sendKey(&r)
			c.pending[mk] = append(c.pending[mk], r.Time)
		case KindRecv:
			mk := recvKey(&r)
			q := c.pending[mk]
			if len(q) == 0 {
				if c.matchErr == nil {
					c.matchErr = errors.New("trace: receive without matching send during compensation")
				}
				break
			}
			c.pending[mk] = q[1:]
			if earliest := q[0] + c.opt.MinMessageLatencyNs; r.Time < earliest {
				c.offset[key] += earliest - r.Time
				r.Time = earliest
			}
		}
		c.out = append(c.out, r)
	}
}

// Result returns the compensated stream consumed so far, time-sorted.
// The slice is the Compensator's own and is re-sorted in place by the
// next Result.
func (c *Compensator) Result() ([]Record, error) {
	switch {
	case c.opt.PerEventOverheadNs < 0 || c.opt.MinMessageLatencyNs < 0:
		return nil, errors.New("trace: negative compensation parameters")
	case c.unsorted:
		return nil, errors.New("trace: compensate requires time-sorted input")
	case c.matchErr != nil:
		return nil, c.matchErr
	}
	slices.SortStableFunc(c.out, compareByTime)
	return c.out, nil
}

// OverheadReport quantifies IS perturbation present in a trace.
type OverheadReport struct {
	Events        int
	FlushCount    int
	FlushStallNs  int64 // total stall time recorded by flush markers
	SpanNs        int64 // last - first timestamp
	FlushFraction float64
}

// MeasureOverhead scans a trace for IS-induced overhead markers.
func MeasureOverhead(rs []Record) OverheadReport {
	var rep OverheadReport
	if len(rs) == 0 {
		return rep
	}
	minT, maxT := rs[0].Time, rs[0].Time
	for _, r := range rs {
		if r.Time < minT {
			minT = r.Time
		}
		if r.Time > maxT {
			maxT = r.Time
		}
		if r.Kind == KindFlush {
			rep.FlushCount++
			rep.FlushStallNs += r.Payload
		} else {
			rep.Events++
		}
	}
	rep.SpanNs = maxT - minT
	if rep.SpanNs > 0 {
		rep.FlushFraction = float64(rep.FlushStallNs) / float64(rep.SpanNs)
	}
	return rep
}
