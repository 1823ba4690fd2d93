// Package oracle checks that a benchmark run was also a correct one.
// Every check is O(1) per record so it can run inside the sink of a
// saturated pipeline: a multiset digest compared between what the
// generators emitted and what the sink saw (conservation: nothing
// dropped, lost or duplicated), per-source FIFO, the event-graph rule
// that every receive follows its send, Lamport stamps that only grow,
// and — at a federation root — the (Time, Node, Process) total order.
package oracle

import (
	"fmt"

	"prism/bench/gen"
	"prism/internal/trace"
)

// Hash digests the fields of a record that the runtime must deliver
// unchanged. Logical is left out: it carries the capture sequence into
// the manager and a Lamport stamp out of it.
func Hash(r *trace.Record) uint64 {
	x := uint64(r.Time)*0x9e3779b97f4a7c15 ^
		uint64(r.Payload)*0xc2b2ae3d27d4eb4f ^
		(uint64(uint32(r.Node))<<40|uint64(uint32(r.Process))<<24|uint64(r.Kind)<<16|uint64(r.Tag))*0x165667b19e3779f9
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// Sum is an order-independent digest of a multiset of records.
type Sum struct {
	Count uint64
	Hash  uint64
}

// Add folds one record in.
func (s *Sum) Add(r *trace.Record) {
	s.Count++
	s.Hash += Hash(r)
}

// Merge folds another digest in.
func (s *Sum) Merge(o Sum) {
	s.Count += o.Count
	s.Hash += o.Hash
}

// causalWindow is how many records from the start of a run are kept for
// trace.CheckCausal, the repo's own whole-stream checker. It has to
// start at the first record: a window cut from the middle would see
// receives whose sends came before it.
const causalWindow = 1 << 16

// Sink checks a dispatched stream record by record. It is used from one
// goroutine, the dispatcher's.
type Sink struct {
	// Lamport asks for strictly increasing Logical stamps: true behind
	// an ordered manager or a root relay.
	Lamport bool
	// RootOrder asks for nondecreasing (Time, Node, Process): true at a
	// federation root.
	RootOrder bool

	Sum
	seen     [gen.Sources]uint64
	lastTime [gen.Sources]int64
	sends    [gen.Nodes * gen.Nodes * gen.PairTags]int32
	logical  uint64
	last     trace.Record
	window   []trace.Record

	foreign, fifo, recvFirst, lamport, inversions uint64
}

// Seen is how many records of a source the sink has observed: the
// per-source capture sequence of the next one.
func (s *Sink) Seen(src int) uint64 { return s.seen[src] }

// Observe checks one dispatched record.
func (s *Sink) Observe(r *trace.Record) {
	if uint32(r.Node) >= gen.Nodes || uint32(r.Process) >= gen.Procs {
		s.foreign++
		return
	}
	src := gen.Source(r)
	if s.seen[src] > 0 && r.Time <= s.lastTime[src] {
		s.fifo++
	}
	s.lastTime[src] = r.Time
	s.seen[src]++
	s.Add(r)

	switch r.Kind {
	case trace.KindSend:
		if peer := uint64(r.Payload); peer < gen.Nodes && r.Tag < gen.PairTags {
			s.sends[(int(r.Node)*gen.Nodes+int(peer))*gen.PairTags+int(r.Tag)]++
		}
	case trace.KindRecv:
		if peer := uint64(r.Payload); peer < gen.Nodes && r.Tag < gen.PairTags {
			i := (int(peer)*gen.Nodes+int(r.Node))*gen.PairTags + int(r.Tag)
			if s.sends[i] == 0 {
				s.recvFirst++
			} else {
				s.sends[i]--
			}
		}
	}
	if s.Lamport {
		if r.Logical <= s.logical {
			s.lamport++
		}
		s.logical = r.Logical
	}
	if s.RootOrder {
		if s.Count > 1 && r.Before(s.last) {
			s.inversions++
		}
		s.last = *r
	}
	if s.Lamport && len(s.window) < causalWindow {
		s.window = append(s.window, *r)
	}
}

// Report is the outcome of a run's checks. Each count is a number of
// records; Failed is their sum.
type Report struct {
	Dropped      uint64 // emitted but never dispatched
	Duplicated   uint64 // dispatched more often than emitted
	Corrupted    uint64 // 1 when counts agree but the digests do not
	Foreign      uint64 // records from a source the generator does not have
	FIFO         uint64 // out of per-source order
	RecvFirst    uint64 // receives dispatched before their send
	Lamport      uint64 // Logical stamps that did not grow
	Inversions   uint64 // root (Time, Node, Process) order broken
	CausalWindow uint64 // 1 when trace.CheckCausal rejects the run's first records
	Detail       string
}

// Failed is the number of records the run got wrong.
func (r Report) Failed() uint64 {
	return r.Dropped + r.Duplicated + r.Corrupted + r.Foreign + r.FIFO +
		r.RecvFirst + r.Lamport + r.Inversions + r.CausalWindow
}

func (r Report) String() string {
	return fmt.Sprintf("dropped=%d duplicated=%d corrupted=%d foreign=%d fifo=%d recv-before-send=%d lamport=%d root-inversions=%d causal-window=%d %s",
		r.Dropped, r.Duplicated, r.Corrupted, r.Foreign, r.FIFO, r.RecvFirst, r.Lamport, r.Inversions, r.CausalWindow, r.Detail)
}

// Finish compares what the sink saw with what the generators emitted
// (per-source counts and the multiset digest) and returns the run's
// report.
func (s *Sink) Finish(emitted Sum, perSource [gen.Sources]uint64) Report {
	rep := Report{
		Foreign: s.foreign, FIFO: s.fifo, RecvFirst: s.recvFirst,
		Lamport: s.lamport, Inversions: s.inversions,
	}
	for src, want := range perSource {
		switch got := s.seen[src]; {
		case got < want:
			rep.Dropped += want - got
		case got > want:
			rep.Duplicated += got - want
		}
	}
	if rep.Dropped == 0 && rep.Duplicated == 0 && s.Sum != emitted {
		rep.Corrupted = 1
	}
	if s.Lamport {
		if err := trace.CheckCausal(s.window); err != nil {
			rep.CausalWindow = 1
			rep.Detail = err.Error()
		}
	}
	return rep
}

// Scan checks a storage scan against what was appended: the same
// multiset, in append order (the generator appends in due-time order,
// so Times must strictly increase).
type Scan struct {
	Sum
	last    int64
	reorder uint64
}

// Observe checks one scanned record.
func (s *Scan) Observe(r *trace.Record) {
	if s.Count > 0 && r.Time <= s.last {
		s.reorder++
	}
	s.last = r.Time
	s.Add(r)
}

// Finish returns the number of records the scan got wrong against the
// digest of what the store held when the scan's snapshot was taken.
func (s *Scan) Finish(appended Sum) uint64 {
	bad := s.reorder
	switch {
	case s.Count < appended.Count:
		bad += appended.Count - s.Count
	case s.Count > appended.Count:
		bad += s.Count - appended.Count
	case s.Hash != appended.Hash:
		bad++
	}
	return bad
}

// Backlog is the open-loop delivery test: over a paced run, what the
// sink has dispatched must track what the schedule has offered. It
// returns the number of records counted as undelivered — the final
// backlog when that exceeds 1 % of the offered load, or when the
// backlog over the last quarter of the slices is larger than over the
// first quarter by more than that margin (a queue that is growing, so
// the rate is not sustained). offered and dispatched are cumulative
// counts at the end of each slice.
func Backlog(offered, dispatched []uint64) uint64 {
	n := len(offered)
	if n == 0 || n != len(dispatched) {
		return 0
	}
	lag := func(i int) uint64 {
		if dispatched[i] >= offered[i] {
			return 0
		}
		return offered[i] - dispatched[i]
	}
	margin := offered[n-1] / 100
	final := lag(n - 1)
	if final > margin {
		return final
	}
	q := n / 4
	if q == 0 {
		return 0
	}
	var head, tail uint64
	for i := 0; i < q; i++ {
		head += lag(i)
		tail += lag(n - 1 - i)
	}
	if tail/uint64(q) > head/uint64(q)+margin {
		return tail / uint64(q)
	}
	return 0
}
