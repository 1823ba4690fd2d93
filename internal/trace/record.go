// Package trace implements instrumentation-data management: the event
// record format shared by all LIS implementations, binary and text
// codecs, trace files, multi-node merging, Lamport logical clocks for
// causal ordering (the technique "of assigning logical time-stamps, as
// implemented by VIZIR", §3.3), and perturbation compensation in the
// spirit of Malony, Reed and Wijshoff (the paper's reference [16]).
//
// The paper's term "instrumentation data" covers both execution
// information (messages, I/O) and program information (variables,
// metric samples); Record carries either through the Kind and Payload
// fields.
package trace

import (
	"fmt"
	"slices"
	"strconv"
)

// Kind identifies what a Record describes, in the spirit of the PICL
// event-record vocabulary.
type Kind uint8

// Record kinds. The numbering is part of the binary trace format and
// must not be reordered.
const (
	KindUser    Kind = iota // user-defined event
	KindSend                // message send; Payload = destination node
	KindRecv                // message receive; Payload = source node
	KindBlockIn             // enter instrumented block; Payload = block id
	KindBlockOut
	KindSample // metric sample; Payload = raw metric value
	KindFlush  // IS buffer flush marker (IS-internal perturbation)
	KindMark   // phase marker
	numKinds
)

var kindNames = [...]string{
	KindUser: "user", KindSend: "send", KindRecv: "recv",
	KindBlockIn: "block-in", KindBlockOut: "block-out",
	KindSample: "sample", KindFlush: "flush", KindMark: "mark",
}

// String returns the record kind's canonical lowercase name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool { return k < numKinds }

// Record is one instrumentation event record. Timestamps are
// nanoseconds of virtual or physical time; Logical is the Lamport
// timestamp assigned at ordering time (zero until assigned).
type Record struct {
	Node    int32 // concurrent-system node that generated the event
	Process int32 // process id on that node
	Kind    Kind
	Tag     uint16 // user event tag / metric id
	Time    int64  // capture timestamp, ns
	Logical uint64 // Lamport timestamp (assigned by the ISM)
	Payload int64  // kind-specific datum
}

// String renders the record in the stable single-line text form used
// by trace dumps.
func (r Record) String() string { return string(r.AppendText(nil)) }

// AppendText appends the record's single-line text form (no trailing
// newline) to dst and returns the extended slice, so a dump of many
// records can render through one reused buffer instead of allocating a
// string per record.
func (r Record) AppendText(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(r.Node), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.Process), 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Kind.String()...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(r.Tag), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, r.Time, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, r.Logical, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, r.Payload, 10)
	return dst
}

// Before reports whether r precedes o in (Time, Node, Process) order,
// the total order used for merged off-line traces.
func (r Record) Before(o Record) bool { return Precedes(&r, &o) }

// Precedes is Before through pointers, for merge loops: an inlined
// Before copies both records to the stack, Precedes neither.
func Precedes(a, b *Record) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Process < b.Process
}

// compareByTime is the merged-trace total order as a three-way
// comparison, shared by the stable sorts here and in perturbation
// compensation. slices.SortStableFunc with a concrete comparator
// avoids the reflection-based swapping of sort.SliceStable on this
// hot path.
func compareByTime(a, b Record) int {
	if a.Time != b.Time {
		if a.Time < b.Time {
			return -1
		}
		return 1
	}
	if a.Node != b.Node {
		return int(a.Node) - int(b.Node)
	}
	return int(a.Process) - int(b.Process)
}

// SortByTime sorts records in the merged-trace total order.
func SortByTime(rs []Record) {
	slices.SortStableFunc(rs, compareByTime)
}

// SortByLogical sorts records by assigned Lamport timestamp, breaking
// ties by node then process, the order used for on-line dispatch.
func SortByLogical(rs []Record) {
	slices.SortStableFunc(rs, func(a, b Record) int {
		if a.Logical != b.Logical {
			if a.Logical < b.Logical {
				return -1
			}
			return 1
		}
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Process) - int(b.Process)
	})
}

// Merge merges per-node traces, each already sorted by time, into one
// trace in the merged-trace total order (the PICL ISM's "merging
// distributed buffers as a trace file", Table 1). It runs a k-way
// merge, O(n log k).
func Merge(traces ...[]Record) []Record {
	type cursor struct {
		rs []Record
		i  int
	}
	var heap []cursor
	total := 0
	for _, tr := range traces {
		if len(tr) > 0 {
			heap = append(heap, cursor{rs: tr})
			total += len(tr)
		}
	}
	less := func(a, b cursor) bool { return a.rs[a.i].Before(b.rs[b.i]) }
	// Build binary heap.
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Record, 0, total)
	for len(heap) > 0 {
		c := &heap[0]
		out = append(out, c.rs[c.i])
		c.i++
		if c.i == len(c.rs) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			down(0)
		}
	}
	return out
}

// Validate checks a merged trace for structural sanity: non-decreasing
// time, valid kinds, and matched block in/out nesting per process.
func Validate(rs []Record) error {
	depth := map[[2]int32]int{}
	var last int64
	for i, r := range rs {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace: record %d has invalid kind %d", i, r.Kind)
		}
		if r.Time < last {
			return fmt.Errorf("trace: record %d goes back in time (%d < %d)", i, r.Time, last)
		}
		last = r.Time
		key := [2]int32{r.Node, r.Process}
		switch r.Kind {
		case KindBlockIn:
			depth[key]++
		case KindBlockOut:
			depth[key]--
			if depth[key] < 0 {
				return fmt.Errorf("trace: record %d closes unopened block on node %d process %d", i, r.Node, r.Process)
			}
		}
	}
	for key, d := range depth {
		if d != 0 {
			return fmt.Errorf("trace: node %d process %d ends with %d unclosed blocks", key[0], key[1], d)
		}
	}
	return nil
}
