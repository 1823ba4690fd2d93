// Package spans is the benchmark's own tracing: spans recorded by
// decorators around the calls into each runtime layer (nothing inside
// the program is instrumented), kept in a pre-sized in-memory buffer
// and written out when the run ends, plus the per-workload cost ledger
// built from the layer probes.
package spans

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Parent is the index of the span
// that caused it (NoParent for a root); Node and Seq identify the batch
// the call carried — the node and per-source capture sequence of its
// first record — so the spans of one batch can be followed across
// goroutines.
type Span struct {
	Name       uint8
	Parent     int32
	Node       int32
	Seq        uint64
	Start, End int64 // ns since the recorder was created
}

// NoParent marks a root span.
const NoParent int32 = -1

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	names   []string
	base    time.Time
	spans   []Span
	n       atomic.Int64
	dropped atomic.Int64
}

// NewRecorder pre-sizes a buffer for capacity spans; names[i] is the
// display name of Span.Name == i.
func NewRecorder(capacity int, names []string) *Recorder {
	return &Recorder{names: names, base: time.Now(), spans: make([]Span, capacity)}
}

// Now is the recorder's clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// Add records one finished span and returns its index, or NoParent when
// the buffer is full (the span is then counted as dropped).
func (r *Recorder) Add(s Span) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return NoParent
	}
	r.spans[i] = s
	return int32(i)
}

// Reserve claims an index for a span whose children must name it as
// their parent before it has ended; Finish fills it in.
func (r *Recorder) Reserve() int32 { return r.Add(Span{}) }

// Finish fills in a reserved span.
func (r *Recorder) Finish(i int32, s Span) {
	if i != NoParent {
		r.spans[i] = s
	}
}

// Spans returns what was recorded. Call it once every recording
// goroutine has stopped.
func (r *Recorder) Spans() []Span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// Dropped is the number of spans that did not fit the buffer.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Names returns the span name table.
func (r *Recorder) Names() []string { return r.names }

// SelfTimes returns, for each span, its duration minus the part of that
// interval its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	// cover[p] is the end of the part of p already covered by earlier
	// children. Children of one parent are recorded in start order by
	// the decorators (a child is added when it ends, and siblings do
	// not overlap unless they ran on different goroutines), so one pass
	// suffices; a later child starting before cover is clipped.
	cover := make([]int64, len(spans))
	for i := range cover {
		cover[i] = spans[i].Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 || int(p) >= len(spans) {
			continue
		}
		start, end := s.Start, s.End
		if start < cover[p] {
			start = cover[p]
		}
		if end > spans[p].End {
			end = spans[p].End
		}
		if end > start {
			self[p] -= end - start
			cover[p] = end
		}
	}
	return self
}

// Stat aggregates the spans of one name.
type Stat struct {
	Count int64
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
}

// Summarize aggregates spans per name; the result is indexed by
// Span.Name and has names entries.
func Summarize(spans []Span, names int) []Stat {
	self := SelfTimes(spans)
	out := make([]Stat, names)
	for i, s := range spans {
		if int(s.Name) >= names {
			continue
		}
		st := &out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += self[i]
	}
	return out
}

// WriteTo writes the name table and every recorded span in a flat
// little-endian layout: u32 name count, then per name u16 length +
// bytes, then u64 span count, then 33 bytes per span (name u8, parent
// i32, node i32, seq u64, start i64, end i64).
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	put := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		return err
	}
	var buf [33]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(r.names)))
	if err := put(buf[:4]); err != nil {
		return n, err
	}
	for _, name := range r.names {
		binary.LittleEndian.PutUint16(buf[:], uint16(len(name)))
		if err := put(buf[:2]); err != nil {
			return n, err
		}
		if err := put([]byte(name)); err != nil {
			return n, err
		}
	}
	spans := r.Spans()
	binary.LittleEndian.PutUint64(buf[:], uint64(len(spans)))
	if err := put(buf[:8]); err != nil {
		return n, err
	}
	for _, s := range spans {
		buf[0] = s.Name
		binary.LittleEndian.PutUint32(buf[1:], uint32(s.Parent))
		binary.LittleEndian.PutUint32(buf[5:], uint32(s.Node))
		binary.LittleEndian.PutUint64(buf[9:], s.Seq)
		binary.LittleEndian.PutUint64(buf[17:], uint64(s.Start))
		binary.LittleEndian.PutUint64(buf[25:], uint64(s.End))
		if err := put(buf[:33]); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}
