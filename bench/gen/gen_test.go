package gen

import (
	"testing"

	"prism/internal/trace"
)

const testBlock = 1 << 14

func TestSameSeedSameStream(t *testing.T) {
	a, b := New(7, testBlock), New(7, testBlock)
	if a.Checksum() != b.Checksum() {
		t.Fatalf("seed 7 gave two streams: %x and %x", a.Checksum(), b.Checksum())
	}
	if a.Span != b.Span || a.PerSource != b.PerSource {
		t.Fatalf("seed 7 gave two shapes: span %d/%d", a.Span, b.Span)
	}
	if c := New(8, testBlock); c.Checksum() == a.Checksum() {
		t.Fatalf("seeds 7 and 8 gave the same stream %x", a.Checksum())
	}
}

// A draw added to one concern must not shift another: the partitions
// are separate streams, not slices of one.
func TestPartitionsAreIsolated(t *testing.T) {
	want := Partition(3, "kinds").Uint64()
	other := Partition(3, "arrivals")
	for i := 0; i < 100; i++ {
		other.Uint64()
	}
	if got := Partition(3, "kinds").Uint64(); got != want {
		t.Fatalf("kinds partition moved after draws on arrivals: %x != %x", got, want)
	}
	if Partition(3, "kinds").Uint64() == Partition(3, "arrivals").Uint64() {
		t.Fatal("two concerns share a stream")
	}
	if Partition(3, "kinds").Uint64() == Partition(4, "kinds").Uint64() {
		t.Fatal("two seeds share a stream")
	}
}

func TestStreamShape(t *testing.T) {
	s := New(1, testBlock)
	var perNode [Nodes]int
	var kinds [8]int
	type key struct {
		from, to int32
		tag      uint16
	}
	open := map[key]int{}
	var last int64 = -1
	var seq [Sources]uint64
	for i := range s.Recs {
		r := &s.Recs[i]
		if r.Time <= last {
			t.Fatalf("record %d: Time %d after %d", i, r.Time, last)
		}
		last = r.Time
		src := Source(r)
		if r.Logical != seq[src] {
			t.Fatalf("record %d: source %d sequence %d, want %d", i, src, r.Logical, seq[src])
		}
		seq[src]++
		perNode[r.Node]++
		kinds[r.Kind]++
		switch r.Kind {
		case trace.KindSend:
			if r.Tag >= PairTags || int32(r.Payload) == r.Node {
				t.Fatalf("record %d: bad send tag %d peer %d", i, r.Tag, r.Payload)
			}
			open[key{r.Node, int32(r.Payload), r.Tag}]++
		case trace.KindRecv:
			k := key{int32(r.Payload), r.Node, r.Tag}
			if open[k] == 0 {
				t.Fatalf("record %d: receive without an earlier send %+v", i, k)
			}
			open[k]--
		default:
			if perNode[r.Node]%256 == 0 && r.Tag&MarkNode256 == 0 {
				t.Fatalf("record %d fills node %d's 256-buffer unmarked", i, r.Node)
			}
			if perNode[r.Node]%32 != 0 && r.Tag&MarkNode32 != 0 {
				t.Fatalf("record %d marked as filling a 32-buffer it does not fill", i)
			}
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Fatalf("send %+v never received inside the block", k)
		}
	}
	for n, c := range perNode {
		if c != testBlock/Nodes {
			t.Fatalf("node %d has %d records, want %d", n, c, testBlock/Nodes)
		}
	}
	if s.PerSource != seq {
		t.Fatalf("PerSource %v != counted %v", s.PerSource, seq)
	}
	share := func(n int) float64 { return float64(n) / testBlock }
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"user", share(kinds[trace.KindUser]), 0.40},
		{"sample", share(kinds[trace.KindSample]), 0.20},
		{"block", share(kinds[trace.KindBlockIn] + kinds[trace.KindBlockOut]), 0.20},
		{"send+recv", share(kinds[trace.KindSend] + kinds[trace.KindRecv]), 0.20},
	} {
		if c.got < c.want-0.03 || c.got > c.want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", c.name, c.got, c.want)
		}
	}
}

// The cursor must hand out one endless stream: Times keep increasing
// and every source's sequence stays contiguous across cycle boundaries,
// for the whole block and for each generator's part.
func TestCursorCycles(t *testing.T) {
	s := New(2, testBlock)
	for _, recs := range append(s.Split(2), s.Recs) {
		cur := s.Cursor(recs)
		var last int64 = -1
		seq := map[int]uint64{}
		for i := 0; i < 3*len(recs)+5; i++ {
			if peek := cur.PeekTime(); peek <= last {
				t.Fatalf("PeekTime %d after %d", peek, last)
			}
			r := cur.Next()
			if r.Time <= last {
				t.Fatalf("record %d: Time %d after %d", i, r.Time, last)
			}
			last = r.Time
			src := Source(&r)
			if r.Logical != seq[src] {
				t.Fatalf("record %d: source %d sequence %d, want %d", i, src, r.Logical, seq[src])
			}
			seq[src]++
		}
	}
}

func TestSplitCoversTheBlock(t *testing.T) {
	s := New(5, testBlock)
	parts := s.Split(2)
	if len(parts[0])+len(parts[1]) != len(s.Recs) {
		t.Fatalf("parts hold %d+%d of %d records", len(parts[0]), len(parts[1]), len(s.Recs))
	}
	for p, part := range parts {
		for _, r := range part {
			if int(r.Node)/(Nodes/2) != p {
				t.Fatalf("node %d in part %d", r.Node, p)
			}
		}
	}
}
