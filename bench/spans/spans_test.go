package spans

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// A hand-built tree:
//
//	0 root   [0,100]
//	1 ├ a    [10,40]    child of 0
//	2 │ └ a1 [15,25]    child of 1
//	3 ├ b    [30,60]    child of 0, overlaps a by 10
//	4 └ c    [90,120]   child of 0, runs 20 past the root's end
//	5 lone   [200,250]  no parent
func tree() []Span {
	return []Span{
		{Name: 0, Parent: NoParent, Start: 0, End: 100},
		{Name: 1, Parent: 0, Start: 10, End: 40},
		{Name: 2, Parent: 1, Start: 15, End: 25},
		{Name: 1, Parent: 0, Start: 30, End: 60},
		{Name: 1, Parent: 0, Start: 90, End: 120},
		{Name: 0, Parent: NoParent, Start: 200, End: 250},
	}
}

func TestSelfTimes(t *testing.T) {
	got := SelfTimes(tree())
	// root: 100 - a(30) - b's uncovered part (40..60 = 20) - c clipped
	// to the root (90..100 = 10) = 40.
	want := []int64{40, 20, 10, 30, 30, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	stats := Summarize(tree(), 3)
	if s := stats[0]; s.Count != 2 || s.Total != 150 || s.Self != 90 {
		t.Errorf("name 0: %+v", s)
	}
	if s := stats[1]; s.Count != 3 || s.Total != 90 || s.Self != 80 {
		t.Errorf("name 1: %+v", s)
	}
	if s := stats[2]; s.Count != 1 || s.Total != 10 || s.Self != 10 {
		t.Errorf("name 2: %+v", s)
	}
}

func TestRecorderBufferAndDump(t *testing.T) {
	rec := NewRecorder(4, []string{"alpha", "beta"})
	parent := rec.Reserve()
	child := rec.Add(Span{Name: 1, Parent: parent, Node: 3, Seq: 7, Start: 5, End: 9})
	rec.Finish(parent, Span{Name: 0, Parent: NoParent, Start: 1, End: 10})
	rec.Add(Span{Name: 1, Parent: NoParent})
	rec.Add(Span{Name: 1, Parent: NoParent})
	if id := rec.Add(Span{Name: 1}); id != NoParent || rec.Dropped() != 1 {
		t.Fatalf("fifth span into a buffer of four: id %d, dropped %d", id, rec.Dropped())
	}
	got := rec.Spans()
	if len(got) != 4 || got[parent].End != 10 || got[child].Parent != parent || got[child].Seq != 7 {
		t.Fatalf("recorded %+v", got)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// u32 names, 2 x (u16 + bytes), u64 count, 4 spans of 33 bytes.
	if want := int64(4 + 2 + 5 + 2 + 4 + 8 + 4*33); n != want || int64(buf.Len()) != want {
		t.Fatalf("dump is %d bytes (%d reported), want %d", buf.Len(), n, want)
	}
	if count := binary.LittleEndian.Uint64(buf.Bytes()[17:]); count != 4 {
		t.Fatalf("dump says %d spans", count)
	}
}

// The ledger's three lines must add up to the end-to-end figure, gap
// included, and the table must show them.
func TestLedgerAddsUp(t *testing.T) {
	l := Ledger{
		Workload: "w",
		Stages:   []Stage{{"one", 30}, {"two", 45.5}},
		Loadgen:  12,
		EndToEnd: 100,
	}
	if l.Attributed() != 75.5 {
		t.Fatalf("attributed %v", l.Attributed())
	}
	if sum := l.Attributed() + l.Loadgen + l.Unattributed(); math.Abs(sum-l.EndToEnd) > 1e-9 {
		t.Fatalf("lines sum to %v, end to end is %v", sum, l.EndToEnd)
	}
	var buf bytes.Buffer
	l.Render(&buf)
	for _, want := range []string{"one", "two", "attributed", "loadgen", "unattributed", "end to end", "12.50"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
	over := Ledger{Stages: []Stage{{"big", 90}}, Loadgen: 20, EndToEnd: 100}
	if over.Unattributed() != -10 {
		t.Fatalf("overstated probes must show as a negative gap, got %v", over.Unattributed())
	}
}

// The connection decorator must record one span per call, carry the
// batch's identity, and leave the traffic alone.
func TestConnDecorator(t *testing.T) {
	rec := NewRecorder(16, []string{"send", "recv"})
	near, far := tp.Pipe(4)
	sender := WrapConn(near, rec, 0, 1)
	receiver := WrapConn(far, rec, 0, 1)
	var noted []int32
	receiver.OnRecv = func(m *tp.Message, span int32, end int64) { noted = append(noted, span) }

	batch := []trace.Record{{Node: 5, Logical: 42}, {Node: 5, Logical: 43}}
	sender.Parent.Store(9)
	if err := sender.Send(tp.DataMessage(5, batch)); err != nil {
		t.Fatal(err)
	}
	if err := sender.SendBatch([]tp.Message{tp.DataMessage(5, batch), tp.DataMessage(5, batch)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, err := receiver.Recv()
		if err != nil || len(m.Records) != 2 || m.Records[0].Logical != 42 {
			t.Fatalf("message %d: %+v, %v", i, m, err)
		}
	}
	if receiver.ColumnarActive() {
		t.Error("a pipe negotiates no columnar framing")
	}
	spans := rec.Spans()
	if len(spans) != 5 { // Send, SendBatch, three Recvs
		t.Fatalf("%d spans recorded, want 5", len(spans))
	}
	if s := spans[0]; s.Name != 0 || s.Parent != 9 || s.Node != 5 || s.Seq != 42 || s.End < s.Start {
		t.Errorf("send span %+v", s)
	}
	if s := spans[2]; s.Name != 1 || s.Parent != NoParent || s.Node != 5 || s.Seq != 42 {
		t.Errorf("recv span %+v", s)
	}
	if len(noted) != 3 || noted[0] != 2 {
		t.Errorf("OnRecv saw spans %v", noted)
	}
	if err := sender.Close(); err != nil {
		t.Fatal(err)
	}
}
