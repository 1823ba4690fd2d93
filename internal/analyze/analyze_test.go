package analyze

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"prism/internal/trace"
)

// twoNodeTrace: node 0 busy [0,400] then sends; node 1 receives at 600
// and is busy [600, 1000]. Span 0..1000.
func twoNodeTrace() []trace.Record {
	return []trace.Record{
		{Node: 0, Kind: trace.KindBlockIn, Time: 0, Tag: 1},
		{Node: 0, Kind: trace.KindSample, Time: 100, Tag: 5, Payload: 42},
		{Node: 0, Kind: trace.KindBlockOut, Time: 400, Tag: 1},
		{Node: 0, Kind: trace.KindSend, Time: 500, Tag: 9, Payload: 1},
		{Node: 1, Kind: trace.KindRecv, Time: 600, Tag: 9, Payload: 0},
		{Node: 1, Kind: trace.KindBlockIn, Time: 600, Tag: 2},
		{Node: 1, Kind: trace.KindBlockOut, Time: 1000, Tag: 2},
	}
}

func TestAnalyzeProfiles(t *testing.T) {
	rep, err := Analyze(twoNodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpanNs != 1000 {
		t.Fatalf("span %d", rep.SpanNs)
	}
	n0, ok := rep.Node(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	if n0.BusyNs != 400 || math.Abs(n0.Busy-0.4) > 1e-9 {
		t.Fatalf("node 0 busy %+v", n0)
	}
	if n0.Sends != 1 || n0.Samples != 1 || n0.Events != 4 {
		t.Fatalf("node 0 counts %+v", n0)
	}
	n1, _ := rep.Node(1)
	if n1.BusyNs != 400 || n1.Recvs != 1 {
		t.Fatalf("node 1 %+v", n1)
	}
	if _, ok := rep.Node(9); ok {
		t.Fatal("phantom node")
	}
}

func TestAnalyzeMessages(t *testing.T) {
	rep, err := Analyze(twoNodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Messages) != 1 {
		t.Fatalf("edges %v", rep.Messages)
	}
	m := rep.Messages[0]
	if m.From != 0 || m.To != 1 || m.Count != 1 {
		t.Fatalf("edge %+v", m)
	}
	if m.MeanLatNs != 100 || m.MaxLatNs != 100 || m.Unmatched != 0 {
		t.Fatalf("latency %+v", m)
	}
}

func TestAnalyzeUnmatchedSend(t *testing.T) {
	rs := []trace.Record{
		{Node: 0, Kind: trace.KindSend, Time: 0, Tag: 1, Payload: 1},
		{Node: 0, Kind: trace.KindUser, Time: 10},
	}
	rep, err := Analyze(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Messages) != 1 || rep.Messages[0].Unmatched != 1 {
		t.Fatalf("unmatched not counted: %+v", rep.Messages)
	}
}

func TestAnalyzeOrphanReceive(t *testing.T) {
	rs := []trace.Record{
		{Node: 1, Kind: trace.KindRecv, Time: 5, Tag: 1, Payload: 0},
	}
	if _, err := Analyze(rs); err == nil {
		t.Fatal("orphan receive accepted")
	}
}

func TestAnalyzeRejectsBadTraces(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Analyze([]trace.Record{{Time: 5}, {Time: 1}}); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

func TestNestedBlocks(t *testing.T) {
	rs := []trace.Record{
		{Node: 0, Kind: trace.KindBlockIn, Time: 0},
		{Node: 0, Kind: trace.KindBlockIn, Time: 100},
		{Node: 0, Kind: trace.KindBlockOut, Time: 200},
		{Node: 0, Kind: trace.KindBlockOut, Time: 300},
		{Node: 0, Kind: trace.KindUser, Time: 1000},
	}
	rep, err := Analyze(rs)
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := rep.Node(0)
	// Nested blocks must not double-count: busy = 300, not 400.
	if n0.BusyNs != 300 {
		t.Fatalf("nested busy %d", n0.BusyNs)
	}
	if n0.MaxDepth != 2 {
		t.Fatalf("depth %d", n0.MaxDepth)
	}
}

func TestBusiestAndImbalance(t *testing.T) {
	rep, err := Analyze(twoNodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes busy 40%: perfectly balanced.
	if got := rep.LoadImbalance(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("imbalance %v", got)
	}
	b := rep.BusiestNode()
	if b.Busy != 0.4 {
		t.Fatalf("busiest %+v", b)
	}
	// Skewed case.
	rs := []trace.Record{
		{Node: 0, Kind: trace.KindBlockIn, Time: 0},
		{Node: 0, Kind: trace.KindBlockOut, Time: 900},
		{Node: 1, Kind: trace.KindBlockIn, Time: 900},
		{Node: 1, Kind: trace.KindBlockOut, Time: 1000},
	}
	rep2, err := Analyze(rs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BusiestNode().Node != 0 {
		t.Fatal("wrong busiest node")
	}
	if got := rep2.LoadImbalance(); got <= 1.5 {
		t.Fatalf("imbalance %v", got)
	}
}

func TestImbalanceNoBusy(t *testing.T) {
	rep, err := Analyze([]trace.Record{{Node: 0, Kind: trace.KindUser, Time: 0},
		{Node: 0, Kind: trace.KindUser, Time: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoadImbalance() != 0 {
		t.Fatal("imbalance of idle trace should be 0")
	}
}

func TestTimeline(t *testing.T) {
	rep, err := Analyze(twoNodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline(20)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 4 { // header + 2 nodes + legend
		t.Fatalf("timeline lines: %v", lines)
	}
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[1], "s") {
		t.Fatalf("node 0 row missing marks: %q", lines[1])
	}
	if !strings.Contains(lines[2], "r") {
		t.Fatalf("node 1 row missing recv: %q", lines[2])
	}
	// Node 0 busy first half, node 1 second half: first buckets of
	// node 1 idle.
	row1 := lines[2][strings.Index(lines[2], "|")+1:]
	if row1[0] != '.' {
		t.Fatalf("node 1 should start idle: %q", row1)
	}
	// Default bucket clamp.
	if rep.Timeline(0) == "" {
		t.Fatal("default timeline empty")
	}
}

func TestSummary(t *testing.T) {
	rep, err := Analyze(twoNodeTrace())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"node  0", "node  1", "edge 0->1", "load imbalance"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestAnalyzerReportTwice: Report reads the fold without changing it,
// so a second call does not count pending sends as unmatched again.
func TestAnalyzerReportTwice(t *testing.T) {
	a := New()
	rs := twoNodeTrace()
	a.Consume(rs[:4]) // the send, without its receive
	first, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) || first.Messages[0].Unmatched != 1 {
		t.Fatalf("reports differ or miscount: %+v vs %+v", first.Messages, second.Messages)
	}
	a.Consume(rs[4:])
	rep, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if m := rep.Messages[0]; m.Count != 1 || m.Unmatched != 0 {
		t.Fatalf("after the receive: %+v", m)
	}
}

// TestAnalyzerBackInTimeAcrossBatches: time order is checked across
// batch cuts, and the error names the record by its index in the whole
// stream, as trace.Validate would.
func TestAnalyzerBackInTimeAcrossBatches(t *testing.T) {
	rs := []trace.Record{{Kind: trace.KindUser, Time: 5}, {Kind: trace.KindUser, Time: 6}, {Kind: trace.KindUser, Time: 3}}
	a := New()
	a.Consume(rs[:2])
	a.Consume(rs[2:])
	_, err := a.Report()
	want := trace.Validate(rs)
	if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "record 2 ") {
		t.Fatalf("got %v, want %v", err, want)
	}
}
