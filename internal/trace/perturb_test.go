package trace

import (
	"testing"
)

func TestCompensateRemovesPerEventOverhead(t *testing.T) {
	// True events at 0, 100, 200 perturbed by 10ns per capture:
	// recorded at 0, 110, 220.
	rs := []Record{
		{Node: 0, Kind: KindUser, Time: 0},
		{Node: 0, Kind: KindUser, Time: 110},
		{Node: 0, Kind: KindUser, Time: 220},
	}
	out, err := Compensate(rs, CompensateOptions{PerEventOverheadNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 100, 200}
	for i, r := range out {
		if r.Time != want[i] {
			t.Fatalf("compensated times %v", out)
		}
	}
}

func TestCompensateRemovesFlushStalls(t *testing.T) {
	// Event, flush stall of 1000, event that was pushed 1000 late.
	rs := []Record{
		{Node: 0, Kind: KindUser, Time: 100},
		{Node: 0, Kind: KindFlush, Time: 150, Payload: 1000},
		{Node: 0, Kind: KindUser, Time: 1200},
	}
	out, err := Compensate(rs, CompensateOptions{DropFlushRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("flush marker not dropped: %v", out)
	}
	if out[0].Time != 100 || out[1].Time != 200 {
		t.Fatalf("compensated %v", out)
	}
}

func TestCompensateKeepsFlushWhenAsked(t *testing.T) {
	rs := []Record{
		{Node: 0, Kind: KindFlush, Time: 50, Payload: 500},
		{Node: 0, Kind: KindUser, Time: 600},
	}
	out, err := Compensate(rs, CompensateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("records %v", out)
	}
	if out[1].Time != 100 {
		t.Fatalf("post-flush event at %d, want 100", out[1].Time)
	}
}

func TestCompensateRealignsMessages(t *testing.T) {
	// Node 0 sends at 100 (no overheads); node 1's timeline had a big
	// flush stall so after compensation its recv would land before
	// the send; compensation must push it to send+latency.
	rs := []Record{
		{Node: 1, Kind: KindFlush, Time: 10, Payload: 500},
		{Node: 0, Kind: KindSend, Tag: 1, Payload: 1, Time: 100},
		{Node: 1, Kind: KindRecv, Tag: 1, Payload: 0, Time: 550},
		{Node: 1, Kind: KindUser, Time: 560},
	}
	out, err := Compensate(rs, CompensateOptions{MinMessageLatencyNs: 20, DropFlushRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[Kind]Record{}
	for _, r := range out {
		byKind[r.Kind] = r
	}
	if byKind[KindRecv].Time != 120 {
		t.Fatalf("recv at %d, want 120", byKind[KindRecv].Time)
	}
	// The follower event shifts by the same delta (raw 560-500=60 -> +70 = 130).
	if byKind[KindUser].Time != 130 {
		t.Fatalf("follower at %d, want 130", byKind[KindUser].Time)
	}
}

func TestCompensateErrors(t *testing.T) {
	if _, err := Compensate([]Record{{Time: 5}, {Time: 1}}, CompensateOptions{}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := Compensate(nil, CompensateOptions{PerEventOverheadNs: -1}); err == nil {
		t.Fatal("negative overhead accepted")
	}
	orphan := []Record{{Node: 1, Kind: KindRecv, Tag: 9, Payload: 0, Time: 5}}
	if _, err := Compensate(orphan, CompensateOptions{}); err == nil {
		t.Fatal("orphan receive accepted")
	}
}

func TestCompensateOutputSorted(t *testing.T) {
	rs := []Record{
		{Node: 0, Kind: KindUser, Time: 0},
		{Node: 1, Kind: KindFlush, Time: 1, Payload: 100},
		{Node: 0, Kind: KindUser, Time: 50},
		{Node: 1, Kind: KindUser, Time: 150},
	}
	out, err := Compensate(rs, CompensateOptions{DropFlushRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Before(out[i-1]) {
			t.Fatalf("output unsorted: %v", out)
		}
	}
}

func TestMeasureOverhead(t *testing.T) {
	rs := []Record{
		{Kind: KindUser, Time: 0},
		{Kind: KindFlush, Time: 100, Payload: 300},
		{Kind: KindFlush, Time: 500, Payload: 200},
		{Kind: KindUser, Time: 1000},
	}
	rep := MeasureOverhead(rs)
	if rep.Events != 2 || rep.FlushCount != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.FlushStallNs != 500 || rep.SpanNs != 1000 {
		t.Fatalf("report %+v", rep)
	}
	if rep.FlushFraction != 0.5 {
		t.Fatalf("flush fraction %v", rep.FlushFraction)
	}
}

func TestMeasureOverheadEmpty(t *testing.T) {
	rep := MeasureOverhead(nil)
	if rep.Events != 0 || rep.FlushFraction != 0 {
		t.Fatalf("empty report %+v", rep)
	}
}

func TestCompensateRoundTripInvariant(t *testing.T) {
	// Compensating a trace with zero parameters is the identity (for
	// sorted traces without flush markers).
	rs := []Record{
		{Node: 0, Kind: KindUser, Time: 1},
		{Node: 1, Kind: KindSend, Tag: 2, Payload: 0, Time: 3},
		{Node: 0, Kind: KindRecv, Tag: 2, Payload: 1, Time: 9},
	}
	out, err := Compensate(rs, CompensateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if out[i] != rs[i] {
			t.Fatalf("identity violated: %v", out)
		}
	}
}

// TestCompensatorUnsortedAfterDroppedFlush: the time-order check covers
// every record consumed, so a stream that opens with flush markers the
// output drops, then goes back in time, is still rejected.
func TestCompensatorUnsortedAfterDroppedFlush(t *testing.T) {
	c := NewCompensator(CompensateOptions{DropFlushRecords: true})
	c.Consume([]Record{{Kind: KindFlush, Time: 10, Payload: 5}, {Kind: KindFlush, Time: 12, Payload: 5}})
	c.Consume([]Record{{Kind: KindUser, Time: 3}})
	if _, err := c.Result(); err == nil {
		t.Fatal("unsorted input accepted")
	}
}
