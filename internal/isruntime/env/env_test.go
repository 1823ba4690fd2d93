package env

import (
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

func newISM(t *testing.T) *ism.ISM {
	t.Helper()
	var clock event.VirtualClock
	m := ism.New(ism.Config{Buffering: ism.SISO}, &clock)
	t.Cleanup(func() { m.Close() })
	return m
}

func inject(m *ism.ISM, rs ...trace.Record) {
	for i := range rs {
		rs[i].Logical = uint64(i)
	}
	m.Inject(tp.DataMessage(0, rs))
	m.Drain()
}

func TestAttachAndDuplicate(t *testing.T) {
	m := newISM(t)
	e := New(m)
	if err := e.Attach("stats", NewStatsTool()); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("stats", NewStatsTool()); err == nil {
		t.Fatal("duplicate name accepted")
	}
	other := NewStatsTool()
	if err := e.Attach("other", other); err != nil {
		t.Fatal(err)
	}
	inject(m, trace.Record{Node: 0, Kind: trace.KindUser})
	if other.Count(0, trace.KindUser) != 1 {
		t.Fatal("second tool not subscribed")
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishStopsDelivery: batches dispatched after Finish reach no
// tool, so a finished animation feed, whose channel Finish closed, is
// never sent on again.
func TestFinishStopsDelivery(t *testing.T) {
	m := newISM(t)
	e := New(m)
	feed := NewAnimationFeed(8)
	st := NewStatsTool()
	if err := e.Attach("animation", feed); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("stats", st); err != nil {
		t.Fatal(err)
	}
	inject(m, trace.Record{Node: 0, Kind: trace.KindUser, Tag: 1})
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	inject(m, trace.Record{Node: 0, Kind: trace.KindUser, Tag: 2})
	if n := st.Count(0, trace.KindUser); n != 1 {
		t.Fatalf("stats saw %d records, want the 1 dispatched before Finish", n)
	}
	var got []uint16
	for r := range feed.Frames() {
		got = append(got, r.Tag)
	}
	if len(got) != 1 || got[0] != 1 || feed.Dropped() != 0 {
		t.Fatalf("frames %v, %d dropped", got, feed.Dropped())
	}
}

func TestStatsTool(t *testing.T) {
	m := newISM(t)
	e := New(m)
	st := NewStatsTool()
	if err := e.Attach("stats", st); err != nil {
		t.Fatal(err)
	}
	inject(m,
		trace.Record{Node: 1, Kind: trace.KindSend, Tag: 1},
		trace.Record{Node: 1, Kind: trace.KindSend, Tag: 2},
		trace.Record{Node: 1, Kind: trace.KindSample, Tag: 7, Payload: 10},
		trace.Record{Node: 1, Kind: trace.KindSample, Tag: 7, Payload: 30},
	)
	if st.Count(1, trace.KindSend) != 2 {
		t.Fatalf("send count %d", st.Count(1, trace.KindSend))
	}
	if st.Count(2, trace.KindSend) != 0 {
		t.Fatal("phantom node count")
	}
	n, mean, min, max := st.MetricSummary(7)
	if n != 2 || mean != 20 || min != 10 || max != 30 {
		t.Fatalf("summary %d %v %d %d", n, mean, min, max)
	}
	if n, _, _, _ := st.MetricSummary(99); n != 0 {
		t.Fatal("phantom metric")
	}
}

func TestBottleneckTool(t *testing.T) {
	if _, err := NewBottleneckTool(nil, 0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	bt, err := NewBottleneckTool(map[uint16]float64{1: 50}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := newISM(t)
	e := New(m)
	if err := e.Attach("bottleneck", bt); err != nil {
		t.Fatal(err)
	}
	// Node 0 metric 1 persistently high; node 1 low; metric 2 unwatched.
	var rs []trace.Record
	for i := 0; i < 5; i++ {
		rs = append(rs,
			trace.Record{Node: 0, Kind: trace.KindSample, Tag: 1, Payload: 100},
			trace.Record{Node: 1, Kind: trace.KindSample, Tag: 1, Payload: 5},
			trace.Record{Node: 0, Kind: trace.KindSample, Tag: 2, Payload: 1000},
		)
	}
	inject(m, rs...)
	hyps := bt.Hypotheses(3)
	if len(hyps) != 1 {
		t.Fatalf("hypotheses %v", hyps)
	}
	h := hyps[0]
	if h.Node != 0 || h.Metric != 1 || h.Hits < 3 || h.Value <= 50 {
		t.Fatalf("hypothesis %+v", h)
	}
	// A dip below threshold resets the streak.
	inject(m, trace.Record{Node: 0, Kind: trace.KindSample, Tag: 1, Payload: -1000})
	if got := bt.Hypotheses(1); len(got) != 0 {
		t.Fatalf("streak not reset: %v", got)
	}
}

func TestAnimationFeed(t *testing.T) {
	feed := NewAnimationFeed(2)
	feed.Consume([]trace.Record{{Tag: 1}, {Tag: 2}, {Tag: 3}}) // the third is dropped
	if feed.Dropped() != 1 {
		t.Fatalf("dropped %d", feed.Dropped())
	}
	if err := feed.Finish(); err != nil {
		t.Fatal(err)
	}
	var got []uint16
	for r := range feed.Frames() {
		got = append(got, r.Tag)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("frames %v", got)
	}
	if NewAnimationFeed(0) == nil {
		t.Fatal("zero capacity should clamp")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// Sensor -> forwarding conn -> ISM -> environment tools.
	var clock event.VirtualClock
	m := ism.New(ism.Config{Buffering: ism.MISO, Ordered: true}, &clock)
	defer m.Close()
	e := New(m)
	st := NewStatsTool()
	if err := e.Attach("stats", st); err != nil {
		t.Fatal(err)
	}

	lisSide, ismSide := tp.Pipe(64)
	m.Serve(ismSide)
	sensor := event.NewSensor(0, 0, &clock, event.SinkFunc(func(r trace.Record) {
		_ = lisSide.Send(tp.DataMessage(r.Node, []trace.Record{r}))
	}))
	for i := 0; i < 20; i++ {
		clock.Advance(1000)
		sensor.User(uint16(i), 0)
	}
	// Wait for all 20 to arrive through the pipe and be processed.
	deadline := time.After(2 * time.Second)
	for st.Count(0, trace.KindUser) < 20 {
		select {
		case <-deadline:
			t.Fatalf("timed out at %d records", st.Count(0, trace.KindUser))
		default:
			time.Sleep(time.Millisecond)
			m.Drain()
		}
	}
	if got := st.Count(0, trace.KindUser); got != 20 {
		t.Fatalf("end-to-end count %d", got)
	}
	lisSide.Close()
}
