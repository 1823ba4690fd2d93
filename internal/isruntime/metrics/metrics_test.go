package metrics

import (
	"sync"
	"testing"

	"prism/internal/trace"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("captured")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("captured") != c {
		t.Fatal("counter handle not stable")
	}
	g := r.Gauge("occupancy")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge %d", g.Value())
	}
	g.SetMax(3) // lower: no effect
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax %d", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("lost increments: %d", c.Value())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1106 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if m := h.Mean(); m < 221 || m > 222 {
		t.Fatalf("mean %f", m)
	}
	// Power-of-two buckets: the median upper bound must cover 3 but
	// stay far below the tail.
	q := h.Quantile(0.5)
	if q < 3 || q > 8 {
		t.Fatalf("median bound %d", q)
	}
	if h.Quantile(1) < 512 {
		t.Fatalf("p100 bound %d", h.Quantile(1))
	}
	h.Observe(-5) // negative lands in bucket 0, never panics
	if h.Count() != 6 {
		t.Fatal("negative observation lost")
	}
}

func TestScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	lis := r.Scope("lis").Scope("node3")
	lis.Counter("captured").Add(12)
	r.Scope("ism").Gauge("held").Set(4)
	r.Scope("ism").Histogram("latency_ns").Observe(64)
	if lis.Prefix() != "lis.node3" || lis.Registry() != r {
		t.Fatal("scope accessors")
	}

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	// Sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot unsorted at %d", i)
		}
	}
	if v := snap.Value("lis.node3.captured"); v != 12 {
		t.Fatalf("captured %f", v)
	}
	m, ok := snap.Get("ism.latency_ns")
	if !ok || m.Kind != KindHistogram || m.Count != 1 || m.Max != 64 {
		t.Fatalf("histogram metric %+v", m)
	}
	if _, ok := snap.Get("nope"); ok {
		t.Fatal("missing metric found")
	}
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" ||
		KindHistogram.String() != "histogram" {
		t.Fatal("kind names")
	}
}

// TestGaugeFunc checks that a read-time gauge is evaluated by each
// Snapshot (not at registration), that registrations under one name
// sum, and that a func may call back into its own registry.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var a, b int64
	lis := r.Scope("lis.node0")
	lis.GaugeFunc("occupancy", func() int64 { return a })
	lis.GaugeFunc("occupancy", func() int64 { return b })
	r.GaugeFunc("reentrant", func() int64 {
		r.Counter("reads").Inc()
		return int64(r.Counter("reads").Value())
	})
	a, b = 3, 4
	snap := r.Snapshot()
	m, ok := snap.Get("lis.node0.occupancy")
	if !ok || m.Kind != KindGauge || m.Value != 7 {
		t.Fatalf("summed gauge func %+v (found %v), want gauge 7", m, ok)
	}
	a = 10
	if v := r.Snapshot().Value("lis.node0.occupancy"); v != 14 {
		t.Fatalf("second snapshot %g, want 14: the func must be read per snapshot", v)
	}
	if v := snap.Value("reentrant"); v != 1 {
		t.Fatalf("reentrant gauge %g, want 1", v)
	}
	if v := r.Snapshot().Value("reads"); v != 2 {
		t.Fatalf("reentrant func ran %g times by the third snapshot's counter read, want 2", v)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot unsorted at %d", i)
		}
	}
}

type fakeClock int64

func (c *fakeClock) Now() int64 { *c++; return int64(*c) }

func TestPublisher(t *testing.T) {
	r := NewRegistry()
	r.Scope("lis.node0").Counter("captured").Add(42)
	r.Scope("ism").Gauge("held").Set(3)

	var clock fakeClock
	var got []trace.Record
	p := NewPublisher(r, -1, &clock, SinkFunc(func(rec trace.Record) { got = append(got, rec) }))

	if n := p.PublishOnce(); n != 2 {
		t.Fatalf("published %d", n)
	}
	names := p.TagNames()
	if len(names) != 2 {
		t.Fatalf("tags %v", names)
	}
	byName := map[string]trace.Record{}
	for _, rec := range got {
		if rec.Node != -1 || rec.Process != -1 || rec.Kind != trace.KindSample {
			t.Fatalf("record %+v", rec)
		}
		byName[names[rec.Tag]] = rec
	}
	if byName["lis.node0.captured"].Payload != 42 || byName["ism.held"].Payload != 3 {
		t.Fatalf("payloads %+v", byName)
	}

	// Tags are stable across publications; sequence numbers advance.
	r.Scope("lis.node0").Counter("captured").Inc()
	got = got[:0]
	p.PublishOnce()
	for _, rec := range got {
		if names[rec.Tag] == "lis.node0.captured" && rec.Payload != 43 {
			t.Fatalf("second publication payload %d", rec.Payload)
		}
	}
	if p.Tag("lis.node0.captured") != p.Tag("lis.node0.captured") {
		t.Fatal("tag not stable")
	}
	if got[0].Logical <= 1 {
		t.Fatalf("sequence did not advance: %d", got[0].Logical)
	}
}
