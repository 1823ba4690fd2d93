package spec

import (
	"strings"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/trace"
)

const fullSpec = `
# application-specific instrumentation for the solver
sensor cpu_queue metric=1 every=50ms
sensor msg_backlog metric=2 every=200ms

threshold cpu_queue above=40 alpha=0.4 hits=3
threshold msg_backlog above=100

buffer capacity=128 policy=faof
ism input=miso ordered=true
`

func TestParseFull(t *testing.T) {
	s, err := Parse(strings.NewReader(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sensors) != 2 {
		t.Fatalf("sensors %v", s.Sensors)
	}
	if s.Sensors[0].Name != "cpu_queue" || s.Sensors[0].Metric != 1 ||
		s.Sensors[0].Every != 50*time.Millisecond {
		t.Fatalf("sensor 0 %+v", s.Sensors[0])
	}
	if len(s.Thresholds) != 2 {
		t.Fatalf("thresholds %v", s.Thresholds)
	}
	th := s.Thresholds[0]
	if th.Sensor != "cpu_queue" || th.Above != 40 || th.Alpha != 0.4 || th.Hits != 3 {
		t.Fatalf("threshold %+v", th)
	}
	if s.Thresholds[1].Hits != 1 || s.Thresholds[1].Alpha != 0.5 {
		t.Fatalf("threshold defaults %+v", s.Thresholds[1])
	}
	if s.Buffer.Capacity != 128 || s.Buffer.Policy != "faof" {
		t.Fatalf("buffer %+v", s.Buffer)
	}
	if s.ISM.Input != "miso" || !s.ISM.Ordered {
		t.Fatalf("ism %+v", s.ISM)
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse(strings.NewReader("sensor a metric=1 every=1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Buffer.Capacity != 64 || s.Buffer.Policy != "fof" {
		t.Fatalf("buffer defaults %+v", s.Buffer)
	}
	if s.ISM.Input != "siso" || !s.ISM.Ordered {
		t.Fatalf("ism defaults %+v", s.ISM)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"sensor metric=1 every=1s",                                // missing name
		"sensor a metric=1 every=1s\nsensor a metric=2 every=1s",  // duplicate
		"sensor a every=1s",                                       // missing metric
		"sensor a metric=1",                                       // missing period
		"sensor a metric=1 every=-5ms",                            // negative period
		"sensor a metric=99999999 every=1s",                       // metric overflow
		"threshold a above=1",                                     // unknown sensor
		"sensor a metric=1 every=1s\nthreshold a",                 // missing above
		"sensor a metric=1 every=1s\nthreshold a above=1 alpha=2", // bad alpha
		"sensor a metric=1 every=1s\nthreshold a above=1 hits=0",  // bad hits
		"buffer capacity=0",                                       // bad capacity
		"buffer policy=magic",                                     // unknown policy
		"ism input=weird",                                         // unknown input
		"ism ordered=maybe",                                       // bad bool
		"bogus directive",                                         // unknown directive
		"sensor a metric=1 every=1s extra",                        // malformed arg
		"sensor a metric=1 metric=2 every=1s",                     // duplicate arg
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	in := "\n# comment only\n\n  # indented comment\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sensors) != 0 {
		t.Fatal("phantom sensors")
	}
}

func TestISMConfig(t *testing.T) {
	s, _ := Parse(strings.NewReader("ism input=miso ordered=false"))
	cfg := s.ISMConfig()
	if cfg.Buffering != ism.MISO || cfg.Ordered {
		t.Fatalf("config %+v", cfg)
	}
	s2, _ := Parse(strings.NewReader(""))
	cfg2 := s2.ISMConfig()
	if cfg2.Buffering != ism.SISO || !cfg2.Ordered {
		t.Fatalf("default config %+v", cfg2)
	}
}

func TestBottleneckToolCompilation(t *testing.T) {
	s, err := Parse(strings.NewReader(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	tool, minHits, err := s.BottleneckTool()
	if err != nil {
		t.Fatal(err)
	}
	if minHits != 3 {
		t.Fatalf("minHits %d", minHits)
	}
	// Drive metric 1 above its threshold repeatedly.
	for i := 0; i < 5; i++ {
		tool.Consume([]trace.Record{{Node: 0, Kind: trace.KindSample, Tag: 1, Payload: 90}})
	}
	if len(tool.Hypotheses(minHits)) != 1 {
		t.Fatal("compiled thresholds not active")
	}
	// Metric 2 below threshold stays quiet.
	for i := 0; i < 5; i++ {
		tool.Consume([]trace.Record{{Node: 0, Kind: trace.KindSample, Tag: 2, Payload: 10}})
	}
	if len(tool.Hypotheses(minHits)) != 1 {
		t.Fatal("quiet metric flagged")
	}
}

func TestProbesCompilation(t *testing.T) {
	s, err := Parse(strings.NewReader(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	var clock event.VirtualClock
	var captured []trace.Record
	sensor := event.NewSensor(0, 0, &clock, event.SinkFunc(func(r trace.Record) {
		captured = append(captured, r)
	}))
	var q, b event.Gauge
	q.Set(7)
	b.Set(9)
	probes, err := s.Probes(sensor, map[string]func() int64{
		"cpu_queue":   q.Value,
		"msg_backlog": b.Value,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 2 {
		t.Fatalf("probes %d", len(probes))
	}
	if probes[0].Interval() != 50*time.Millisecond {
		t.Fatalf("interval %v", probes[0].Interval())
	}
	probes[0].SampleOnce()
	probes[1].SampleOnce()
	if len(captured) != 2 || captured[0].Tag != 1 || captured[0].Payload != 7 ||
		captured[1].Tag != 2 || captured[1].Payload != 9 {
		t.Fatalf("captured %v", captured)
	}
	// Missing reader is an error.
	if _, err := s.Probes(sensor, map[string]func() int64{"cpu_queue": q.Value}); err == nil {
		t.Fatal("missing reader accepted")
	}
}
