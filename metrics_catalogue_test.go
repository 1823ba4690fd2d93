package prism

import (
	"os"
	"strings"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// metricNamesGolden is the runtime's metric-name catalogue, one name
// per line in Snapshot order.
const metricNamesGolden = "testdata/metric_names.golden"

// TestMetricNameCatalogue pins the names the runtime reports: one
// registry wired through a flat ISM fed by a buffered LIS over a
// stream conn, a leaf ISM uplinking through a session and a redial to
// a root relay, and a tiered store. Dashboards, ismd's shutdown lines
// and the benchmark under bench/ read these names by string, so a
// rename or a deletion must show up here, not as a silent zero there.
// On a mismatch the test prints the new catalogue; if the change is
// meant, write that list to the golden file.
func TestMetricNameCatalogue(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := event.NewRealClock()

	rel := relay.New(relay.Config{Root: true, Metrics: reg})
	relLn, err := tp.Listen("127.0.0.1:0", tp.WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	go serveAll(relLn, rel.Serve)

	leaf := ism.New(ism.Config{Buffering: ism.SISO, Ordered: true, DeferCausal: true, Metrics: reg}, clock)
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial:    func() (tp.Conn, error) { return tp.Dial(relLn.Addr(), tp.WithConnMetrics(reg)) },
		Backoff: 10 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	up := relay.NewUplink(1, rd, relay.UplinkConfig{Metrics: reg})
	leaf.SubscribeBatch("uplink", up.Push)

	tier, err := storage.NewTiered(storage.TieredConfig{HotCapacity: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	flat := ism.New(ism.Config{Buffering: ism.SISO, Ordered: true, Metrics: reg}, clock)
	flatLn, err := tp.Listen("127.0.0.1:0", tp.WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	go serveAll(flatLn, flat.Serve)
	conn, err := tp.Dial(flatLn.Addr(), tp.WithConnMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := lis.NewBuffered(0, 16, conn, lis.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	// One record down each path, so names registered on first use (the
	// relay's per-lane scope) exist before the snapshot.
	rec := trace.Record{Node: 0, Kind: trace.KindUser, Time: 1}
	b.Capture(rec)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Append(rec); err != nil {
		t.Fatal(err)
	}
	leaf.Inject(tp.DataMessage(0, []trace.Record{rec}))
	leaf.Drain()
	up.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for rel.Stats().Lanes == 0 || flat.Stats().Arrived == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the leaf's uplink or the LIS's record never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	got := strings.Join(names, "\n") + "\n"

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	flatLn.Close()
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Close(); err != nil {
		t.Fatal(err)
	}
	relLn.Close()
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(metricNamesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric names differ from %s; the runtime now reports:\n%s", metricNamesGolden, got)
	}
}

// serveAll hands every connection ln accepts to serve until ln closes.
func serveAll(ln *tp.Listener, serve func(tp.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(conn)
	}
}
