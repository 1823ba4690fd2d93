// Top-level integration tests: run every registered experiment end to
// end (quick fidelity), render each artifact in both output formats,
// and exercise the full networked LIS -> TCP -> ISM -> tool pipeline
// that cmd/ismd and cmd/lisnode deploy as separate processes.
package prism

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/experiments"
	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/paradyn"
	"prism/internal/report"
	"prism/internal/trace"
)

func TestAllExperimentsRenderBothFormats(t *testing.T) {
	suite := experiments.Suite(experiments.Options{Quick: true})
	for _, id := range suite.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			a, err := suite.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			var text, csv strings.Builder
			if err := report.Render(&text, a); err != nil {
				t.Fatalf("render: %v", err)
			}
			if err := report.CSV(&csv, a); err != nil {
				t.Fatalf("csv: %v", err)
			}
			if text.Len() == 0 || csv.Len() == 0 {
				t.Fatal("empty output")
			}
			if !strings.Contains(text.String(), a.Title) {
				t.Fatal("rendered output missing title")
			}
		})
	}
}

func TestSeedOffsetChangesStochasticArtifacts(t *testing.T) {
	a1, err := experiments.Suite(experiments.Options{Quick: true, Seed: 0}).Run("fig9left")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := experiments.Suite(experiments.Options{Quick: true, Seed: 1000}).Run("fig9left")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1.Series[0].Y {
		if a1.Series[0].Y[i] != a2.Series[0].Y[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed offset had no effect")
	}
	// Same options -> identical artifact (regenerability).
	a3, err := experiments.Suite(experiments.Options{Quick: true, Seed: 0}).Run("fig9left")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Series[0].Y {
		if a1.Series[0].Y[i] != a3.Series[0].Y[i] {
			t.Fatal("same seed did not regenerate identical artifact")
		}
	}
}

// TestNetworkedPipeline runs the full Figure 2 deployment in-process
// over real TCP: three LIS nodes (one per policy family) forwarding to
// one causally ordering ISM with a stats tool and a trace spool.
func TestNetworkedPipeline(t *testing.T) {
	clock := event.NewRealClock()
	var spool strings.Builder
	manager := ism.New(ism.Config{Buffering: ism.MISO, Ordered: true, Spool: nopWriter{&spool}}, clock)
	defer manager.Close()
	environment := env.New(manager)
	statsTool := env.NewStatsTool()
	if err := environment.Attach("stats", statsTool); err != nil {
		t.Fatal(err)
	}

	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveAll(ln, manager.Serve)

	const perNode = 200
	run := func(node int32, mk func(tp.Conn) (lis.LIS, error)) {
		conn, err := tp.Dial(ln.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		server, err := mk(conn)
		if err != nil {
			t.Error(err)
			return
		}
		sensor := event.NewSensor(node, 0, clock, server)
		for i := 0; i < perNode; i++ {
			sensor.User(uint16(i), int64(node))
		}
		if err := server.Close(); err != nil {
			t.Error(err)
		}
	}
	run(0, func(c tp.Conn) (lis.LIS, error) { return lis.NewBuffered(0, 16, c) })
	run(1, func(c tp.Conn) (lis.LIS, error) { return lis.NewForwarding(1, c) })
	run(2, func(c tp.Conn) (lis.LIS, error) {
		d, err := lis.NewDaemon(2, c, 64, 8)
		if err == nil {
			d.AttachProcess(0)
		}
		return d, err
	})

	deadline := time.After(5 * time.Second)
	for manager.Stats().Dispatched < 3*perNode {
		select {
		case <-deadline:
			t.Fatalf("dispatched %d of %d", manager.Stats().Dispatched, 3*perNode)
		default:
			time.Sleep(time.Millisecond)
			manager.Drain()
		}
	}
	for node := int32(0); node < 3; node++ {
		if got := statsTool.Count(node, trace.KindUser); got != perNode {
			t.Fatalf("node %d: %d records", node, got)
		}
	}
	st := manager.Stats()
	if st.HoldBackRatio < 0 || st.HoldBackRatio > 1 {
		t.Fatalf("hold-back %v", st.HoldBackRatio)
	}
}

// nopWriter adapts a strings.Builder to io.Writer (Builder already is
// one, but through an interface so the spool sees a plain writer).
type nopWriter struct{ b *strings.Builder }

func (w nopWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// liveW3Target adapts the live instrumentation runtime to the W3
// search's Target interface: Enable turns a per-focus sensor on
// (dynamic instrumentation), Sample pumps one probe reading through
// the LIS -> ISM pipeline and reads the delivered value back, Disable
// turns the sensor off again.
type liveW3Target struct {
	t       *testing.T
	manager *ism.ISM
	nodes   []int32
	procs   map[int32][]int32
	sensors map[paradyn.Focus]*event.Sensor
	gauges  map[paradyn.Focus]*event.Gauge

	mu   sync.Mutex
	last map[string]int64 // delivered samples keyed by node/proc/metric
}

func newLiveW3Target(t *testing.T, hot paradyn.Focus, hotWhy paradyn.Why) *liveW3Target {
	var clock event.VirtualClock
	lt := &liveW3Target{
		t:       t,
		manager: ism.New(ism.Config{Buffering: ism.SISO}, &clock),
		nodes:   []int32{0, 1},
		procs:   map[int32][]int32{0: {0, 1}, 1: {0, 1}},
		sensors: map[paradyn.Focus]*event.Sensor{},
		gauges:  map[paradyn.Focus]*event.Gauge{},
		last:    map[string]int64{},
	}
	t.Cleanup(func() { lt.manager.Close() })
	lt.manager.SubscribeBatch("w3", func(rs []trace.Record) {
		lt.mu.Lock()
		for _, r := range rs {
			lt.last[fmt.Sprintf("%d/%d/%d", r.Node, r.Process, r.Tag)] = r.Payload
		}
		lt.mu.Unlock()
	})
	for _, n := range lt.nodes {
		for _, p := range lt.procs[n] {
			f := paradyn.Focus{Node: n, Process: p}
			sink := event.SinkFunc(func(r trace.Record) {
				lt.manager.Inject(tp.DataMessage(r.Node, []trace.Record{r}))
			})
			s := event.NewSensor(n, p, &clock, sink)
			s.Enable(false) // no instrumentation until the search asks
			lt.sensors[f] = s
			g := &event.Gauge{}
			if f == hot {
				g.Set(90)
			} else {
				g.Set(3)
			}
			lt.gauges[f] = g
		}
	}
	_ = hotWhy
	return lt
}

func (lt *liveW3Target) Nodes() []int32            { return lt.nodes }
func (lt *liveW3Target) Processes(n int32) []int32 { return lt.procs[n] }

func (lt *liveW3Target) leaves(f paradyn.Focus) []paradyn.Focus {
	var out []paradyn.Focus
	for _, n := range lt.nodes {
		if f.Node >= 0 && n != f.Node {
			continue
		}
		for _, p := range lt.procs[n] {
			if f.Process >= 0 && p != f.Process {
				continue
			}
			out = append(out, paradyn.Focus{Node: n, Process: p})
		}
	}
	return out
}

func (lt *liveW3Target) Enable(w paradyn.Why, f paradyn.Focus) {
	for _, leaf := range lt.leaves(f) {
		lt.sensors[leaf].Enable(true)
	}
}

func (lt *liveW3Target) Disable(w paradyn.Why, f paradyn.Focus) {
	for _, leaf := range lt.leaves(f) {
		lt.sensors[leaf].Enable(false)
	}
}

func (lt *liveW3Target) Sample(w paradyn.Why, f paradyn.Focus) float64 {
	leaves := lt.leaves(f)
	for _, leaf := range leaves {
		lt.sensors[leaf].Sample(uint16(w), lt.gauges[leaf].Value())
	}
	lt.manager.Drain()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	sum := 0.0
	for _, leaf := range leaves {
		sum += float64(lt.last[fmt.Sprintf("%d/%d/%d", leaf.Node, leaf.Process, uint16(w))])
	}
	return sum / float64(len(leaves))
}

// TestW3LiveSearch runs the W3 bottleneck search against the live
// instrumentation runtime: instrumentation really is inserted and
// removed dynamically (sensor enable/disable), and every sample flows
// LIS -> TP -> ISM -> tool before the search reads it.
func TestW3LiveSearch(t *testing.T) {
	hot := paradyn.Focus{Node: 1, Process: 0}
	target := newLiveW3Target(t, hot, paradyn.CPUBound)
	search, err := paradyn.NewW3Search(map[paradyn.Why]float64{paradyn.CPUBound: 20}, 4)
	if err != nil {
		t.Fatal(err)
	}
	findings, stats, err := search.Run(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Focus != hot {
		t.Fatalf("findings %v", findings)
	}
	// All sensors disabled after the search (instrumentation removed).
	for f, s := range target.sensors {
		if s.Enabled() {
			t.Fatalf("sensor %v left enabled", f)
		}
	}
	if stats.Samples == 0 || stats.Samples >= stats.ExhaustiveSamples {
		t.Fatalf("instrumentation economy not realized: %+v", stats)
	}
}
