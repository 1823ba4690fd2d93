package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"prism/internal/analyze"
	"prism/internal/isruntime/env"
	"prism/internal/isruntime/storage"
	"prism/internal/trace"
)

// foldInput is one seed's time-sorted ring trace: sample payloads are
// drawn from the seed, so the metric tools cross their thresholds, and
// flush markers carrying seeded stalls are spliced in, so compensation
// has overhead to remove.
func foldInput(t *testing.T, seed int64) []trace.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Nodes:          2 + int(seed%3),
		ProcsPerNode:   1 + int(seed%2),
		Policy:         []PolicyKind{Forwarding, BufferedFOF, BufferedFAOF}[seed%3],
		BufferCapacity: 8,
	}
	rs := runRing(t, cfg, 20+int(seed%4)*10)
	trace.SortByTime(rs)
	in := make([]trace.Record, 0, len(rs)+len(rs)/8)
	for _, r := range rs {
		if rng.Intn(8) == 0 {
			in = append(in, trace.Record{Node: r.Node, Process: r.Process, Kind: trace.KindFlush,
				Time: r.Time, Payload: int64(rng.Intn(500))})
		}
		if r.Kind == trace.KindSample {
			r.Payload = int64(rng.Intn(100))
		}
		in = append(in, r)
	}
	return in
}

// folds is one instance of every batch fold over a trace.
type folds struct {
	an    *analyze.Analyzer
	comp  [2]*trace.Compensator // DropFlushRecords off, on
	stats *env.StatsTool
	bn    *env.BottleneckTool
	steer *env.SteeringTool
}

func newFolds(t *testing.T, opt trace.CompensateOptions) *folds {
	t.Helper()
	bn, err := env.NewBottleneckTool(map[uint16]float64{1: 50}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	steer, err := env.NewSteeringTool(1, 60, 40, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &folds{an: analyze.New(), stats: env.NewStatsTool(), bn: bn, steer: steer}
	for i := range f.comp {
		o := opt
		o.DropFlushRecords = i == 1
		f.comp[i] = trace.NewCompensator(o)
	}
	return f
}

func (f *folds) Consume(rs []trace.Record) {
	f.an.Consume(rs)
	for _, c := range f.comp {
		c.Consume(rs)
	}
	f.stats.Consume(rs)
	f.bn.Consume(rs)
	f.steer.Consume(rs)
}

// foldResult is everything the folds report, in comparable form.
type foldResult struct {
	Nodes             []analyze.NodeProfile
	Messages          []analyze.MessageStat
	Summary, Timeline string
	Compensated       [2][]trace.Record
	Counts            []uint64
	Metric            string
	Hypotheses        []env.Hypothesis
	Actions           uint64
}

func (f *folds) result(t *testing.T, nodes int) foldResult {
	t.Helper()
	rep, err := f.an.Report()
	if err != nil {
		t.Fatal(err)
	}
	res := foldResult{
		Nodes: rep.Nodes, Messages: rep.Messages, Summary: rep.Summary(), Timeline: rep.Timeline(64),
		Metric:     fmt.Sprint(f.stats.MetricSummary(1)),
		Hypotheses: f.bn.Hypotheses(1),
		Actions:    f.steer.Actions(),
	}
	for i, c := range f.comp {
		out, err := c.Result()
		if err != nil {
			t.Fatal(err)
		}
		res.Compensated[i] = slices.Clone(out)
	}
	for n := int32(0); n < int32(nodes); n++ {
		for k := trace.KindUser; k.Valid(); k++ {
			res.Counts = append(res.Counts, f.stats.Count(n, k))
		}
	}
	return res
}

// TestFoldBatchBoundaryEquivalence: every batch fold — the analyzer,
// the compensator and the live tools — gives the same result over a
// time-sorted trace whether it is consumed whole, cut at random, or
// written to a segment file and read back batch by batch by the scan
// plane.
func TestFoldBatchBoundaryEquivalence(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 20; seed++ {
		in := foldInput(t, seed)
		nodes := 2 + int(seed%3)
		rng := rand.New(rand.NewSource(seed))
		opt := trace.CompensateOptions{
			PerEventOverheadNs:  int64(1 + rng.Intn(50)),
			MinMessageLatencyNs: int64(rng.Intn(300)),
		}

		whole := newFolds(t, opt)
		whole.Consume(in)
		want := whole.result(t, nodes)
		if want.Actions == 0 {
			t.Fatalf("seed %d: steering never fired; the input does not exercise the tools", seed)
		}

		cut := newFolds(t, opt)
		for rest := in; len(rest) > 0; {
			n := 1 + rng.Intn(min(len(rest), 64))
			cut.Consume(rest[:n])
			rest = rest[n:]
		}
		if got := cut.result(t, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: folds over random cuts differ from the whole trace's", seed)
		}

		// Flush at random points, so segment boundaries fall anywhere.
		path := filepath.Join(dir, fmt.Sprintf("seed-%d.seg", seed))
		file, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.NewWriter(file)
		for rest := in; len(rest) > 0; {
			n := 1 + rng.Intn(min(len(rest), 300))
			if err := w.WriteAll(rest[:n]); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		sc, err := storage.ScanFiles([]string{path}, storage.FilterAll(), storage.ScanOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		stored, batches := newFolds(t, opt), 0
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			stored.Consume(b)
			batches++
		}
		sc.Close()
		if batches < 2 {
			t.Fatalf("seed %d: the scan delivered %d batches; the file path cuts nothing", seed, batches)
		}
		if got := stored.result(t, nodes); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: folds over %d scanned batches differ from the whole trace's", seed, batches)
		}
	}
}
