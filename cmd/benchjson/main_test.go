package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, procs int, nsMin float64) entry {
	return entry{Name: name, Procs: procs, NsPerOpMin: nsMin}
}

func TestCompareDocsSharedDeltas(t *testing.T) {
	oldDoc := document{Benchmarks: []entry{bench("BenchmarkA", 4, 100), bench("BenchmarkB", 4, 100)}}
	newDoc := document{Benchmarks: []entry{bench("BenchmarkA", 4, 103), bench("BenchmarkB", 4, 120)}}
	c := compareDocs(oldDoc, newDoc, 5)
	if len(c.rows) != 2 || len(c.added) != 0 || len(c.removed) != 0 {
		t.Fatalf("rows=%d added=%d removed=%d", len(c.rows), len(c.added), len(c.removed))
	}
	if c.rows[0].regression {
		t.Fatalf("A regressed at %+.1f%% under a 5%% threshold", c.rows[0].delta)
	}
	if !c.rows[1].regression {
		t.Fatalf("B did not regress at %+.1f%%", c.rows[1].delta)
	}
	if len(c.regressed) != 1 {
		t.Fatalf("regressed: %v", c.regressed)
	}
	// The regression report must carry the GOMAXPROCS context: a -cpu
	// sweep runs the same name at several proc counts.
	if want := "BenchmarkB (procs=4)"; len(c.regressed[0]) < len(want) || c.regressed[0][:len(want)] != want {
		t.Fatalf("regressed line %q lacks procs context", c.regressed[0])
	}
}

func TestCompareDocsOneSided(t *testing.T) {
	// A benchmark present on only one side must be listed as added or
	// removed — never compared, never counted as a regression.
	oldDoc := document{Benchmarks: []entry{bench("BenchmarkGone", 4, 50), bench("BenchmarkKept", 4, 100)}}
	newDoc := document{Benchmarks: []entry{bench("BenchmarkKept", 4, 100), bench("BenchmarkNew", 4, 9999)}}
	c := compareDocs(oldDoc, newDoc, 5)
	if len(c.rows) != 1 || c.rows[0].newE.Name != "BenchmarkKept" {
		t.Fatalf("rows %+v", c.rows)
	}
	if len(c.added) != 1 || c.added[0].Name != "BenchmarkNew" {
		t.Fatalf("added %+v", c.added)
	}
	if len(c.removed) != 1 || c.removed[0].Name != "BenchmarkGone" {
		t.Fatalf("removed %+v", c.removed)
	}
	if len(c.regressed) != 0 {
		t.Fatalf("one-sided entries regressed: %v", c.regressed)
	}
}

func TestCompareDocsProcsDistinguish(t *testing.T) {
	// The same name at different GOMAXPROCS is a different benchmark.
	oldDoc := document{Benchmarks: []entry{bench("BenchmarkA", 1, 100)}}
	newDoc := document{Benchmarks: []entry{bench("BenchmarkA", 4, 100)}}
	c := compareDocs(oldDoc, newDoc, 5)
	if len(c.rows) != 0 || len(c.added) != 1 || len(c.removed) != 1 {
		t.Fatalf("rows=%d added=%d removed=%d", len(c.rows), len(c.added), len(c.removed))
	}
}

func TestCompareDocsEmptyOld(t *testing.T) {
	// First baseline: every benchmark is new, exit must be clean.
	newDoc := document{Benchmarks: []entry{bench("BenchmarkA", 4, 100)}}
	c := compareDocs(document{}, newDoc, 5)
	if len(c.added) != 1 || len(c.rows) != 0 || len(c.regressed) != 0 {
		t.Fatalf("added=%d rows=%d regressed=%v", len(c.added), len(c.rows), c.regressed)
	}
}

func TestRunCompareRefusesAcrossHosts(t *testing.T) {
	// ns/op recorded on a 1-CPU host against a 2-CPU one measures the
	// host: compare must refuse with exit 2 and name both values.
	dir := t.TempDir()
	write := func(name string, numCPU, procs int) string {
		data, err := json.Marshal(document{NumCPU: numCPU, GOMAXPROCS: procs,
			Benchmarks: []entry{bench("BenchmarkA", procs, 100)}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one, two := write("one.json", 1, 1), write("two.json", 2, 2)
	if code := runCompare(one, two, 5); code != 2 {
		t.Fatalf("compare across num_cpu exited %d, want 2", code)
	}
	if code := runCompare(one, write("one-again.json", 1, 1), 5); code != 0 {
		t.Fatalf("compare on one host exited %d, want 0", code)
	}
	err := sameHost(document{NumCPU: 1, GOMAXPROCS: 1}, document{NumCPU: 2, GOMAXPROCS: 4})
	if err == nil || !strings.Contains(err.Error(), "num_cpu 1 vs 2") || !strings.Contains(err.Error(), "gomaxprocs 1 vs 4") {
		t.Fatalf("refusal %v does not name both values", err)
	}
}

func TestParseBenchLine(t *testing.T) {
	name, s, ok := parseBenchLine("BenchmarkFoo-4   123   456789 ns/op   10 B/op   2 allocs/op")
	if !ok || name != "BenchmarkFoo-4" || s.nsPerOp != 456789 || s.bytesPerOp != 10 || s.allocsPerOp != 2 {
		t.Fatalf("parsed %q %+v ok=%v", name, s, ok)
	}
	if _, _, ok := parseBenchLine("ok  \tprism\t7.394s"); ok {
		t.Fatal("non-benchmark line parsed")
	}
	// Custom metrics (records/s) must not be mistaken for ns/op, and
	// must be captured under their own units.
	name, s, ok = parseBenchLine("BenchmarkPipe-1   145584   18081 ns/op   509.72 MB/s   14158873 records/s   0 B/op   0 allocs/op")
	if !ok || name != "BenchmarkPipe-1" || s.nsPerOp != 18081 || s.allocsPerOp != 0 {
		t.Fatalf("parsed %q %+v ok=%v", name, s, ok)
	}
	if s.metrics["MB/s"] != 509.72 || s.metrics["records/s"] != 14158873 {
		t.Fatalf("custom metrics %v", s.metrics)
	}
	// b.ReportMetric figures like the segment disk density survive
	// into the sample.
	_, s, ok = parseBenchLine("BenchmarkSegmentWrite-4   1000   50000 ns/op   4.04 disk-B/rec   8.91 ratio/flat   0 allocs/op")
	if !ok || s.metrics["disk-B/rec"] != 4.04 || s.metrics["ratio/flat"] != 8.91 {
		t.Fatalf("custom metrics %v", s.metrics)
	}
}

func TestAggregateKeepsCustomMetrics(t *testing.T) {
	e := aggregate("BenchmarkSeg-4", []sample{
		{nsPerOp: 100, metrics: map[string]float64{"disk-B/rec": 4.1}},
		{nsPerOp: 90, metrics: map[string]float64{"disk-B/rec": 4.04}},
	})
	if e.Metrics["disk-B/rec"] != 4.04 {
		t.Fatalf("metrics %v", e.Metrics)
	}
}

func TestAggregateMinMeanMax(t *testing.T) {
	e := aggregate("BenchmarkX-8", []sample{
		{nsPerOp: 300, iterations: 10}, {nsPerOp: 100, iterations: 10}, {nsPerOp: 200, iterations: 10},
	})
	if e.Name != "BenchmarkX" || e.Procs != 8 {
		t.Fatalf("name %q procs %d", e.Name, e.Procs)
	}
	if e.NsPerOpMin != 100 || e.NsPerOpMax != 300 || e.NsPerOpMean != 200 {
		t.Fatalf("min=%v mean=%v max=%v", e.NsPerOpMin, e.NsPerOpMean, e.NsPerOpMax)
	}
	if e.Count != 3 || e.Iterations != 30 {
		t.Fatalf("count=%d iters=%d", e.Count, e.Iterations)
	}
}

func TestFmtRate(t *testing.T) {
	e := entry{Metrics: map[string]float64{"records/s": 18845880}}
	if got := fmtRate(e); got != "1.88e+07" {
		t.Fatalf("fmtRate = %q", got)
	}
	if got := fmtRate(entry{}); got != "-" {
		t.Fatalf("fmtRate without metric = %q", got)
	}
	if got := fmtRate(entry{Metrics: map[string]float64{"MB/s": 12}}); got != "-" {
		t.Fatalf("fmtRate with other metric = %q", got)
	}
}

func TestFmtWire(t *testing.T) {
	e := entry{Metrics: map[string]float64{"wire-B/rec": 4.166}}
	if got := fmtWire(e); got != "4.17" {
		t.Fatalf("fmtWire = %q", got)
	}
	if got := fmtWire(entry{}); got != "-" {
		t.Fatalf("fmtWire without metric = %q", got)
	}
	if got := fmtWire(entry{Metrics: map[string]float64{"records/s": 7e6}}); got != "-" {
		t.Fatalf("fmtWire with other metric = %q", got)
	}
}

func TestCompareCarriesWireBytes(t *testing.T) {
	// The transport benchmarks report the achieved wire bytes per
	// record; a compare row must carry the metric through on both sides
	// so a framing efficiency regression (columnar falling back to
	// flat, a header growing) is visible next to its timing delta.
	oldE := bench("BenchmarkPipelineThroughput/tcp", 8, 37000)
	oldE.Metrics = map[string]float64{"wire-B/rec": 36.07}
	newE := bench("BenchmarkPipelineThroughput/tcp", 8, 34000)
	newE.Metrics = map[string]float64{"wire-B/rec": 4.166}
	c := compareDocs(document{Benchmarks: []entry{oldE}}, document{Benchmarks: []entry{newE}}, 5)
	if len(c.rows) != 1 {
		t.Fatalf("rows %+v", c.rows)
	}
	if got := fmtWire(c.rows[0].oldE); got != "36.07" {
		t.Fatalf("old wire = %q", got)
	}
	if got := fmtWire(c.rows[0].newE); got != "4.17" {
		t.Fatalf("new wire = %q", got)
	}
}

func TestCompareCarriesRelayFanInRate(t *testing.T) {
	// The federation fan-in benchmark reports records/s; a compare row
	// must carry the metric through on both sides so the merge tier's
	// throughput shows up next to its timing delta.
	oldE := bench("BenchmarkRelayFanIn", 8, 60000)
	oldE.Metrics = map[string]float64{"records/s": 4.2e6}
	newE := bench("BenchmarkRelayFanIn", 8, 56600)
	newE.Metrics = map[string]float64{"records/s": 4.52e6}
	c := compareDocs(document{Benchmarks: []entry{oldE}}, document{Benchmarks: []entry{newE}}, 5)
	if len(c.rows) != 1 {
		t.Fatalf("rows %+v", c.rows)
	}
	if got := fmtRate(c.rows[0].oldE); got != "4.2e+06" {
		t.Fatalf("old rate = %q", got)
	}
	if got := fmtRate(c.rows[0].newE); got != "4.52e+06" {
		t.Fatalf("new rate = %q", got)
	}
}
