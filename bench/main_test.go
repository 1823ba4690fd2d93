package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// testOut is where the tests' deployments put their files; the
// repository's .gitignore covers it.
func testOut(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("out", "test-"+t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// TestSmoke is what keeps a broken workload or probe from sitting
// undetected: every workload, untraced and traced, and every probe,
// with 1 s windows and a small block, each passing its oracle.
func TestSmoke(t *testing.T) {
	log := io.Discard
	if testing.Verbose() {
		log = os.Stdout
	}
	if err := runSmoke(1, testOut(t), log); err != nil {
		t.Fatal(err)
	}
}

// The same seed must put the same bytes on the wire, through the real
// deployment, and another seed different ones.
func TestWireBytesRepeatForASeed(t *testing.T) {
	wire := func(seed uint64) (bytes, recs uint64) {
		rc := runConfig{seed: seed, seconds: 1, block: 1 << 15, setups: 1, dir: testOut(t), log: io.Discard}
		f, err := buildFlat(firehoseConfig, rc)
		if err != nil {
			t.Fatal(err)
		}
		defer f.remove()
		if err := f.warmup(); err != nil {
			t.Fatal(err)
		}
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		return f.wireBytes, f.wireRecs
	}
	b1, r1 := wire(3)
	b2, r2 := wire(3)
	if b1 != b2 || r1 != r2 || r1 != 1<<15 {
		t.Fatalf("seed 3 twice: %d bytes / %d records, then %d / %d", b1, r1, b2, r2)
	}
	if b3, _ := wire(4); b3 == b1 {
		t.Fatalf("seeds 3 and 4 both put %d bytes on the wire", b1)
	}
}

// Selfcheck's verdict must not depend on which of the two runs was the
// slow one, must never pass a metric that read 0, and must hold a count
// that is a function of the seed to equality.
func TestAgree(t *testing.T) {
	timing := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.25}
	count := metricDef{Name: "io_bytes_per_rec", Better: "lower", Bound: 0.02, Exact: true}
	for _, c := range []struct {
		def  metricDef
		a, b float64
		want bool
	}{
		{timing, 100, 120, true},
		{timing, 120, 100, true},
		{timing, 100, 130, false},
		{timing, 130, 100, false}, // the first run the outlier: still a disagreement
		{timing, 0, 100, false},
		{timing, 100, 0, false},
		{timing, 0, 0, false},
		{count, 10.75, 10.75, true},
		{count, 10.75, 10.7501, false}, // inside the bound, but not the same count
		{count, 0, 0, false},
	} {
		if got := agree(c.def, c.a, c.b); got != c.want {
			t.Errorf("agree(%s, %v, %v) = %v, want %v", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// BENCHMARK.json is the contract the driver reads; the catalogue is
// what the program prints. They must name the same workloads and the
// same metrics with the same units, directions and bounds.
func TestCatalogueMatchesContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("contract has %d workloads, program %d", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: contract %q, program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: contract has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			def := want[i]
			if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
				t.Errorf("%s %d: contract %+v, catalogue %+v", kind, i, m, def)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: contract bound %v, catalogue %v", kind, m.Name, m.Bound, def.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	compare("end_to_end", contract.EndToEnd, endToEndCatalogue, true)
	compare("per_layer", contract.PerLayer, perLayerCatalogue, false)
	if len(contract.PerLayer) > 128 || len(contract.EndToEnd) > 16 {
		t.Errorf("contract lists %d end-to-end and %d per-layer metrics", len(contract.EndToEnd), len(contract.PerLayer))
	}
}
