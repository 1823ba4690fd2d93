// Command benchjson converts `go test -bench` text output into a
// stable JSON document suitable for committing alongside the code it
// measures (the BENCH_<sha>.json files produced by `make bench`), and
// compares two such documents for regressions.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 | benchjson -sha $(git rev-parse --short HEAD)
//	benchjson -compare BENCH_old.json BENCH_new.json -threshold 5
//
// Each benchmark line becomes one entry; repeated -count runs of the
// same benchmark are aggregated into min/mean/max ns/op so the JSON
// stays reviewable. The environment block records GOMAXPROCS and CPU
// count, without which speedup numbers are uninterpretable.
//
// Compare mode prints a per-benchmark delta table (ns/op, B/op,
// allocs/op) and exits non-zero when any benchmark's ns/op worsens by
// more than the threshold percentage. Deltas compare min ns/op to min
// ns/op: the minimum over -count runs is the least noise-contaminated
// estimate of a benchmark's true cost, so a min-vs-min regression is a
// code change, not scheduler jitter. Two documents recorded at a
// different num_cpu or GOMAXPROCS are refused with exit status 2.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// sample is one parsed benchmark output line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
	iterations  int64
	metrics     map[string]float64 // custom b.ReportMetric units
}

// entry is the aggregated JSON record for one benchmark name.
type entry struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"` // GOMAXPROCS suffix of the benchmark name
	Count       int     `json:"count"` // number of -count runs aggregated
	Iterations  int64   `json:"iterations"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric units (MB/s, records/s,
	// disk-B/rec, ...) so domain figures like on-disk bytes per record
	// are tracked by the committed baselines, not only ns/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	GitSHA     string  `json:"git_sha,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu,omitempty"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	sha := flag.String("sha", "", "git revision to record in the document")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 5, "ns/op regression percentage that fails the comparison")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	doc := document{
		GitSHA:     *sha,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	samples := map[string][]sample{}
	var order []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.CPU = strings.TrimSpace(cpu)
			continue
		}
		name, s, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	for _, name := range order {
		doc.Benchmarks = append(doc.Benchmarks, aggregate(name, samples[name]))
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// comparison is the result of diffing two benchmark documents: the
// per-benchmark rows shared by both, plus the one-sided entries — a
// rewritten benchmark suite shows up as added/removed listings, not as
// phantom regressions or a silent table.
type comparison struct {
	rows      []compareRow
	added     []entry // present only in the new document
	removed   []entry // present only in the old document
	regressed []string
}

// compareRow is one shared benchmark's old/new pairing.
type compareRow struct {
	oldE, newE entry
	delta      float64 // min ns/op change, percent
	regression bool
}

// compareDocs diffs two documents against a regression threshold.
// Shared benchmarks keep the new document's order; added and removed
// entries are listed separately.
func compareDocs(oldDoc, newDoc document, threshold float64) comparison {
	key := func(e entry) string { return fmt.Sprintf("%s-%d", e.Name, e.Procs) }
	oldBy := map[string]entry{}
	for _, e := range oldDoc.Benchmarks {
		oldBy[key(e)] = e
	}
	var c comparison
	seen := map[string]bool{}
	for _, n := range newDoc.Benchmarks {
		o, ok := oldBy[key(n)]
		if !ok {
			c.added = append(c.added, n)
			continue
		}
		seen[key(n)] = true
		row := compareRow{oldE: o, newE: n}
		if o.NsPerOpMin > 0 {
			row.delta = 100 * (n.NsPerOpMin - o.NsPerOpMin) / o.NsPerOpMin
		}
		if row.delta > threshold {
			row.regression = true
			c.regressed = append(c.regressed, fmt.Sprintf("%s (procs=%d): %.0f → %.0f ns/op (%+.1f%%)",
				n.Name, n.Procs, o.NsPerOpMin, n.NsPerOpMin, row.delta))
		}
		c.rows = append(c.rows, row)
	}
	for _, o := range oldDoc.Benchmarks {
		if !seen[key(o)] {
			c.removed = append(c.removed, o)
		}
	}
	return c
}

// runCompare loads two benchmark documents and prints a delta table.
// It returns 1 when any benchmark shared by both files regressed its
// min ns/op by more than threshold percent, 0 otherwise. Benchmarks
// present on only one side never regress: they are summarized as added
// or removed.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if err := sameHost(oldDoc, newDoc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}

	c := compareDocs(oldDoc, newDoc, threshold)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tprocs\tns/op old\tns/op new\tΔ%%\trec/s old\trec/s new\twire-B/rec old\twire-B/rec new\tB/op old\tB/op new\tallocs old\tallocs new\t\n")
	for _, r := range c.rows {
		mark := ""
		if r.regression {
			mark = " !"
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%+.1f%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t\n",
			r.newE.Name, r.newE.Procs, r.oldE.NsPerOpMin, r.newE.NsPerOpMin, r.delta, mark,
			fmtRate(r.oldE), fmtRate(r.newE), fmtWire(r.oldE), fmtWire(r.newE),
			r.oldE.BytesPerOp, r.newE.BytesPerOp, r.oldE.AllocsPerOp, r.newE.AllocsPerOp)
	}
	for _, n := range c.added {
		fmt.Fprintf(w, "%s\t%d\t-\t%.0f\tnew\t-\t%s\t-\t%s\t-\t%d\t-\t%d\t\n",
			n.Name, n.Procs, n.NsPerOpMin, fmtRate(n), fmtWire(n), n.BytesPerOp, n.AllocsPerOp)
	}
	for _, o := range c.removed {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t-\tgone\t%s\t-\t%s\t-\t%d\t-\t%d\t-\t\n",
			o.Name, o.Procs, o.NsPerOpMin, fmtRate(o), fmtWire(o), o.BytesPerOp, o.AllocsPerOp)
	}
	w.Flush()
	if len(c.added) > 0 || len(c.removed) > 0 {
		fmt.Printf("\n%d benchmark(s) added, %d removed (not compared)\n",
			len(c.added), len(c.removed))
	}

	if len(c.regressed) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchjson: %d benchmark(s) regressed past %.1f%%:\n", len(c.regressed), threshold)
		for _, r := range c.regressed {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Printf("\nno ns/op regression past %.1f%% (%s → %s)\n",
		threshold, oldDoc.GitSHA, newDoc.GitSHA)
	return 0
}

// sameHost refuses a comparison between documents recorded at a
// different CPU count or GOMAXPROCS: there a ns/op delta measures the
// host, not the code.
func sameHost(oldDoc, newDoc document) error {
	if oldDoc.NumCPU != newDoc.NumCPU || oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS {
		return fmt.Errorf("refusing to compare across hosts: num_cpu %d vs %d, gomaxprocs %d vs %d",
			oldDoc.NumCPU, newDoc.NumCPU, oldDoc.GOMAXPROCS, newDoc.GOMAXPROCS)
	}
	return nil
}

// fmtRate renders a benchmark's records/s metric for the compare
// table. Throughput benchmarks (the scan plane, trace replay, the
// pipeline, the relay fan-in) report it via b.ReportMetric; surfacing
// the pair alongside ns/op keeps domain throughput in the same review
// glance as timing.
func fmtRate(e entry) string {
	if v, ok := e.Metrics["records/s"]; ok {
		return fmt.Sprintf("%.3g", v)
	}
	return "-"
}

// fmtWire renders a benchmark's wire-B/rec metric — the achieved wire
// cost per record the transport benchmarks report. Tracking it in the
// compare table keeps the wire framing's efficiency under the same
// regression review as timing.
func fmtWire(e entry) string {
	if v, ok := e.Metrics["wire-B/rec"]; ok {
		return fmt.Sprintf("%.2f", v)
	}
	return "-"
}

func loadDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo-4   123   456789 ns/op   10 B/op   2 allocs/op
func parseBenchLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", sample{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", sample{}, false
	}
	var s sample
	s.iterations = iters
	got := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.nsPerOp = v
			got = true
		case "B/op":
			s.bytesPerOp = int64(v)
		case "allocs/op":
			s.allocsPerOp = int64(v)
		default:
			// A unit-looking token after a number is a custom
			// b.ReportMetric figure (MB/s, disk-B/rec, ...).
			if strings.ContainsRune(unit, '/') {
				if s.metrics == nil {
					s.metrics = map[string]float64{}
				}
				s.metrics[unit] = v
			}
		}
	}
	return fields[0], s, got
}

// aggregate folds -count repetitions of one benchmark into min/mean/max.
func aggregate(name string, ss []sample) entry {
	e := entry{Name: name, Procs: 1, Count: len(ss)}
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			e.Name, e.Procs = name[:i], p
		}
	}
	e.NsPerOpMin = ss[0].nsPerOp
	var sum float64
	for _, s := range ss {
		if s.nsPerOp < e.NsPerOpMin {
			e.NsPerOpMin = s.nsPerOp
		}
		if s.nsPerOp > e.NsPerOpMax {
			e.NsPerOpMax = s.nsPerOp
		}
		sum += s.nsPerOp
		e.Iterations += s.iterations
		// B/op and allocs/op are deterministic per benchmark; keep the
		// last observation.
		e.BytesPerOp = s.bytesPerOp
		e.AllocsPerOp = s.allocsPerOp
		for unit, v := range s.metrics {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	e.NsPerOpMean = sum / float64(len(ss))
	return e
}
