// Command bench is the PRISM runtime benchmark: four seeded workloads
// that drive the real LIS -> TP -> ISM (-> relay) -> storage components
// in one process over loopback TCP and files, check their outputs
// against an oracle, and print every metric by name and unit. See
// README.md in this directory for the catalogue and BENCHMARK.json at
// the repository root for the contract.
//
//	bench -workload flat_firehose -seed 1 -seconds 20 -trace 0
//
// runs one workload untraced and prints its end-to-end metrics; -trace 1
// runs it traced and prints the per-layer metrics (span readings,
// registry counts, the layer probes and the cost ledger). The last line
// of standard output is one JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const (
	defaultBlock  = 1 << 20 // records per generated block
	defaultSetups = 5       // set-up repetitions behind setup_s
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 1, "seed of the generated record stream")
		seconds   = flag.Int("seconds", 20, "measured run length in seconds")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, probes and ledger, per-layer metrics")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for the run's temporary files and span dumps")
		all       = flag.Bool("all", false, "run every workload, untraced then traced, each in its own child process")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
		smoke     = flag.Bool("smoke", false, "run every workload and probe once with 1 s windows and a small block")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *smoke:
		if err := runSmoke(*seed, *out, os.Stdout); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := runSelfcheck(*seed, *seconds, *out); err != nil {
			fatal(err)
		}
	case *all:
		if _, err := runAll(*seed, *seconds, *out, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		if *workload == "" {
			flag.Usage()
			os.Exit(2)
		}
		rc := runConfig{
			seed: *seed, seconds: *seconds, block: defaultBlock, setups: defaultSetups,
			dir: filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid())), log: os.Stdout,
		}
		res, err := runOne(*workload, rc, *trace != 0, *out)
		_ = os.RemoveAll(rc.dir)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// header records where and on what the numbers were taken.
func header(w io.Writer, workload string, rc runConfig, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d traced=%v block=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		workload, rc.seed, rc.seconds, traced, rc.block, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// runOne runs one workload in this process: untraced for the end-to-end
// metrics, or (traced) a short untraced run, a traced run, the probes
// and the ledger for the per-layer metrics.
func runOne(workload string, rc runConfig, traced bool, outDir string) (jsonResult, error) {
	header(rc.log, workload, rc, traced)
	if !traced {
		m, err := runWorkload(workload, rc)
		if err != nil {
			return jsonResult{}, err
		}
		values := endToEnd(m)
		printEndToEnd(rc.log, workload, m, values)
		return result(m.attempted, m.failed, values, endToEndCatalogue), nil
	}

	// The traced run never feeds an end-to-end metric. A shorter
	// untraced run of the same deployment, in the same process, is the
	// base its overhead is taken against and the ledger's end-to-end
	// figure.
	base := rc
	base.setups = 1
	base.seconds = max(1, rc.seconds/4)
	plain, err := runWorkload(workload, base)
	if err != nil {
		return jsonResult{}, err
	}
	tr := base
	tr.seconds = max(1, rc.seconds/2)
	tr.rec = newRecorder()
	m, err := runWorkload(workload, tr)
	if err != nil {
		return jsonResult{}, err
	}
	path, err := writeSpans(tr.rec, outDir, workload, rc.seed)
	if err != nil {
		return jsonResult{}, err
	}
	probes, err := runProbes(m.stream, rc.dir, probeReps)
	if err != nil {
		return jsonResult{}, fmt.Errorf("probes: %w", err)
	}
	values := perLayer(workload, plain, m, tr, probes)
	printPerLayer(rc.log, workload, plain, m, tr, values, path)
	return result(plain.attempted+m.attempted, plain.failed+m.failed, values, perLayerCatalogue), nil
}

// result shapes one run's values into the driver's JSON: exactly the
// catalogue's metrics, each with its unit.
func result(attempted, failed uint64, values map[string]float64, catalogue []metricDef) jsonResult {
	res := jsonResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, def := range catalogue {
		res.Metrics[def.Name] = jsonMetric{Value: values[def.Name], Unit: def.Unit}
	}
	return res
}

// child runs one workload in a child process of this binary, so CPU and
// peak RSS are per workload, relays its report and returns its result.
func child(workload string, seed uint64, seconds int, traced bool, out string, log io.Writer) (jsonResult, error) {
	var res jsonResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", tr, "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	fmt.Fprintln(log, strings.Join(lines[:len(lines)-1], "\n"))
	if err != nil {
		return res, fmt.Errorf("%s (trace %s): %w", workload, tr, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s (trace %s): last line is not a result: %w", workload, tr, err)
	}
	return res, nil
}

// runAll runs the whole suite: every workload untraced, then traced.
// It returns the end-to-end results by workload.
func runAll(seed uint64, seconds int, out string, log io.Writer) (map[string]jsonResult, error) {
	results := map[string]jsonResult{}
	for _, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			res, err := child(w, seed, seconds, traced, out, log)
			if err != nil {
				return nil, err
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s: %d of %d records failed the oracle", w, res.Failed, res.Attempted)
			}
			if !traced {
				results[w] = res
			}
		}
	}
	flat, fed := results[wFirehose].Metrics["records_per_s"].Value, results[wFedTree].Metrics["records_per_s"].Value
	if flat > 0 {
		fmt.Fprintf(log, "relay.vs_flat_ratio = %.3f (%s %.0f / %s %.0f records_per_s)\n", fed/flat, wFedTree, fed, wFirehose, flat)
	}
	return results, nil
}

// disagreement is how far apart two readings of one metric are, as a
// share of the smaller, whichever run took which. A reading that is not
// positive agrees with nothing: no end-to-end metric is ever 0.
func disagreement(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if !(lo > 0) {
		return math.Inf(1)
	}
	return hi/lo - 1
}

// agree says whether two runs of one commit agree on a metric: exactly
// for a count that is a function of the seed, within its bound otherwise.
func agree(def metricDef, a, b float64) bool {
	if def.Exact {
		return a == b && a > 0
	}
	return disagreement(a, b) <= def.Bound
}

// runSelfcheck is the acceptance check: two runs of the suite on the
// same binary must agree on every end-to-end metric within its bound,
// and exactly on the byte counts.
func runSelfcheck(seed uint64, seconds int, out string) error {
	// A discarded run first: the sandbox's first seconds of work after
	// idle time run up to half slower (set-up 0.43 s against 0.30 s), and
	// only the first of the two suites would pay for it.
	if _, err := child(workloadNames[0], seed, 1, false, out, io.Discard); err != nil {
		return err
	}
	var sets [2]map[string]jsonResult
	for i := range sets {
		fmt.Printf("## selfcheck: run %d of 2\n", i+1)
		res, err := runAll(seed, seconds, out, os.Stdout)
		if err != nil {
			return err
		}
		sets[i] = res
	}
	var bad []string
	fmt.Printf("## selfcheck: second run against first\n")
	for _, w := range workloadNames {
		for _, def := range endToEndCatalogue {
			a, b := sets[0][w].Metrics[def.Name].Value, sets[1][w].Metrics[def.Name].Value
			verdict, limit := "ok", fmt.Sprintf("bound %4.1f%%", 100*def.Bound)
			if def.Exact {
				limit = "exact"
			}
			if !agree(def, a, b) {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s/%s", w, def.Name))
			}
			fmt.Printf("%-14s %-18s %16.4f %16.4f %7.2f%% (%s) %s\n",
				w, def.Name, a, b, 100*disagreement(a, b), limit, verdict)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: the two runs disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}

// runSmoke runs every workload, untraced and traced, and every probe
// once, in this process with 1 s windows and a small block: proof that
// each one still builds its deployment, moves records, passes its oracle
// and yields every metric of the catalogue. The untraced run stands in
// for the traced run's base, so the numbers it prints mean nothing.
//
// The open loops' backlog test is forgiven: under the race detector, or
// beside other packages' tests, the sandbox cannot take their fixed
// rates, and what the smoke run proves is that records flow and arrive
// intact.
func runSmoke(seed uint64, out string, log io.Writer) error {
	var probes map[string]float64
	rc := runConfig{
		seed: seed, seconds: 1, block: 1 << 15, setups: 1,
		dir: filepath.Join(out, fmt.Sprintf("smoke-%d", os.Getpid())), log: log,
	}
	defer os.RemoveAll(rc.dir)
	for _, w := range workloadNames {
		header(log, w, rc, true)
		plain, err := runWorkload(w, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		e2e := endToEnd(plain)
		printEndToEnd(log, w, plain, e2e)
		tr := rc
		tr.rec = newRecorder()
		m, err := runWorkload(w, tr)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w, err)
		}
		if probes == nil {
			if probes, err = runProbes(m.stream, rc.dir, 1); err != nil {
				return fmt.Errorf("probes: %w", err)
			}
		}
		layers := perLayer(w, plain, m, tr, probes)
		printPerLayer(log, w, plain, m, tr, layers, "(not written)")
		if failed := plain.failed + m.failed - plain.backlog - m.backlog; failed != 0 {
			return fmt.Errorf("%s: %d records failed the oracle", w, failed)
		}
		for _, def := range endToEndCatalogue {
			if v, ok := e2e[def.Name]; !ok || v <= 0 {
				return fmt.Errorf("%s: end-to-end metric %s is %v", w, def.Name, v)
			}
		}
	}
	return nil
}
