package cluster

import (
	"testing"

	"prism/internal/analyze"
	"prism/internal/isruntime/env"
	"prism/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Nodes: 2, ProcsPerNode: 1, Policy: BufferedFOF, BufferCapacity: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Nodes: 0, ProcsPerNode: 1, BufferCapacity: 8},
		{Nodes: 1, ProcsPerNode: 0, BufferCapacity: 8},
		{Nodes: 1, ProcsPerNode: 1, Policy: BufferedFOF, BufferCapacity: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Forwarding needs no buffer.
	fwd := Config{Nodes: 1, ProcsPerNode: 1, Policy: Forwarding}
	if err := fwd.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestPolicyString(t *testing.T) {
	if BufferedFOF.String() != "buffered-FOF" || BufferedFAOF.String() != "buffered-FAOF" ||
		Forwarding.String() != "forwarding" {
		t.Fatal("names")
	}
}

func runRing(t *testing.T, cfg Config, rounds int) []trace.Record {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RunRing(rounds, 1000); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRingTraceComplete(t *testing.T) {
	cfg := Config{Nodes: 3, ProcsPerNode: 2, Policy: BufferedFOF, BufferCapacity: 16}
	const rounds = 10
	rs := runRing(t, cfg, rounds)
	// Per round: nodes*procs*(blockin+sample+blockout) + nodes*(send+recv).
	want := rounds * (3*2*3 + 3*2)
	if len(rs) != want {
		t.Fatalf("trace has %d records, want %d", len(rs), want)
	}
	if err := trace.CheckCausal(rs); err != nil {
		t.Fatal(err)
	}
}

func TestRingDeterministic(t *testing.T) {
	// The ISM's dispatch order across nodes depends on goroutine
	// interleaving (any causal order is valid), but the set of
	// records and their virtual timestamps are fully deterministic.
	// Compare in the canonical merged-trace order, ignoring the
	// run-dependent Lamport stamps.
	cfg := Config{Nodes: 2, ProcsPerNode: 1, Policy: Forwarding}
	a := runRing(t, cfg, 5)
	b := runRing(t, cfg, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	trace.SortByTime(a)
	trace.SortByTime(b)
	for i := range a {
		ra, rb := a[i], b[i]
		ra.Logical, rb.Logical = 0, 0
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestFAOFGangAcrossCluster(t *testing.T) {
	cfg := Config{Nodes: 4, ProcsPerNode: 1, Policy: BufferedFAOF, BufferCapacity: 8}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RunRing(20, 100); err != nil {
		t.Fatal(err)
	}
	if c.GangFlushes() == 0 {
		t.Fatal("no gang flushes under FAOF")
	}
	rs, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckCausal(rs); err != nil {
		t.Fatal(err)
	}
	// FOF cluster of the same shape flushes more often.
	fofCfg := cfg
	fofCfg.Policy = BufferedFOF
	fc, err := New(fofCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.RunRing(20, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Trace(); err != nil {
		t.Fatal(err)
	}
	if fc.GangFlushes() != 0 {
		t.Fatal("FOF cluster reported gang flushes")
	}
}

func TestClusterWithToolsAndAnalyzer(t *testing.T) {
	cfg := Config{Nodes: 3, ProcsPerNode: 1, Policy: Forwarding, MISO: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	statsTool := env.NewStatsTool()
	if err := c.Environment().Attach("stats", statsTool); err != nil {
		t.Fatal(err)
	}
	if err := c.RunRing(8, 2000); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if statsTool.Count(0, trace.KindSample) != 8 {
		t.Fatalf("tool saw %d samples", statsTool.Count(0, trace.KindSample))
	}

	// The merged trace feeds the ParaGraph-style analyzer; re-sort by
	// capture time (the ISM stream is causal, not chronological).
	trace.SortByTime(rs)
	rep, err := analyze.Analyze(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("analyzer saw %d nodes", len(rep.Nodes))
	}
	for _, p := range rep.Nodes {
		if p.Busy <= 0 || p.Sends != 8 || p.Recvs != 8 {
			t.Fatalf("profile %+v", p)
		}
	}
	if len(rep.Messages) != 3 { // ring edges 0->1, 1->2, 2->0
		t.Fatalf("edges %v", rep.Messages)
	}
}

func TestRunRingValidation(t *testing.T) {
	c, err := New(Config{Nodes: 1, ProcsPerNode: 1, Policy: Forwarding})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RunRing(0, 100); err == nil {
		t.Fatal("0 rounds accepted")
	}
	if err := c.RunRing(1, -1); err == nil {
		t.Fatal("negative work accepted")
	}
	if _, err := c.Trace(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunRing(1, 100); err == nil {
		t.Fatal("run after close accepted")
	}
}
