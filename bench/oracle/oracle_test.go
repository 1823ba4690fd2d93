package oracle

import (
	"testing"

	"prism/bench/gen"
	"prism/internal/trace"
)

// dispatched is a correct dispatch of one generated block: the records
// in stream order with Lamport stamps 1, 2, 3, ...
func dispatched(t *testing.T) (*gen.Stream, []trace.Record, Sum) {
	t.Helper()
	s := gen.New(11, 1<<13)
	out := make([]trace.Record, len(s.Recs))
	var sum Sum
	for i, r := range s.Recs {
		sum.Add(&r)
		r.Logical = uint64(i + 1)
		out[i] = r
	}
	return s, out, sum
}

func check(out []trace.Record, s *gen.Stream, emitted Sum) Report {
	snk := &Sink{Lamport: true, RootOrder: true}
	for i := range out {
		snk.Observe(&out[i])
	}
	return snk.Finish(emitted, s.PerSource)
}

func TestCleanStreamPasses(t *testing.T) {
	s, out, sum := dispatched(t)
	if rep := check(out, s, sum); rep.Failed() != 0 {
		t.Fatalf("clean stream failed: %s", rep)
	}
}

// Each broken stream must trip the check it was broken for.
func TestBrokenStreamsFail(t *testing.T) {
	s, clean, sum := dispatched(t)
	firstOf := func(kind trace.Kind) int {
		for i, r := range clean {
			if r.Kind == kind {
				return i
			}
		}
		t.Fatalf("no %v record in the block", kind)
		return -1
	}
	cases := []struct {
		name   string
		mutate func(out []trace.Record) []trace.Record
		want   func(Report) uint64
	}{
		{"dropped record", func(out []trace.Record) []trace.Record {
			return append(out[:100:100], out[101:]...)
		}, func(r Report) uint64 { return r.Dropped }},
		{"duplicated record", func(out []trace.Record) []trace.Record {
			i := firstOf(trace.KindUser)
			dup := append(append([]trace.Record{}, out[:i+1]...), out[i])
			return append(dup, out[i+1:]...)
		}, func(r Report) uint64 { return r.Duplicated }},
		{"changed payload", func(out []trace.Record) []trace.Record {
			out[firstOf(trace.KindSample)].Payload++
			return out
		}, func(r Report) uint64 { return r.Corrupted }},
		{"foreign source", func(out []trace.Record) []trace.Record {
			out[5].Node = gen.Nodes
			return out
		}, func(r Report) uint64 { return r.Foreign }},
		{"source out of FIFO", func(out []trace.Record) []trace.Record {
			// Swap two records of one source, keeping their stamps in
			// place so only the per-source order breaks.
			i := firstOf(trace.KindUser)
			for j := i + 1; j < len(out); j++ {
				if out[j].Node == out[i].Node && out[j].Process == out[i].Process {
					out[i], out[j] = out[j], out[i]
					out[i].Logical, out[j].Logical = out[j].Logical, out[i].Logical
					return out
				}
			}
			t.Fatal("no second record of the source")
			return out
		}, func(r Report) uint64 { return r.FIFO }},
		{"receive before its send", func(out []trace.Record) []trace.Record {
			i := firstOf(trace.KindSend)
			for j := i + 1; j < len(out); j++ {
				r := out[j]
				if r.Kind == trace.KindRecv && r.Tag == out[i].Tag && int32(r.Payload) == out[i].Node && int32(out[i].Payload) == r.Node {
					out[i], out[j] = out[j], out[i]
					out[i].Logical, out[j].Logical = out[j].Logical, out[i].Logical
					return out
				}
			}
			t.Fatal("send without receive")
			return out
		}, func(r Report) uint64 { return r.RecvFirst }},
		{"Lamport stamp repeated", func(out []trace.Record) []trace.Record {
			out[50].Logical = out[49].Logical
			return out
		}, func(r Report) uint64 { return r.Lamport }},
		{"root order inverted", func(out []trace.Record) []trace.Record {
			out[200], out[201] = out[201], out[200]
			out[200].Logical, out[201].Logical = out[201].Logical, out[200].Logical
			return out
		}, func(r Report) uint64 { return r.Inversions }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.mutate(append([]trace.Record(nil), clean...))
			rep := check(out, s, sum)
			if c.want(rep) == 0 {
				t.Fatalf("not detected: %s", rep)
			}
			if rep.Failed() == 0 {
				t.Fatalf("Failed() is 0: %s", rep)
			}
		})
	}
}

// trace.CheckCausal runs over the run's first records; a receive moved
// ahead of its send inside that window must fail it too.
func TestCausalWindow(t *testing.T) {
	s, out, sum := dispatched(t)
	for i, r := range out {
		if r.Kind != trace.KindRecv {
			continue
		}
		// Move the receive to the front, restamping so Logical still
		// increases and only the send/receive order is wrong.
		moved := append([]trace.Record{r}, append(append([]trace.Record{}, out[:i]...), out[i+1:]...)...)
		for j := range moved {
			moved[j].Logical = uint64(j + 1)
		}
		rep := check(moved, s, sum)
		if rep.CausalWindow == 0 || rep.RecvFirst == 0 {
			t.Fatalf("receive before send not detected: %s", rep)
		}
		return
	}
	t.Fatal("no receive in the block")
}

func TestScan(t *testing.T) {
	s := gen.New(12, 1<<13)
	var appended Sum
	for i := range s.Recs {
		appended.Add(&s.Recs[i])
	}
	scan := func(recs []trace.Record) uint64 {
		var sc Scan
		for i := range recs {
			sc.Observe(&recs[i])
		}
		return sc.Finish(appended)
	}
	if bad := scan(s.Recs); bad != 0 {
		t.Fatalf("clean scan failed %d records", bad)
	}
	if scan(s.Recs[:len(s.Recs)-3]) != 3 {
		t.Fatal("short scan not counted")
	}
	swapped := append([]trace.Record(nil), s.Recs...)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	if scan(swapped) == 0 {
		t.Fatal("reordered scan not detected")
	}
	changed := append([]trace.Record(nil), s.Recs...)
	changed[10].Tag ^= 1
	if scan(changed) == 0 {
		t.Fatal("changed record not detected")
	}
}

func TestBacklog(t *testing.T) {
	offered := []uint64{100_000, 200_000, 300_000, 400_000, 500_000, 600_000, 700_000, 800_000}
	keepsUp := []uint64{99_900, 199_800, 299_900, 399_950, 499_900, 599_800, 699_900, 799_950}
	if n := Backlog(offered, keepsUp); n != 0 {
		t.Fatalf("a sink that keeps up has %d undelivered", n)
	}
	// 30 % short at the end: the rate is not sustained.
	behind := []uint64{95_000, 180_000, 260_000, 330_000, 400_000, 460_000, 510_000, 560_000}
	if n := Backlog(offered, behind); n != 240_000 {
		t.Fatalf("a sink falling behind has %d undelivered, want 240000", n)
	}
	// Inside the final margin, but the queue over the last quarter is
	// far above the first quarter's: growing.
	offered = []uint64{1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000, 6_000_000, 7_000_000, 8_000_000}
	growing := []uint64{1_000_000, 2_000_000, 2_990_000, 3_980_000, 4_960_000, 5_940_000, 6_905_000, 7_921_000}
	if n := Backlog(offered, growing); n == 0 {
		t.Fatal("a growing backlog inside the final margin was not detected")
	}
}
