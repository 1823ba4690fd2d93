package storage

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// Tiered must be usable wherever the flow stages expect a spill.
var _ flow.Spill = (*Tiered)(nil)

// tierRecs builds n records with distinguishable fields spread over
// four sources.
func tierRecs(n, base int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		k := base + i
		out[i] = trace.Record{
			Node:    int32(k % 4),
			Kind:    trace.KindUser,
			Tag:     uint16(k),
			Time:    int64(k * 10),
			Logical: uint64(k),
		}
	}
	return out
}

// waitCompactions polls until the store has completed at least n
// compaction rounds or the deadline passes.
func waitCompactions(t *testing.T, ts *Tiered, n uint64) TierStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ts.Stats()
		if st.Compactions >= n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never reached %d rounds: %+v", n, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTieredConfigValidation(t *testing.T) {
	if _, err := NewTiered(TieredConfig{HotCapacity: 8, SegmentRecords: 16}); err == nil {
		t.Fatal("SegmentRecords > HotCapacity accepted")
	}
	if _, err := NewTiered(TieredConfig{CompactBudget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestTieredFlow drives records through all three tiers and checks the
// full read-back is byte-identical and in append order.
func TestTieredFlow(t *testing.T) {
	ts, err := NewTiered(TieredConfig{HotCapacity: 64, SegmentRecords: 32, WarmLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	const total = 1000
	var in []trace.Record
	for off := 0; off < total; off += 100 {
		batch := tierRecs(100, off)
		in = append(in, batch...)
		if err := ts.Append(batch...); err != nil {
			t.Fatal(err)
		}
	}
	st := waitCompactions(t, ts, 1)
	if st.ColdSegments == 0 || st.Compacted < 3 {
		t.Fatalf("no cold tier after %d records: %+v", total, st)
	}
	if st.HotResident >= 64 {
		t.Fatalf("hot window never sealed: %+v", st)
	}
	got, err := collect(ts.Scan(FilterAll(), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("read back %d of %d", len(got), total)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d reordered or corrupted across tiers:\n in  %+v\n out %+v", i, in[i], got[i])
		}
	}
}

func TestTieredFilteredReads(t *testing.T) {
	ts, err := NewTiered(TieredConfig{HotCapacity: 64, SegmentRecords: 32, WarmLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	in := tierRecs(500, 0)
	if err := ts.Append(in...); err != nil {
		t.Fatal(err)
	}
	waitCompactions(t, ts, 1)

	got, err := collect(ts.Scan(FilterRange(1000, 1990), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("range read %d records", len(got))
	}
	for _, r := range got {
		if r.Time < 1000 || r.Time > 1990 {
			t.Fatalf("range leaked time %d", r.Time)
		}
	}

	bySrc, err := collect(ts.Scan(FilterSource(2), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(bySrc) != 125 {
		t.Fatalf("source read %d records", len(bySrc))
	}
	for _, r := range bySrc {
		if r.Node != 2 {
			t.Fatalf("source read leaked node %d", r.Node)
		}
	}
	if got, err := collect(ts.Scan(FilterSource(99), ScanOptions{})); err != nil || len(got) != 0 {
		t.Fatalf("absent source: %d records, %v", len(got), err)
	}
}

// TestTieredFiles exercises the file-backed mode: warm files appear
// under Dir, compaction folds them into a cold file and deletes the
// warm inputs, and the read path decodes from disk.
func TestTieredFiles(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	ts, err := NewTiered(TieredConfig{
		HotCapacity: 32, SegmentRecords: 16, WarmLimit: 2,
		Dir: dir, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := tierRecs(300, 0)
	if err := ts.Append(in...); err != nil {
		t.Fatal(err)
	}
	st := waitCompactions(t, ts, 1)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warm, cold int
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name(), "warm-"):
			warm++
		case strings.HasPrefix(e.Name(), "cold-"):
			cold++
		default:
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
	if cold == 0 {
		t.Fatalf("no cold files after %d compactions", st.Compactions)
	}
	final := ts.Stats()
	if warm != final.WarmSegments || cold != final.ColdSegments {
		t.Fatalf("disk holds %d warm / %d cold, stats say %d / %d", warm, cold, final.WarmSegments, final.ColdSegments)
	}

	// Scans remain valid after Close.
	got, err := collect(ts.Scan(FilterAll(), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("file-backed read %d of %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("file-backed record %d corrupted", i)
		}
	}

	// Every cold file is a valid standalone segment stream.
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "cold-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var seg trace.Segment
		if _, err := seg.Parse(data); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}

	snap := reg.Snapshot()
	if snap.Value("storage.tier.appended") != float64(len(in)) {
		t.Fatalf("appended metric %v", snap.Value("storage.tier.appended"))
	}
	if snap.Value("storage.tier.bytes_disk") != float64(final.BytesToDisk) {
		t.Fatalf("bytes_disk metric %v, stats %d", snap.Value("storage.tier.bytes_disk"), final.BytesToDisk)
	}
	if final.BytesToDisk == 0 || final.Compacted == 0 {
		t.Fatalf("final stats %+v", final)
	}
}

// TestTieredReopenKeepsPredecessorSegments: a store opened on the
// directory of an earlier one (a manager restarted on its spill
// directory) numbers its segments past everything already there, so
// sealing and compacting never create — and so truncate — a file the
// predecessor left.
func TestTieredReopenKeepsPredecessorSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := TieredConfig{HotCapacity: 32, SegmentRecords: 16, WarmLimit: 2, Dir: dir}
	first, err := NewTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Append(tierRecs(300, 0)...); err != nil {
		t.Fatal(err)
	}
	waitCompactions(t, first, 1)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = data
	}
	if len(before) == 0 {
		t.Fatal("the first store left no segment files")
	}

	second, err := NewTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := tierRecs(300, 1000)
	if err := second.Append(in...); err != nil {
		t.Fatal(err)
	}
	waitCompactions(t, second, 1)
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range before {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("predecessor segment %s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Fatalf("predecessor segment %s rewritten: %d bytes, was %d", name, len(got), len(want))
		}
	}
	got, err := collect(second.Scan(FilterAll(), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("second store reads %d of its %d records", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("second store record %d corrupted", i)
		}
	}
}

// TestTieredFlushSealsEverything checks Flush drains the hot window so
// all records are durable in segment form.
func TestTieredFlushSealsEverything(t *testing.T) {
	ts, err := NewTiered(TieredConfig{HotCapacity: 1 << 10, SegmentRecords: 64, WarmLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.Append(tierRecs(100, 0)...); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.HotResident != 0 || st.Sealed != 100 || st.RecordsStored != 100 {
		t.Fatalf("flush left %+v", st)
	}
}

func TestTieredAppendAfterClose(t *testing.T) {
	ts, err := NewTiered(TieredConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Append(trace.Record{Kind: trace.KindUser}); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := ts.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

// TestTieredCompactBudget checks the compactor accounts throttle time
// when a budget is set.
func TestTieredCompactBudget(t *testing.T) {
	ts, err := NewTiered(TieredConfig{
		HotCapacity: 32, SegmentRecords: 16, WarmLimit: 2,
		CompactBudget: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.Append(tierRecs(200, 0)...); err != nil {
		t.Fatal(err)
	}
	st := waitCompactions(t, ts, 1)
	if st.ThrottleNs == 0 {
		t.Fatalf("budgeted compaction never throttled: %+v", st)
	}
}

// TestTieredFailedCompactionWaitsForNextSeal: a round that fails (a
// claimed warm file is gone) is retried by the next seal's kick, not at
// once — an immediate retry re-reads every claimed file in a hot loop
// for as long as the fault lasts.
func TestTieredFailedCompactionWaitsForNextSeal(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTiered(TieredConfig{HotCapacity: 8, SegmentRecords: 8, WarmLimit: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.Append(tierRecs(24, 0)...); err != nil { // 3 warm segments
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "warm-000001.seg")); err != nil {
		t.Fatal(err)
	}
	waitErrors := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for ts.Stats().CompactErrors < n {
			if time.Now().After(deadline) {
				t.Fatalf("compactor never failed %d rounds: %+v", n, ts.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := ts.Append(tierRecs(8, 24)...); err != nil { // the 4th seal kicks a round
		t.Fatal(err)
	}
	waitErrors(1)
	time.Sleep(50 * time.Millisecond)
	st := ts.Stats()
	if st.CompactErrors > 2 || st.Compactions != 0 {
		t.Fatalf("failed rounds retried without a seal: %+v", st)
	}
	if err := ts.Append(tierRecs(8, 32)...); err != nil { // one more seal, one more round
		t.Fatal(err)
	}
	waitErrors(st.CompactErrors + 1)
	time.Sleep(50 * time.Millisecond)
	if got := ts.Stats().CompactErrors; got != st.CompactErrors+1 {
		t.Fatalf("one seal retried %d rounds, want 1", got-st.CompactErrors)
	}
}

// TestTieredConcurrent hammers appends and reads while the compactor
// runs — the -race tier-1 gate for the new store.
func TestTieredConcurrent(t *testing.T) {
	ts, err := NewTiered(TieredConfig{HotCapacity: 128, SegmentRecords: 64, WarmLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const each = 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i += 50 {
				if err := ts.Append(tierRecs(50, w*each+i)...); err != nil {
					t.Error(err)
					return
				}
				if i%200 == 0 {
					if _, err := collect(ts.Scan(FilterAll(), ScanOptions{})); err != nil {
						t.Error(err)
						return
					}
					if _, err := collect(ts.Scan(FilterSource(1), ScanOptions{})); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := collect(ts.Scan(FilterAll(), ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*each {
		t.Fatalf("retained %d of %d", len(got), writers*each)
	}
	st := ts.Stats()
	if st.HotResident != 0 {
		t.Fatalf("close left hot records: %+v", st)
	}
}
