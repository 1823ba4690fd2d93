package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

func TestTieredConfigValidation(t *testing.T) {
	if _, err := NewTiered(TieredConfig{HotCapacity: 8, SegmentRecords: 16}); err == nil {
		t.Fatal("SegmentRecords > HotCapacity accepted")
	}
	// A hot window below the default segment size seals whole windows:
	// the default never exceeds the window it is cut from.
	ts, err := NewTiered(TieredConfig{HotCapacity: 64})
	if err != nil {
		t.Fatalf("default SegmentRecords with a 64-record hot window: %v", err)
	}
	defer ts.Close()
	if err := ts.Append(tierRecs(64, 0)...); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.Sealed != 64 {
		t.Fatalf("sealed %d records, want one 64-record segment", st.Sealed)
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
	st := ts.Stats()
	if st.ColdSegments == 0 || st.WarmSegments >= 3 {
		t.Fatalf("no tier file rotation after %d records: %+v", total, st)
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

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestTieredFiles exercises the file-backed mode: seals append to tier
// files of WarmLimit segments each, every record is written once, each
// file is a whole segment stream, and the directory scans back exactly
// what the store does.
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
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	final := ts.Stats()
	segs := final.WarmSegments + final.ColdSegments
	if segs != 19 || final.WarmSegments != 1 { // 18 full segments and a 12-record tail
		t.Fatalf("final stats %+v", final)
	}

	files := dirFiles(t, dir)
	if len(files) != 10 {
		t.Fatalf("%d tier files for %d segments of 2 per file", len(files), segs)
	}
	var onDisk, decoded int
	for name, data := range files {
		if !strings.HasPrefix(name, "tier-") {
			t.Fatalf("unexpected file %s", name)
		}
		onDisk += len(data)
		recs, n, err := trace.DecodeSegments(nil, data)
		if err != nil || n != len(data) {
			t.Fatalf("%s decodes %d of %d bytes: %v", name, n, len(data), err)
		}
		decoded += len(recs)
	}
	var segBytes int
	for _, s := range ts.segs {
		segBytes += s.size
	}
	snap := reg.Snapshot()
	if final.BytesToDisk != uint64(onDisk) || final.BytesToDisk != uint64(segBytes) ||
		snap.Value("storage.tier.bytes_disk") != float64(final.BytesToDisk) {
		t.Fatalf("bytes written once? stats %d, bytes_disk %v, files %d, segments %d",
			final.BytesToDisk, snap.Value("storage.tier.bytes_disk"), onDisk, segBytes)
	}
	if decoded != len(in) {
		t.Fatalf("files hold %d records, want %d", decoded, len(in))
	}
	if snap.Value("storage.tier.appended") != float64(len(in)) {
		t.Fatalf("appended metric %v", snap.Value("storage.tier.appended"))
	}

	// Scans remain valid after Close, and the directory alone scans
	// back the same stream.
	got := drainScan(t, ts.Scan(FilterAll(), ScanOptions{}))
	recsEqual(t, got, in, "file-backed read")
	sc, err := ScanDir(dir, FilterAll(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, sc), got, "ScanDir against Tiered.Scan")
}

// TestTieredFilesAppendOnly: a seal only ever appends, so the bytes a
// tier file held after one seal are a prefix of what it holds after
// every later one, and no file is removed.
func TestTieredFilesAppendOnly(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTiered(TieredConfig{HotCapacity: 16, SegmentRecords: 16, WarmLimit: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	var before map[string][]byte
	for i := 0; i < 10; i++ {
		if err := ts.Append(tierRecs(16, 16*i)...); err != nil { // one seal each
			t.Fatal(err)
		}
		after := dirFiles(t, dir)
		for name, old := range before {
			if !bytes.HasPrefix(after[name], old) {
				t.Fatalf("seal %d rewrote %s: %d bytes, held %d", i, name, len(after[name]), len(old))
			}
		}
		before = after
	}
	if len(before) != 4 {
		t.Fatalf("%d tier files after 10 seals of 3 per file", len(before))
	}
}

// TestTieredStatsRunningTotals: the stats that Stats and every Append
// publish without walking the segments match a from-scratch sum over
// them across several file rotations, in both modes.
func TestTieredStatsRunningTotals(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		ts, err := NewTiered(TieredConfig{HotCapacity: 64, SegmentRecords: 16, WarmLimit: 3, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := ts.Append(tierRecs(37, 37*i)...); err != nil {
				t.Fatal(err)
			}
			st := ts.Stats()
			var size int64
			var recs uint64
			for _, s := range ts.segs {
				size += int64(s.size)
				recs += uint64(s.count)
			}
			if st.BytesStored != size || st.RecordsStored != recs || st.Sealed != recs ||
				st.WarmSegments+st.ColdSegments != len(ts.segs) || st.HotResident != len(ts.hot) {
				t.Fatalf("dir %q after %d appends: stats %+v, segments hold %d records in %d bytes",
					dir, i+1, st, recs, size)
			}
		}
		if st := ts.Stats(); st.ColdSegments < 2*3 {
			t.Fatalf("dir %q: too few rotations to test: %+v", dir, st)
		}
		ts.Close()
	}
}

// TestTieredFailedSealLeavesNoTornBytes: a seal whose write fails
// names the file and offset, leaves the tier file as it was, and keeps
// the records in the hot window, so they seal once the file is
// writable again.
func TestTieredFailedSealLeavesNoTornBytes(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTiered(TieredConfig{HotCapacity: 16, SegmentRecords: 16, WarmLimit: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	in := tierRecs(64, 0)
	if err := ts.Append(in[:16]...); err != nil {
		t.Fatal(err)
	}
	path := ts.logPath
	fileSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size, sealed := fileSize(), ts.Stats().Sealed

	// A short write: some bytes of the segment land before the write
	// fails on the read-only handle swapped in below.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := ts.logFile
	ts.logFile = ro
	err = ts.Append(in[16:32]...)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", size)) {
		t.Fatalf("Append over a failing write = %v, want an error naming %s at offset %d", err, path, size)
	}
	if st := ts.Stats(); st.Sealed != sealed || st.HotResident != 16 {
		t.Fatalf("failed seal moved records: %+v", st)
	}
	if got := fileSize(); got != size {
		t.Fatalf("failed seal left %d bytes in %s, want %d", got, path, size)
	}

	ts.logFile = good
	if err := ts.Append(in[32:]...); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, ts.Scan(FilterAll(), ScanOptions{})), in, "after the write recovered")
}

// TestTieredReopenKeepsPredecessorSegments: a store opened on the
// directory of an earlier one (a manager restarted on its spill
// directory) numbers its tier files past everything already there, so
// it never appends to — or truncates — a file the predecessor left,
// and the directory scans back both stores' records in append order.
func TestTieredReopenKeepsPredecessorSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := TieredConfig{HotCapacity: 32, SegmentRecords: 16, WarmLimit: 2, Dir: dir}
	first, err := NewTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := tierRecs(300, 0)
	if err := first.Append(prev...); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
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
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirFiles(t, dir)
	for name, want := range before {
		if !bytes.Equal(after[name], want) {
			t.Fatalf("predecessor segment %s rewritten: %d bytes, was %d", name, len(after[name]), len(want))
		}
	}
	if len(after) != 2*len(before) {
		t.Fatalf("second store wrote %d files, want %d", len(after)-len(before), len(before))
	}
	recsEqual(t, drainScan(t, second.Scan(FilterAll(), ScanOptions{})), in, "second store")
	sc, err := ScanDir(dir, FilterAll(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, sc), append(prev, in...), "both stores' directory")
}

// TestTieredDirAfterLegacyFiles: a directory holding the cold- and
// warm- files of a store that compacted, then a restarted store's tier
// files, scans back in append order.
func TestTieredDirAfterLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	all := tierRecs(400, 0)
	for _, f := range []struct {
		name   string
		lo, hi int
	}{{"cold-000002.seg", 0, 64}, {"warm-000003.seg", 64, 80}, {"warm-000004.seg", 80, 96}} {
		if err := os.WriteFile(filepath.Join(dir, f.name), trace.AppendSegment(nil, all[f.lo:f.hi]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewTiered(TieredConfig{HotCapacity: 32, SegmentRecords: 16, WarmLimit: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Append(all[96:]...); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanDir(dir, FilterAll(), ScanOptions{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, sc), all, "legacy files then tier files")
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

// TestTieredConcurrent hammers appends and reads while seals rotate
// tier files — the -race tier-1 gate for the store.
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
