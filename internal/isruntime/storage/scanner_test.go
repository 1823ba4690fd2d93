package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/raceflag"
	"prism/internal/trace"
)

// collect drains a scanner to completion into one slice, recycling
// every batch, and closes it: the tests' materialized read over Scan,
// the store's one read path.
func collect(sc *Scanner) ([]trace.Record, error) {
	defer sc.Close()
	var out []trace.Record
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b...)
		flow.PutBatch(b)
	}
}

// drainScan is collect for scans that must succeed.
func drainScan(t *testing.T, sc *Scanner) []trace.Record {
	t.Helper()
	out, err := collect(sc)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func recsEqual(t *testing.T, got, want []trace.Record, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestScannerMatchesReads checks that every filter and parallelism
// setting yields exactly the matching records in append order, in both
// memory and file mode, with records split across hot, warm, and cold
// tiers.
func TestScannerMatchesReads(t *testing.T) {
	for _, mode := range []string{"memory", "file"} {
		t.Run(mode, func(t *testing.T) {
			cfg := TieredConfig{HotCapacity: 64, SegmentRecords: 32, WarmLimit: 4}
			if mode == "file" {
				cfg.Dir = t.TempDir()
			}
			ts, err := NewTiered(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			all := tierRecs(1000, 0)
			for i := 0; i < len(all); i += 100 {
				if err := ts.Append(all[i : i+100]...); err != nil {
					t.Fatal(err)
				}
			}
			if st := ts.Stats(); st.ColdSegments == 0 {
				t.Fatalf("no closed tier file to scan: %+v", st)
			}

			var wantRange, wantSource []trace.Record
			for _, r := range all {
				if r.Time >= 1000 && r.Time <= 5000 {
					wantRange = append(wantRange, r)
				}
				if r.Node == 2 {
					wantSource = append(wantSource, r)
				}
			}
			for _, par := range []int{1, 4} {
				opts := ScanOptions{Parallel: par}
				recsEqual(t, drainScan(t, ts.Scan(FilterAll(), opts)), all,
					fmt.Sprintf("all par=%d", par))
				recsEqual(t, drainScan(t, ts.Scan(FilterRange(1000, 5000), opts)), wantRange,
					fmt.Sprintf("range par=%d", par))
				recsEqual(t, drainScan(t, ts.Scan(FilterSource(2), opts)), wantSource,
					fmt.Sprintf("source par=%d", par))
			}
		})
	}
}

// TestScanFilesAndDir checks the standalone-file plane: a stream of
// concatenated segments scanned as one file, and a tier directory
// scanned in append order without a live store.
func TestScanFilesAndDir(t *testing.T) {
	dir := t.TempDir()
	all := tierRecs(600, 0)

	// One file holding several concatenated segments.
	path := filepath.Join(dir, "stream.seg")
	var stream []byte
	for i := 0; i < len(all); i += 150 {
		stream = trace.AppendSegment(stream, all[i:i+150])
	}
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanFiles([]string{path}, FilterAll(), ScanOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, sc), all, "segment stream")

	sc, err = ScanFiles([]string{path}, FilterSource(3), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Record
	for _, r := range all {
		if r.Node == 3 {
			want = append(want, r)
		}
	}
	recsEqual(t, drainScan(t, sc), want, "segment stream source filter")

	// A tier directory read back after the store is gone.
	tierDir := filepath.Join(dir, "tier")
	ts, err := NewTiered(TieredConfig{HotCapacity: 64, SegmentRecords: 32, WarmLimit: 4, Dir: tierDir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(all); i += 100 {
		if err := ts.Append(all[i : i+100]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err = ScanDir(tierDir, FilterAll(), ScanOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	recsEqual(t, drainScan(t, sc), all, "tier directory")

	if _, err := ScanDir(dir, FilterAll(), ScanOptions{}); err != nil {
		// dir itself holds stream.seg, so this succeeds; an empty dir
		// must not.
		t.Fatalf("ScanDir over %s: %v", dir, err)
	}
	if _, err := ScanDir(t.TempDir(), FilterAll(), ScanOptions{}); err == nil {
		t.Fatal("ScanDir over an empty directory should fail")
	}
}

// TestScanFilesTornTail checks that framing a file with a torn tail
// fails with trace.ErrBadSegment — never with a bare io.EOF a caller
// could take for a clean end of file — and that a header claiming more
// than trace.MaxSegmentBytes is refused before anything is read for it.
func TestScanFilesTornTail(t *testing.T) {
	whole := trace.AppendSegment(nil, tierRecs(100, 0))
	two := trace.AppendSegment(append([]byte(nil), whole...), tierRecs(100, 100))
	oversize := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(oversize[8:], trace.MaxSegmentBytes+1)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"body cut short", two[:len(two)-7]},
		{"stray bytes", append(append([]byte(nil), whole...), 1, 2, 3, 4, 5)},
		{"oversize claim", oversize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.seg")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			sc, err := ScanFiles([]string{path}, FilterAll(), ScanOptions{})
			if err == nil {
				sc.Close()
				t.Fatal("torn file framed cleanly")
			}
			if !errors.Is(err, trace.ErrBadSegment) || errors.Is(err, io.EOF) {
				t.Fatalf("ScanFiles = %v, want trace.ErrBadSegment", err)
			}
		})
	}
}

// TestScannerAppendNotBlockedDuringScan pins the satellite bugfix: a
// paused mid-stream scan must not hold the tier lock, so concurrent
// appends complete immediately.
func TestScannerAppendNotBlockedDuringScan(t *testing.T) {
	ts, err := NewTiered(TieredConfig{HotCapacity: 64, SegmentRecords: 32, WarmLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	all := tierRecs(64*32, 0)
	for i := 0; i < len(all); i += 64 {
		if err := ts.Append(all[i : i+64]...); err != nil {
			t.Fatal(err)
		}
	}

	// Window 1 parks the decode pool after one segment; the consumer
	// then stalls without calling Next, exactly the shape that used to
	// hold t.mu for the whole materialized read.
	sc := ts.Scan(FilterAll(), ScanOptions{Parallel: 1, Window: 1})
	defer sc.Close()
	b, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	flow.PutBatch(b)

	done := make(chan error, 1)
	go func() { done <- ts.Append(tierRecs(64, 1<<20)...) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append blocked while a scan was paused mid-stream")
	}

	// The paused scan still sees exactly its snapshot — segments plus
	// the hot window at Scan time, nothing from the later append.
	got := drainScan(t, sc)
	recsEqual(t, got, all[32:], "post-append drain") // first segment already consumed
}

// TestScannerErrorSticky corrupts a segment file and checks the error
// surfaces in order, stays sticky, and leaves Close safe.
func TestScannerErrorSticky(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTiered(TieredConfig{HotCapacity: 8, SegmentRecords: 8, WarmLimit: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.Append(tierRecs(24, 0)...); err != nil {
		t.Fatal(err)
	}
	// Corrupt column bytes of the second segment (one per tier file
	// here) in place, keeping the framing intact, so the failure
	// surfaces as a checksum mismatch at decode time.
	torn := filepath.Join(dir, "tier-000001.seg")
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 24; i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(torn, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc := ts.Scan(FilterAll(), ScanOptions{Parallel: 2})
	defer sc.Close()
	b, err := sc.Next() // segment 0 is intact
	if err != nil {
		t.Fatal(err)
	}
	flow.PutBatch(b)
	_, err = sc.Next()
	if err == nil || !errors.Is(err, trace.ErrBadSegment) {
		t.Fatalf("Next over torn segment = %v, want ErrBadSegment", err)
	}
	if _, err2 := sc.Next(); err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
	if _, err := collect(ts.Scan(FilterAll(), ScanOptions{})); err == nil {
		t.Fatal("a full scan over the torn segment should fail")
	}
}

// TestScanBatchAllocs pins the steady-state guarantee: once the batch
// pool is warm, a Next/PutBatch cycle performs zero allocations.
func TestScanBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ts, err := NewTiered(TieredConfig{HotCapacity: 1024, SegmentRecords: 512, WarmLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	all := tierRecs(64*512, 0)
	for i := 0; i < len(all); i += 1024 {
		if err := ts.Append(all[i : i+1024]...); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the batch pool with one full pass.
	drainScan(t, ts.Scan(FilterAll(), ScanOptions{Parallel: 1}))

	sc := ts.Scan(FilterAll(), ScanOptions{Parallel: 1})
	defer sc.Close()
	for i := 0; i < 8; i++ { // let the worker's scratch reach steady state
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		flow.PutBatch(b)
	}
	allocs := testing.AllocsPerRun(40, func() {
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		flow.PutBatch(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scan batch costs %.1f allocs, want 0", allocs)
	}
}

// TestScanAllocsFlatInSegmentCount pins the read buffer to one per
// worker per scan. Each segment here is larger than the one before it,
// so a buffer grown to fit each would be allocated once per segment,
// over 1 KB apiece. All a file-mode scan may add per segment is its
// snapshot reference (64 B) and a share of a tier file's open (one per
// 16 segments here): 256 segments may cost at most 256 B per segment
// more than 64 do.
func TestScanAllocsFlatInSegmentCount(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const segRecs = 256
	scanBytes := func(segs int) uint64 {
		ts, err := NewTiered(TieredConfig{HotCapacity: segRecs, SegmentRecords: segRecs, WarmLimit: 16, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		for s := 0; s < segs; s++ {
			// The first s payloads alternate 0 and 1<<14, three varint
			// bytes each, the rest repeat: segment s is about two bytes
			// longer than segment s-1.
			rs := tierRecs(segRecs, s*segRecs)
			for i := 0; i < s && i < segRecs; i++ {
				rs[i].Payload = int64(i%2) << 14
			}
			if err := ts.Append(rs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := ts.Flush(); err != nil {
			t.Fatal(err)
		}
		scan := func() {
			sc := ts.Scan(FilterAll(), ScanOptions{Parallel: 1})
			defer sc.Close()
			for {
				b, err := sc.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				flow.PutBatch(b)
			}
		}
		scan() // warm the batch pool
		best := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scan()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := scanBytes(64), scanBytes(256)
	t.Logf("one scan allocates %d B over 64 segments, %d B over 256", small, large)
	if large > small+(256-64)*256 {
		t.Fatalf("one scan allocates %d B over 256 segments, %d B over 64: over 256 B per added segment", large, small)
	}
}
