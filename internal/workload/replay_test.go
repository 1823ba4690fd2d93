package workload

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prism/internal/trace"
)

// replayRecs builds a stream with interleaved same-node runs: nodes
// 0,0,0,1,1,2,0,... with per-source capture sequences and advancing
// time.
func replayRecs(n int) []trace.Record {
	runs := []int32{0, 0, 0, 1, 1, 2, 0, 2, 2, 1}
	out := make([]trace.Record, n)
	seqs := map[trace.SourceKey]uint64{}
	for i := range out {
		node := runs[i%len(runs)]
		key := trace.SourceKey{Node: node, Process: node % 2}
		out[i] = trace.Record{
			Node:    node,
			Process: node % 2,
			Kind:    trace.KindUser,
			Tag:     uint16(i),
			Time:    int64(i) * int64(time.Millisecond),
			Logical: seqs[key],
			Payload: int64(i),
		}
		seqs[key]++
	}
	return out
}

type emitted struct {
	node int32
	recs []trace.Record
}

func collectEmits(dst *[]emitted) func(int32, []trace.Record) error {
	return func(node int32, batch []trace.Record) error {
		*dst = append(*dst, emitted{node, append([]trace.Record(nil), batch...)})
		return nil
	}
}

// TestReplayRunsAndResequence checks the two ordering guarantees: the
// concatenated emits reproduce the stream exactly, every batch is one
// maximal same-node run, and Resequence restamps Logical with
// contiguous per-source sequences from zero.
func TestReplayRunsAndResequence(t *testing.T) {
	recs := replayRecs(500)
	var got []emitted
	st, err := Replay(recs, ReplayConfig{
		Speed:      0,
		MaxBatch:   4,
		Resequence: true,
		Emit:       collectEmits(&got),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 500 || st.Batches != uint64(len(got)) {
		t.Fatalf("stats %+v, emitted %d batches", st, len(got))
	}
	if st.Sources != 3 {
		t.Fatalf("Sources = %d, want 3", st.Sources)
	}
	seqs := map[trace.SourceKey]uint64{}
	var flat []trace.Record
	for bi, e := range got {
		if len(e.recs) == 0 || len(e.recs) > 4 {
			t.Fatalf("batch %d has %d records", bi, len(e.recs))
		}
		for _, r := range e.recs {
			if r.Node != e.node {
				t.Fatalf("batch %d for node %d contains node %d", bi, e.node, r.Node)
			}
			key := trace.SourceKey{Node: r.Node, Process: r.Process}
			if r.Logical != seqs[key] {
				t.Fatalf("source %v: Logical %d, want %d", key, r.Logical, seqs[key])
			}
			seqs[key]++
			flat = append(flat, r)
		}
	}
	for i, r := range flat {
		want := recs[i]
		want.Logical = r.Logical // resequenced; everything else exact
		if r != want {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	// Runs must be maximal: a batch under MaxBatch only ends where the
	// node changes or the stream ends.
	for bi := 0; bi+1 < len(got); bi++ {
		if len(got[bi].recs) < 4 && got[bi].node == got[bi+1].node {
			t.Fatalf("batch %d (%d recs) split a node-%d run", bi, len(got[bi].recs), got[bi].node)
		}
	}
}

// TestReplayPacing replays over a fake clock and checks Speed scales
// the capture's timing.
func TestReplayPacing(t *testing.T) {
	recs := []trace.Record{
		{Node: 0, Kind: trace.KindUser, Time: 0},
		{Node: 1, Kind: trace.KindUser, Time: int64(100 * time.Millisecond)},
		{Node: 0, Kind: trace.KindUser, Time: int64(time.Second)},
	}
	cur := time.Unix(0, 0)
	var emitAt []time.Duration
	st, err := Replay(recs, ReplayConfig{
		Speed:    2,
		MaxBatch: 8,
		Emit: func(node int32, batch []trace.Record) error {
			emitAt = append(emitAt, cur.Sub(time.Unix(0, 0)))
			return nil
		},
		Now:   func() time.Time { return cur },
		Sleep: func(d time.Duration) { cur = cur.Add(d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 50 * time.Millisecond, 500 * time.Millisecond}
	if len(emitAt) != len(want) {
		t.Fatalf("emitted %d batches, want %d", len(emitAt), len(want))
	}
	for i := range want {
		if emitAt[i] != want[i] {
			t.Fatalf("batch %d at %s, want %s", i, emitAt[i], want[i])
		}
	}
	if st.Wall != 500*time.Millisecond {
		t.Fatalf("Wall = %s, want 500ms", st.Wall)
	}
	if st.MaxLag != 0 {
		t.Fatalf("MaxLag = %s on an ideal clock", st.MaxLag)
	}
}

// TestReplayStop checks the Stop channel aborts promptly, even across
// a long capture gap.
func TestReplayStop(t *testing.T) {
	recs := []trace.Record{
		{Node: 0, Kind: trace.KindUser, Time: 0},
		{Node: 0, Kind: trace.KindUser, Time: int64(time.Hour)},
	}
	stop := make(chan struct{})
	close(stop)
	slept := time.Duration(0)
	cur := time.Unix(0, 0)
	var n int
	_, err := Replay(recs, ReplayConfig{
		Speed:    1,
		Emit:     func(int32, []trace.Record) error { n++; return nil },
		Stop:     stop,
		Now:      func() time.Time { return cur },
		Sleep:    func(d time.Duration) { cur = cur.Add(d); slept += d },
		MaxBatch: 1,
	})
	if !errors.Is(err, ErrReplayStopped) {
		t.Fatalf("err = %v, want ErrReplayStopped", err)
	}
	if n != 1 {
		t.Fatalf("emitted %d batches before stop, want 1 (the t=0 batch)", n)
	}
	if slept > 100*time.Millisecond {
		t.Fatalf("slept %s into an hour-long gap before noticing stop", slept)
	}
}

// TestReplayEmitError checks a failing transport aborts the replay.
func TestReplayEmitError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Replay(replayRecs(10), ReplayConfig{
		Emit: func(int32, []trace.Record) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if _, err := Replay(nil, ReplayConfig{}); err == nil {
		t.Fatal("nil Emit accepted")
	}
}

// TestLoadCapture checks that a spool and a hand-cut segment stream
// load the same records, and that a flat fixed-width record file — the
// retired spool format — is rejected rather than misread.
func TestLoadCapture(t *testing.T) {
	dir := t.TempDir()
	recs := replayRecs(300)

	spool := filepath.Join(dir, "trace.spool")
	f, err := os.Create(spool)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	segs := filepath.Join(dir, "trace.seg")
	f, err = os.Create(segs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(recs); i += 100 {
		if _, err := f.Write(trace.AppendSegment(nil, recs[i:i+100])); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for name, path := range map[string]string{"spool": spool, "segments": segs} {
		got, err := LoadCapture(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], recs[i])
			}
		}
	}

	flat := []byte("SIRP\x01\x00\x00\x00") // the flat stream's magic and version
	for _, r := range recs {
		flat = append(flat, make([]byte, trace.RecordSize)...)
		trace.PutRecord(flat[len(flat)-trace.RecordSize:], r)
	}
	flatPath := filepath.Join(dir, "flat.spool")
	if err := os.WriteFile(flatPath, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCapture(flatPath); !errors.Is(err, trace.ErrBadSegment) {
		t.Fatalf("flat record file: %d records, err %v, want ErrBadSegment", len(got), err)
	}

	if _, err := LoadCapture(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing capture accepted")
	}
}

// TestLoadCaptureEmptyTierDir pins the empty-directory contract: a
// tier directory with no segments is a configuration error, reported
// as such — not an empty (and silently useless) capture.
func TestLoadCaptureEmptyTierDir(t *testing.T) {
	recs, err := LoadCapture(t.TempDir())
	if err == nil {
		t.Fatalf("empty tier dir accepted, returned %d records", len(recs))
	}
	if !strings.Contains(err.Error(), ".seg") {
		t.Fatalf("error %q does not point at the missing .seg files", err)
	}
}

// TestLoadCaptureMixedTierDir checks a tier directory shared with
// foreign files (compaction temp files, editor droppings, stray
// spools): only *.seg files are read, everything else is skipped, and
// the loaded records match the segments exactly.
func TestLoadCaptureMixedTierDir(t *testing.T) {
	dir := t.TempDir()
	recs := replayRecs(200)
	writeSeg := func(name string, rs []trace.Record) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(trace.AppendSegment(nil, rs)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeSeg("warm-000001.seg", recs[:100])
	writeSeg("warm-000002.seg", recs[100:])
	for name, body := range map[string]string{
		"README.txt":          "not a segment",
		"warm-000003.seg.tmp": "half-written compaction output",
		"trace.spool":         "raw spool bytes",
		".hidden":             "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}
