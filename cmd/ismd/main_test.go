package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// spillFlagSet mirrors the spill-related subset of main's flag
// definitions; validateOverflowFlags only inspects which flags were
// explicitly set, so names are all that must stay in sync.
func spillFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("ismd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("overflow", "drop-oldest", "")
	fs.String("spill-dir", "", "")
	fs.Int("spill-hot", 1<<14, "")
	fs.String("spool", "", "")
	return fs
}

// modeFlagSet mirrors the federation-related subset of main's flag
// definitions for validateModeFlags, which likewise only inspects
// which flags were explicitly set.
func modeFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("ismd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Bool("relay", false, "")
	fs.Int("downstreams", 0, "")
	fs.Duration("max-stall", 0, "")
	fs.String("resume-spool", "", "")
	fs.String("uplink", "", "")
	fs.Int("uplink-node", 1, "")
	fs.Int("uplink-batch", 512, "")
	fs.Int("uplink-window", 0, "")
	fs.Duration("mark-interval", 0, "")
	fs.Bool("miso", false, "")
	fs.String("spool", "", "")
	return fs
}

// TestValidateOverflowFlags pins the satellite contract: every spill
// tuning flag is rejected unless -overflow spill selected the tiered
// store, defaults never trip the check, and the error names the
// offending flags.
func TestValidateOverflowFlags(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		overflow string
		wantErr  []string // substrings; empty means valid
	}{
		{name: "defaults", args: nil, overflow: "drop-oldest"},
		{name: "spill flags with spill policy",
			args:     []string{"-overflow", "spill", "-spill-dir", "tier", "-spill-hot", "64"},
			overflow: "spill"},
		{name: "spill-dir without spill",
			args:     []string{"-spill-dir", "/tmp/x"},
			overflow: "drop-oldest",
			wantErr:  []string{"-spill-dir", "drop-oldest"}},
		{name: "every spill flag without spill",
			args:     []string{"-overflow", "block", "-spill-dir", "d", "-spill-hot", "1"},
			overflow: "block",
			wantErr:  []string{"-spill-dir", "-spill-hot"}},
		{name: "unrelated flags stay legal",
			args:     []string{"-spool", "out.bin"},
			overflow: "drop-newest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := spillFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := validateOverflowFlags(fs, tc.overflow)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted with -overflow %s", tc.args, tc.overflow)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestValidateModeFlags pins the federation mode contract: -relay and
// -uplink are mutually exclusive, relay tuning needs -relay, uplink
// tuning needs -uplink, -miso is rejected in both federated roles, and
// the error names every offending flag.
func TestValidateModeFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr []string // substrings; empty means valid
	}{
		{name: "plain leaf defaults", args: nil},
		{name: "relay with its own flags",
			args: []string{"-relay", "-downstreams", "4", "-max-stall", "2s",
				"-resume-spool", "root.bin"}},
		{name: "uplink with its own flags",
			args: []string{"-uplink", "127.0.0.1:7311", "-uplink-node", "3",
				"-uplink-batch", "256", "-uplink-window", "128", "-mark-interval", "500ms"}},
		{name: "relay and uplink together",
			args:    []string{"-relay", "-uplink", "127.0.0.1:7311"},
			wantErr: []string{"mutually exclusive"}},
		{name: "relay flags without relay",
			args:    []string{"-downstreams", "4", "-max-stall", "1s"},
			wantErr: []string{"-downstreams", "-max-stall", "needs -relay"}},
		{name: "uplink flags without uplink",
			args:    []string{"-uplink-node", "3", "-mark-interval", "1s", "-uplink-window", "8", "-uplink-batch", "16"},
			wantErr: []string{"-uplink-node", "-mark-interval", "-uplink-window", "-uplink-batch", "needs -uplink"}},
		{name: "miso on a relay",
			args:    []string{"-relay", "-miso"},
			wantErr: []string{"-miso", "no input stage"}},
		{name: "miso on an uplink leaf",
			args:    []string{"-uplink", "127.0.0.1:7311", "-miso"},
			wantErr: []string{"-miso", "SISO"}},
		{name: "miso on a plain leaf stays legal",
			args: []string{"-miso"}},
		{name: "unrelated flags stay legal in relay mode",
			args: []string{"-relay", "-spool", "out.bin"}},
		{name: "mixed stray flags across both roles",
			args:    []string{"-resume-spool", "root.bin", "-uplink-batch", "32"},
			wantErr: []string{"-resume-spool", "needs -relay", "-uplink-batch", "needs -uplink"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := modeFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			relayMode := fs.Lookup("relay").Value.String() == "true"
			uplink := fs.Lookup("uplink").Value.String()
			err := validateModeFlags(fs, relayMode, uplink)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestWireStatLines pins the shutdown wire summary: per-record cost in
// both directions when records moved, a control-only line when only
// framing overhead moved, and silence with no traffic at all.
func TestWireStatLines(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]uint64
		want []string
	}{
		{name: "no traffic", set: nil, want: nil},
		{name: "tx records",
			set:  map[string]uint64{"tp.bytes_tx": 800, "tp.recs_tx": 100},
			want: []string{"wire tx: 800 B, 100 records, 8.00 B/rec"}},
		{name: "control only",
			set:  map[string]uint64{"tp.bytes_rx": 36},
			want: []string{"wire rx: 36 B (control only)"}},
		{name: "both directions",
			set: map[string]uint64{
				"tp.bytes_tx": 400, "tp.recs_tx": 100,
				"tp.bytes_rx": 72, "tp.recs_rx": 9,
			},
			want: []string{
				"wire tx: 400 B, 100 records, 4.00 B/rec",
				"wire rx: 72 B, 9 records, 8.00 B/rec",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			for name, v := range tc.set {
				reg.Counter(name).Add(v)
			}
			got := wireStatLines(reg.Snapshot())
			if len(got) != len(tc.want) {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d: got %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestLoadResume: a restarted relay resumes from the whole segments of
// its spool, cuts a torn tail off before appending to the same file,
// and treats an empty or missing spool as empty. Whatever it resumed
// from, the segments it appends afterwards decode as one stream.
func TestLoadResume(t *testing.T) {
	recs := make([]trace.Record, 1200) // segments of 512, 512 and 176
	for i := range recs {
		recs[i] = trace.Record{Node: int32(i % 3), Kind: trace.KindUser, Time: int64(i), Logical: uint64(i / 3)}
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if w.WriteAll(recs) != nil || w.Flush() != nil {
		t.Fatal("write failed")
	}
	whole := buf.Bytes()
	_, seg1, err := trace.ParseSegmentHeader(whole)
	if err != nil {
		t.Fatal(err)
	}
	_, seg2, err := trace.ParseSegmentHeader(whole[seg1:])
	if err != nil {
		t.Fatal(err)
	}
	extra := recs[:7]

	cases := []struct {
		name string
		data []byte // nil: no file
		want int    // records resumed
		keep int    // spool bytes left
	}{
		{"whole spool", whole, len(recs), len(whole)},
		{"cut inside a header", whole[:seg1+5], 512, seg1},
		{"cut inside a body", whole[:seg1+seg2/2], 512, seg1},
		{"cut inside the last footer", whole[:len(whole)-3], 1024, seg1 + seg2},
		{"empty file", []byte{}, 0, 0},
		{"missing file", nil, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "root.bin")
			if c.data != nil {
				if err := os.WriteFile(path, c.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := loadResume(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.want {
				t.Fatalf("resumed %d records, want %d", len(got), c.want)
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
				}
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(c.keep) {
				t.Fatalf("spool holds %d bytes before appending, want %d", fi.Size(), c.keep)
			}
			aw := trace.NewWriter(f)
			if aw.WriteAll(extra) != nil || aw.Flush() != nil || f.Close() != nil {
				t.Fatal("append failed")
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			all, _, err := trace.DecodeSegments(nil, data)
			if err != nil || len(all) != c.want+len(extra) {
				t.Fatalf("appended spool decodes to %d records (%v), want %d", len(all), err, c.want+len(extra))
			}
		})
	}

	// Bytes that are not a torn tail refuse the resume and stay on disk:
	// the records after a corrupt segment were acked, so cutting them
	// off would lose them for good.
	flat := []byte("SIRP\x01\x00\x00\x00") // the pre-segment spool header
	for _, r := range recs[:40] {
		var b [trace.RecordSize]byte
		trace.PutRecord(b[:], r)
		flat = append(flat, b[:]...)
	}
	flipped := bytes.Clone(whole)
	flipped[seg1+trace.SegmentHeaderSize+3] ^= 0xff
	refused := []struct {
		name string
		data []byte
	}{
		{"flat-format spool", flat},
		{"flat-format header only", flat[:8]},
		{"corrupt middle segment", flipped},
		{"short tail of another format", append(bytes.Clone(whole[:seg1]), "PSEG\x02\x00"...)},
	}
	for _, c := range refused {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "root.bin")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := loadResume(path, true); err == nil {
				t.Fatalf("resumed %d records, want an error", len(got))
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, c.data) {
				t.Fatalf("spool changed: %d bytes, was %d", len(data), len(c.data))
			}
		})
	}
}
