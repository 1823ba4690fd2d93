package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/tp"
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

// roleFlags lists the flags each role reads, keyed by role word ("" is
// the flat manager), with a value each accepts.
var roleFlags = map[string]map[string]string{
	"": {
		"addr": "127.0.0.1:0", "spool": "out.bin", "stats": "1s", "degraded-after": "1s", "debug-addr": "127.0.0.1:0",
		"miso": "", "overflow": "block", "spill-dir": "d", "spill-hot": "64",
		"publish": "1s", "shards": "2",
	},
	"leaf": {
		"addr": "127.0.0.1:0", "spool": "out.bin", "stats": "1s", "degraded-after": "1s", "debug-addr": "127.0.0.1:0",
		"overflow": "block", "spill-dir": "d", "spill-hot": "64", "publish": "1s", "shards": "2",
		"uplink": "127.0.0.1:7311", "uplink-node": "3", "uplink-batch": "256",
		"uplink-window": "128", "mark-interval": "500ms",
	},
	"relay": {
		"addr": "127.0.0.1:0", "spool": "out.bin", "stats": "1s", "degraded-after": "1s", "debug-addr": "127.0.0.1:0",
		"downstreams": "4", "max-stall": "2s", "resume-spool": "root.bin",
	},
}

// flagArgs renders one flag with its value; a bool flag takes none.
func flagArgs(name, value string) []string {
	if value == "" {
		return []string{"-" + name}
	}
	return []string{"-" + name, value}
}

// TestValidateModeFlags pins the role contract: each role's flag set
// accepts every flag the role reads and rejects every other role's
// flag by name, so a cross-role mistake cannot start a manager that
// silently ignores it. A leaf needs -uplink, and the role word comes
// before the flags.
func TestValidateModeFlags(t *testing.T) {
	parse := func(args ...string) error {
		_, err := parseArgs(args, flag.ContinueOnError, io.Discard)
		return err
	}
	cases := []struct {
		name    string
		args    []string
		wantErr []string // substrings; empty means valid
	}{
		{name: "plain leaf defaults", args: nil},
		{name: "relay with its own flags",
			args: []string{"relay", "-downstreams", "4", "-max-stall", "2s",
				"-resume-spool", "root.bin"}},
		{name: "uplink with its own flags",
			args: []string{"leaf", "-uplink", "127.0.0.1:7311", "-uplink-node", "3",
				"-uplink-batch", "256", "-uplink-window", "128", "-mark-interval", "500ms"}},
		{name: "relay and uplink together",
			args:    []string{"relay", "-uplink", "127.0.0.1:7311"},
			wantErr: []string{"not defined: -uplink"}},
		{name: "relay flags without relay",
			args:    []string{"-downstreams", "4", "-max-stall", "1s"},
			wantErr: []string{"not defined: -downstreams"}},
		{name: "uplink flags without uplink",
			args:    []string{"-uplink-node", "3", "-mark-interval", "1s"},
			wantErr: []string{"not defined: -uplink-node"}},
		{name: "miso on a relay",
			args:    []string{"relay", "-miso"},
			wantErr: []string{"not defined: -miso"}},
		{name: "miso on an uplink leaf",
			args:    []string{"leaf", "-uplink", "127.0.0.1:7311", "-miso"},
			wantErr: []string{"not defined: -miso"}},
		{name: "miso on a plain leaf stays legal",
			args: []string{"-miso"}},
		{name: "unrelated flags stay legal in relay mode",
			args: []string{"relay", "-spool", "out.bin"}},
		{name: "mixed stray flags across both roles",
			args:    []string{"leaf", "-uplink", "x", "-resume-spool", "root.bin", "-uplink-batch", "32"},
			wantErr: []string{"not defined: -resume-spool"}},
		{name: "leaf without uplink",
			args:    []string{"leaf", "-mark-interval", "1s"},
			wantErr: []string{"-uplink is required"}},
		{name: "the old relay switch",
			args:    []string{"-relay"},
			wantErr: []string{"not defined: -relay"}},
		{name: "role word after flags",
			args:    []string{"-addr", "127.0.0.1:0", "relay"},
			wantErr: []string{`unexpected argument "relay"`}},
		{name: "spill flags still need the spill policy on a leaf",
			args:    []string{"leaf", "-uplink", "x", "-spill-dir", "d"},
			wantErr: []string{"-spill-dir", "valid only with -overflow spill"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(tc.args...)
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

	// Every role against every flag any role reads.
	all := map[string]string{}
	for _, flags := range roleFlags {
		for name, v := range flags {
			all[name] = v
		}
	}
	for word, own := range roleFlags {
		label := word
		if label == "" {
			label = "flat"
		}
		// The smallest command line the role accepts, plus what a spill
		// flag needs to be legal.
		base := []string{}
		if word != "" {
			base = append(base, word)
		}
		if word == "leaf" {
			base = append(base, "-uplink", "127.0.0.1:7311")
		}
		for name, v := range all {
			_, mine := own[name]
			verb := "rejects"
			if mine {
				verb = "accepts"
			}
			t.Run(label+"/"+verb+" -"+name, func(t *testing.T) {
				args := append(append([]string(nil), base...), flagArgs(name, v)...)
				if mine && spillOnlyFlags[name] {
					args = append(args, "-overflow", "spill")
				}
				err := parse(args...)
				switch {
				case mine && err != nil:
					t.Fatalf("%v: %v", args, err)
				case !mine && err == nil:
					t.Fatalf("%v accepted", args)
				case !mine && !strings.Contains(err.Error(), "flag provided but not defined: -"+name):
					t.Fatalf("%v: error %q does not name -%s", args, err, name)
				}
			})
		}
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
		{"short tail of another format", append(bytes.Clone(whole[:seg1]), "PSEG\x01\x00"...)},
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

// runningRole is a role whose lifecycle runs in-process on an
// ephemeral port, stopped through its stop channel.
type runningRole struct {
	*role
	addr string
	stop chan struct{}
	done chan struct{}
	out  bytes.Buffer
}

// startRole builds the role that args (an ismd command line without
// -addr) select and runs its lifecycle on 127.0.0.1:0.
func startRole(t *testing.T, args ...string) *runningRole {
	t.Helper()
	s, err := parseArgs(append(args, "-addr", "127.0.0.1:0"), flag.ContinueOnError, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRole(s)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tp.Listen(s.addr, tp.WithConnMetrics(r.mgr.Metrics()))
	if err != nil {
		t.Fatal(err)
	}
	rr := &runningRole{role: r, addr: ln.Addr(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rr.done)
		r.run(ln, rr.stop, &rr.out)
	}()
	return rr
}

// shutdown stops the lifecycle as an interrupt would and returns what
// the role printed.
func (rr *runningRole) shutdown(t *testing.T) string {
	t.Helper()
	close(rr.stop)
	select {
	case <-rr.done:
	case <-time.After(30 * time.Second):
		t.Fatal("lifecycle did not stop")
	}
	return rr.out.String()
}

// sendRecords forwards n records of one source through a plain
// buffered LIS dialed to addr, each with a unique Payload from first,
// and hangs up.
func sendRecords(t *testing.T, addr string, node int32, first, n int) {
	t.Helper()
	conn, err := tp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lis.NewBuffered(node, 64, conn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b.Capture(trace.Record{Node: node, Kind: trace.KindUser, Time: int64(first + i + 1),
			Logical: uint64(i), Payload: int64(first + i)})
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spoolRecords decodes a spool.
func spoolRecords(t *testing.T, path string) []trace.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := trace.DecodeSegments(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// spoolPayloads decodes a spool and counts each record's Payload.
func spoolPayloads(t *testing.T, path string) map[int64]int {
	t.Helper()
	seen := map[int64]int{}
	for _, r := range spoolRecords(t, path) {
		seen[r.Payload]++
	}
	return seen
}

// TestFlatRoleLifecycle runs the flat manager's lifecycle end to end:
// two plain LIS senders over TCP, a stop, and a spool holding every
// record the final line reports dispatched.
func TestFlatRoleLifecycle(t *testing.T) {
	const perNode = 700
	spool := filepath.Join(t.TempDir(), "trace.bin")
	rr := startRole(t, "-spool", spool, "-stats", "1ms")
	for node := int32(0); node < 2; node++ {
		sendRecords(t, rr.addr, node, int(node)*perNode, perNode)
	}
	m := rr.mgr.(*ism.ISM)
	waitFor(t, "both senders' records", func() bool { return m.Stats().Arrived == 2*perNode })
	out := rr.shutdown(t)

	if want := fmt.Sprintf("final: arrived=%d dispatched=%d ", 2*perNode, 2*perNode); !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
	for _, want := range []string{"session: hellos=0", "wire rx:", "ISM runtime metrics", "trace spooled to " + spool} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	seen := spoolPayloads(t, spool)
	if len(seen) != 2*perNode {
		t.Fatalf("spool holds %d distinct records, want %d", len(seen), 2*perNode)
	}
	for p, n := range seen {
		if p < 0 || p >= 2*perNode || n != 1 {
			t.Fatalf("spool holds payload %d %d times", p, n)
		}
	}
}

// endOnShutdown is a node's LIS as lis.ControlLoop drives it, as in
// cmd/lisnode: the manager's CtlShutdown ends the workload instead of
// closing the LIS under it.
type endOnShutdown struct {
	lis.LIS
	end func()
}

func (e endOnShutdown) Close() error { e.end(); return nil }

// TestOrderlyStopKeepsAckedRecords stops the flat role under a node
// that speaks the session as cmd/lisnode does: a fault.Session over a
// tp.Redial, capturing until the manager's CtlShutdown ends its run,
// then flushing, draining its replay window and hanging up. The
// manager waits for that hang-up before it closes, so the final flush
// is dispatched, not acked and dropped: arrived equals what the node
// forwarded, the spool holds each record once, and nothing is left
// unacked.
func TestOrderlyStopKeepsAckedRecords(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "trace.bin")
	rr := startRole(t, "-spool", spool)
	rd, err := tp.NewRedial(tp.RedialConfig{
		Dial:    func() (tp.Conn, error) { return tp.Dial(rr.addr) },
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := fault.NewSession(0, rd, fault.SessionConfig{})
	if err := sess.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	b, err := lis.NewBuffered(0, 16, sess)
	if err != nil {
		t.Fatal(err)
	}
	end := make(chan struct{})
	var once sync.Once
	go func() {
		_ = lis.ControlLoop(sess, endOnShutdown{b, func() { once.Do(func() { close(end) }) }})
		for { // the acks that trim the replay window while it drains
			m, err := sess.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	capture := func(seq int) {
		b.Capture(trace.Record{Node: 0, Kind: trace.KindUser, Time: int64(seq + 1),
			Logical: uint64(seq), Payload: int64(seq)})
	}
	ended := func() bool {
		select {
		case <-end:
			return true
		default:
			return false
		}
	}
	done := make(chan struct{})
	var drained bool
	go func() {
		defer close(done)
		seq := 0
		for ; !ended(); seq++ {
			capture(seq)
			time.Sleep(100 * time.Microsecond)
		}
		capture(seq) // the workload's last event, captured as the shutdown lands
		_ = b.Close()
		drained = sess.Drain(10 * time.Second)
		_ = sess.Close()
	}()
	m := rr.mgr.(*ism.ISM)
	waitFor(t, "the node's first flushes", func() bool { return m.Stats().Arrived >= 64 })
	out := rr.shutdown(t)
	<-done

	fwd := b.Stats().Forwarded
	if st := b.Stats(); st.Dropped != 0 || st.Captured != fwd {
		t.Fatalf("the node captured %d, forwarded %d and dropped %d records", st.Captured, fwd, st.Dropped)
	}
	if !drained || sess.Pending() != 0 {
		t.Fatalf("the node's drain ended with %d batches unacked", sess.Pending())
	}
	if want := fmt.Sprintf("final: arrived=%d dispatched=%d ", fwd, fwd); !strings.Contains(out, want) {
		t.Fatalf("the node forwarded %d records; output lacks %q:\n%s", fwd, want, out)
	}
	seen := spoolPayloads(t, spool)
	if len(seen) != int(fwd) {
		t.Fatalf("spool holds %d distinct records, the node forwarded %d", len(seen), fwd)
	}
	for p, n := range seen {
		if p < 0 || p >= int64(fwd) || n != 1 {
			t.Fatalf("spool holds payload %d %d times", p, n)
		}
	}
}

// TestLeafRelayLifecycle runs a leaf and a root relay end to end: the
// leaf's stop seals its uplink to 0 pending, and the relay's root
// spool holds every record exactly once.
func TestLeafRelayLifecycle(t *testing.T) {
	const n = 1500
	root := filepath.Join(t.TempDir(), "root.bin")
	rel := startRole(t, "relay", "-spool", root, "-downstreams", "1", "-stats", "1ms")
	leaf := startRole(t, "leaf", "-uplink", rel.addr, "-uplink-batch", "128", "-mark-interval", "20ms", "-stats", "1ms")
	sendRecords(t, leaf.addr, 0, 0, n)
	m := leaf.mgr.(*ism.ISM)
	waitFor(t, "the leaf to dispatch every record", func() bool { return m.Stats().Dispatched == n })

	out := leaf.shutdown(t)
	if !strings.Contains(out, "uplink: unacked-batches=0\n") {
		t.Fatalf("leaf did not seal its uplink:\n%s", out)
	}
	out = rel.shutdown(t)
	if want := fmt.Sprintf("final: lanes=1 merged=%d ", n); !strings.Contains(out, want) {
		t.Fatalf("relay output lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "Relay runtime metrics") {
		t.Fatalf("relay output lacks its metrics table:\n%s", out)
	}
	seen := spoolPayloads(t, root)
	if len(seen) != n {
		t.Fatalf("root spool holds %d distinct records, want %d", len(seen), n)
	}
	for p, c := range seen {
		if p < 0 || p >= n || c != 1 {
			t.Fatalf("root spool holds payload %d %d times", p, c)
		}
	}
}

// TestLeavesPublishIntoOneRelay runs two self-publishing leaves into
// one relay: each leaf publishes its registry under its own node id,
// so the relay admits both metric streams, rejects no record, and the
// root spool holds samples from both leaves. The leaves' clocks are
// independent, and the second leaf publishes past the first leaf's
// last record; the first leaf's seal lets that tail through the
// watermark rule, so both uplinks end with nothing unacked and the
// relay with no order break, with no -max-stall to force it.
func TestLeavesPublishIntoOneRelay(t *testing.T) {
	const n = 300
	root := filepath.Join(t.TempDir(), "root.bin")
	rel := startRole(t, "relay", "-spool", root, "-downstreams", "2", "-stats", "1ms")
	var leaves []*runningRole
	for i := 0; i < 2; i++ {
		leaf := startRole(t, "leaf", "-uplink", rel.addr, "-uplink-node", fmt.Sprint(i+1),
			"-uplink-batch", "64", "-mark-interval", "20ms", "-publish", "5ms", "-stats", "1ms")
		leaves = append(leaves, leaf)
		sendRecords(t, leaf.addr, int32(i), i*n, n)
	}
	for _, leaf := range leaves {
		m := leaf.mgr.(*ism.ISM)
		waitFor(t, "a leaf to dispatch its records and a published sample", func() bool { return m.Stats().Dispatched > n })
	}
	for i, leaf := range leaves {
		if out := leaf.shutdown(t); !strings.Contains(out, "uplink: unacked-batches=0\n") {
			t.Fatalf("leaf %d did not drain its sealed uplink:\n%s", i+1, out)
		}
	}
	out := rel.shutdown(t)
	for _, want := range []string{" order-breaks=0 ", " sealed=2\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("relay output lacks %q:\n%s", want, out)
		}
	}
	if st := rel.mgr.(*relay.Relay).Stats(); st.PartitionRejects != 0 {
		t.Fatalf("relay rejected %d records: two leaves published under one source", st.PartitionRejects)
	}
	samples := map[int32]int{}
	for _, r := range spoolRecords(t, root) {
		if r.Kind == trace.KindSample {
			samples[r.Node]++
		}
	}
	// A leaf with -uplink-node N publishes as node -1 - N.
	for _, id := range []int32{-2, -3} {
		if samples[id] == 0 {
			t.Fatalf("root spool holds no samples from node %d; samples by node: %v", id, samples)
		}
	}
}

// TestDebugAddr: every role started with -debug-addr serves the pprof
// index and a metrics snapshot that names metrics of the catalogue
// (testdata/metric_names.golden), and takes the endpoint down on
// shutdown.
func TestDebugAddr(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "metric_names.golden"))
	if err != nil {
		t.Fatal(err)
	}
	catalogued := map[string]bool{}
	for _, name := range strings.Fields(string(golden)) {
		catalogued[name] = true
	}
	dbg := []string{"-debug-addr", "127.0.0.1:0", "-stats", "1ms"}
	rel := startRole(t, append([]string{"relay", "-downstreams", "1"}, dbg...)...)
	leaf := startRole(t, append([]string{"leaf", "-uplink", rel.addr, "-mark-interval", "20ms"}, dbg...)...)
	flat := startRole(t, dbg...)
	sendRecords(t, leaf.addr, 0, 0, 100)
	sendRecords(t, flat.addr, 0, 0, 100)
	for _, rr := range []*runningRole{flat, leaf, rel} {
		base := "http://" + rr.debug.Addr() + "/debug/"
		resp, err := http.Get(base + "pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /debug/pprof/ answered %s", rr.desc, resp.Status)
		}
		resp, err = http.Get(base + "metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap []struct{ Name string }
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: /debug/metrics: %v", rr.desc, err)
		}
		if !slices.ContainsFunc(snap, func(m struct{ Name string }) bool { return catalogued[m.Name] }) {
			t.Fatalf("%s: /debug/metrics names no catalogued metric: %v", rr.desc, snap)
		}
	}
	for _, rr := range []*runningRole{flat, leaf, rel} {
		addr := rr.debug.Addr()
		rr.shutdown(t)
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Fatalf("%s: the debug endpoint outlived shutdown", rr.desc)
		}
	}
}
