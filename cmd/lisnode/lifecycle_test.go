package main

// The node's lifecycle against a real manager: the test binary
// re-executes itself as a lisnode (TestMain) and points it at an
// in-process ISM served over TCP, so the session, its acks and the
// manager's control traffic all take the wire path a deployment takes.

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// testISM is an unordered, blocking manager serving every connection
// its listener accepts, counting each dispatched record by source and
// capture sequence: the LIS numbers a source's records from 0, so a
// loss is a missing sequence and a duplicate a count above one.
type testISM struct {
	*ism.ISM
	addr string

	mu    sync.Mutex
	conns []tp.Conn // accepted, in order
	seen  map[trace.SourceKey]map[uint64]int
}

func startISM(t *testing.T) *testISM {
	t.Helper()
	var clock event.VirtualClock
	m := &testISM{
		ISM:  ism.New(ism.Config{Buffering: ism.SISO, Overflow: flow.Block}, &clock),
		seen: map[trace.SourceKey]map[uint64]int{},
	}
	m.SubscribeBatch("count", func(recs []trace.Record) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, r := range recs {
			k := trace.SourceKey{Node: r.Node, Process: r.Process}
			if m.seen[k] == nil {
				m.seen[k] = map[uint64]int{}
			}
			m.seen[k][r.Logical]++
		}
	})
	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.addr = ln.Addr()
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m.mu.Lock()
			m.conns = append(m.conns, c)
			m.mu.Unlock()
			m.Serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepting
		m.Close()
	})
	return m
}

// conn returns the i-th accepted connection, or nil.
func (m *testISM) conn(i int) tp.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < len(m.conns) {
		return m.conns[i]
	}
	return nil
}

// checkExactlyOnce closes the manager, so it dispatches everything it
// took in, and checks that it dispatched want records, each source's
// sequences 0..n-1 once each.
func (m *testISM) checkExactlyOnce(t *testing.T, want uint64) {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Dispatched; got != want {
		t.Fatalf("the ISM dispatched %d records, the node captured %d", got, want)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, seqs := range m.seen {
		for seq := range uint64(len(seqs)) {
			if n := seqs[seq]; n != 1 {
				t.Fatalf("source %+v: sequence %d dispatched %d times (of %d sequences)", k, seq, n, len(seqs))
			}
		}
	}
}

// nodeProc is a lisnode running as a child process.
type nodeProc struct {
	cmd    *exec.Cmd
	stdout strings.Builder
	stderr strings.Builder
	done   chan struct{} // closed once the process has exited
	err    error         // Wait's result, set before done closes
}

// startNode runs the test binary as a lisnode with args.
func startNode(t *testing.T, args string) *nodeProc {
	t.Helper()
	n := &nodeProc{cmd: exec.Command(os.Args[0]), done: make(chan struct{})}
	n.cmd.Env = append(os.Environ(), "LISNODE_ARGS="+args)
	n.cmd.Stdout = &n.stdout
	n.cmd.Stderr = &n.stderr
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		n.err = n.cmd.Wait()
		close(n.done)
	}()
	t.Cleanup(func() {
		select {
		case <-n.done:
		default:
			n.cmd.Process.Kill()
			<-n.done
		}
	})
	return n
}

// wait waits up to limit for the node to exit 0, and returns its
// standard output.
func (n *nodeProc) wait(t *testing.T, limit time.Duration) string {
	t.Helper()
	select {
	case <-n.done:
		if n.err != nil {
			t.Fatalf("lisnode: %v\nstdout:\n%s\nstderr:\n%s", n.err, n.stdout.String(), n.stderr.String())
		}
	case <-time.After(limit):
		n.cmd.Process.Kill()
		<-n.done
		t.Fatalf("lisnode still running after %s\nstderr:\n%s", limit, n.stderr.String())
	}
	if strings.Contains(n.stderr.String(), "never acknowledged") {
		t.Fatalf("lisnode left batches unacknowledged:\n%s", n.stderr.String())
	}
	return n.stdout.String()
}

// field reads name=<integer> from a node's report.
func field(t *testing.T, out, name string) uint64 {
	t.Helper()
	m := regexp.MustCompile(`\b` + name + `=(\d+)\b`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("report lacks %s=:\n%s", name, out)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestNodeEndsAtManagerShutdown: a manager's shutdown ends the node's
// run long before -duration, with nothing dropped and every forwarded
// batch acknowledged.
func TestNodeEndsAtManagerShutdown(t *testing.T) {
	m := startISM(t)
	n := startNode(t, "-ism "+m.addr+" -node 0 -procs 2 -rate 200 -duration 30s")
	waitFor(t, "the node's first batch", func() bool { return m.Stats().Arrived > 0 })
	time.Sleep(time.Second - 200*time.Millisecond) // about 1 s into the run
	m.Broadcast(tp.CtlShutdown, 0)
	out := n.wait(t, 3*time.Second)

	if dropped := field(t, out, "dropped"); dropped != 0 {
		t.Fatalf("the node dropped %d records:\n%s", dropped, out)
	}
	fwd := field(t, out, "forwarded")
	waitFor(t, "the forwarded records to arrive", func() bool { return m.Stats().Arrived >= fwd })
	if got := m.Stats().Arrived; got != fwd {
		t.Fatalf("the ISM took in %d records, the node forwarded %d", got, fwd)
	}
}

// TestNodeReplaysAcrossReconnect: the manager drops the node's first
// connection mid-run; the node redials and replays its unacked window,
// and the manager dispatches every captured record once.
func TestNodeReplaysAcrossReconnect(t *testing.T) {
	m := startISM(t)
	n := startNode(t, "-ism "+m.addr+" -node 0 -procs 2 -rate 500 -duration 2s -redial-backoff 10ms")
	waitFor(t, "the node's first batch", func() bool { return m.Stats().Arrived > 0 })
	time.Sleep(500 * time.Millisecond)
	if err := m.conn(0).Close(); err != nil {
		t.Fatal(err)
	}
	out := n.wait(t, 10*time.Second)

	if redials := field(t, out, "redials"); redials == 0 {
		t.Fatalf("the node never redialed:\n%s", out)
	}
	captured := field(t, out, "captured")
	if fwd := field(t, out, "forwarded"); fwd != captured {
		t.Fatalf("the node forwarded %d of %d captured records:\n%s", fwd, captured, out)
	}
	waitFor(t, "the captured records to arrive", func() bool { return m.Stats().Arrived >= captured })
	m.checkExactlyOnce(t, captured)
}

// TestIdleNodeKeepsItsConnection: -io-timeout bounds writes only, so a
// node that has nothing to send for longer than it keeps its first
// connection.
func TestIdleNodeKeepsItsConnection(t *testing.T) {
	m := startISM(t)
	n := startNode(t, "-ism "+m.addr+" -node 0 -io-timeout 200ms -rate 1 -duration 2s")
	out := n.wait(t, 10*time.Second)

	if redials := field(t, out, "redials"); redials != 0 {
		t.Fatalf("an idle node redialed %d times:\n%s", redials, out)
	}
	if hellos := m.Metrics().Snapshot().Value("session.hellos"); hellos != 1 {
		t.Fatalf("the ISM counted %g hellos, want 1", hellos)
	}
	fwd := field(t, out, "forwarded")
	waitFor(t, "the forwarded records to arrive", func() bool { return m.Stats().Arrived >= fwd })
	m.checkExactlyOnce(t, fwd)
	if fwd == 0 {
		t.Fatalf("the node forwarded nothing:\n%s", out)
	}
}
