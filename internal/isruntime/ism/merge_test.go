package ism

// Merge-path property tests: the k-way frontier merge must be
// semantically invisible. A sharded ISM's output stream is required to
// be byte-identical to a single-lane run over the same injection
// sequence, and a crash-resume across the sharded merge must preserve
// exactly-once delivery per incarnation.
//
// Byte-identity holds for SISO lanes under serialized injection with a
// lossless policy: every lane's queue and ring are then tick-sorted,
// so the frontier rule makes the merger consume slots in global tick
// order — the same order a single lane produces — and the causal
// merger downstream is deterministic in its input sequence. (MISO's
// round-robin pop deliberately interleaves sources, so there the
// guarantee is causal validity, covered by TestShardedOrderedEquivalence.)

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/rng"
	"prism/internal/trace"
)

// mergeTestBatch is one injected data message: a contiguous slice of a
// source's program-ordered stream, capture sequences in Logical.
type mergeTestBatch struct {
	node int32
	recs []trace.Record
}

// buildExecution builds a causally valid multi-source execution over
// the given node ids (ring of sends/recvs plus user events), cuts each
// source's stream into random-size batches, and shuffles the batch
// injection order — the network-level reordering the ordering layer
// exists to repair.
func buildExecution(st *rng.Stream, nodes []int32, rounds int) []mergeTestBatch {
	P := len(nodes)
	streams := make([][]trace.Record, P)
	add := func(i int, r trace.Record) {
		r.Node = nodes[i]
		r.Logical = uint64(len(streams[i])) // capture sequence
		streams[i] = append(streams[i], r)
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < P; i++ {
			add(i, trace.Record{Kind: trace.KindUser, Tag: uint16(round)})
			tag := uint16(round*P + i)
			add(i, trace.Record{Kind: trace.KindSend, Tag: tag, Payload: int64(nodes[(i+1)%P])})
		}
		for i := 0; i < P; i++ {
			tag := uint16(round*P + (i+P-1)%P)
			add(i, trace.Record{Kind: trace.KindRecv, Tag: tag, Payload: int64(nodes[(i+P-1)%P])})
		}
	}
	var batches []mergeTestBatch
	for i := 0; i < P; i++ {
		rest := streams[i]
		for len(rest) > 0 {
			n := 1 + st.Intn(4)
			if n > len(rest) {
				n = len(rest)
			}
			batches = append(batches, mergeTestBatch{node: nodes[i], recs: rest[:n]})
			rest = rest[n:]
		}
	}
	st.Shuffle(len(batches), func(a, b int) { batches[a], batches[b] = batches[b], batches[a] })
	return batches
}

// collidingNodes returns count node ids that all hash to shard 0 of a
// shards-way split — the worst-case skewed source→shard assignment.
func collidingNodes(count, shards int) []int32 {
	var out []int32
	for id := int32(1); len(out) < count; id++ {
		if uint32(id)*2654435761%uint32(shards) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// runMergeInput drives one ISM over the injection sequence and returns
// its dispatched stream.
func runMergeInput(t *testing.T, shards int, batches []mergeTestBatch) []trace.Record {
	t.Helper()
	var clock event.VirtualClock
	m := New(Config{
		Buffering: SISO,
		Ordered:   true,
		Overflow:  flow.Block,
		Shards:    shards,
		// A small ring forces the backpressure path to run too.
		MergeRingCapacity: 4,
	}, &clock)
	var mu sync.Mutex
	var got []trace.Record
	m.SubscribeBatch("collect", func(rs []trace.Record) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	})
	for _, b := range batches {
		m.Inject(dataMsg(b.node, b.recs...))
	}
	m.Drain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMergeEquivalenceProperty(t *testing.T) {
	st := rng.New(777)
	total := func(batches []mergeTestBatch) int {
		n := 0
		for _, b := range batches {
			n += len(b.recs)
		}
		return n
	}
	for trial := 0; trial < 12; trial++ {
		shards := 2 + st.Intn(7) // 2..8
		sources := 2 + st.Intn(5)
		rounds := 1 + st.Intn(3)
		var nodes []int32
		skewed := trial%3 == 2
		if skewed {
			// All sources collide into one lane: the merge degenerates
			// to single-lane FIFO and must still match.
			nodes = collidingNodes(sources, shards)
		} else {
			for i := 0; i < sources; i++ {
				nodes = append(nodes, int32(st.Intn(1000)))
				for j := 0; j < i; j++ {
					if nodes[j] == nodes[i] {
						nodes[i]++ // keep ids distinct
						j = -1
					}
				}
			}
		}
		batches := buildExecution(st, nodes, rounds)
		want := runMergeInput(t, 1, batches)
		got := runMergeInput(t, shards, batches)
		if len(want) != total(batches) {
			t.Fatalf("trial %d: reference dispatched %d of %d", trial, len(want), total(batches))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (shards=%d skewed=%v): dispatched %d, reference %d",
				trial, shards, skewed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (shards=%d skewed=%v): stream diverges at %d:\n sharded   %v\n reference %v",
					trial, shards, skewed, i, got[i], want[i])
			}
		}
		if err := trace.CheckCausal(got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestCloseRacingInject pins the shutdown liveness of the merge path:
// an Inject racing Close has already raised its lane's pushed count,
// and if its stage push landed after that lane's final drain the batch
// would never settle — the merger then stalled forever on
// settled < pushed while another lane sat parked on a full ring, and
// Close deadlocked in its lane wait. Closing the input stages before
// stopping the lanes settles late pushes through the drop hook; this
// test hammers the window with tiny rings and concurrent injectors.
//
// InputCapacity is kept small so the Block policy parks the injectors
// once the stage fills: the watchdog then times a bounded drain and
// trips only on a genuine stall. With the default 1<<16 capacity the
// injectors bank tens of thousands of envelopes before Close's stage
// close lands, and on a single-CPU race-detector run draining that
// backlog against four spinning injectors can exceed any fixed
// timeout without any liveness bug. The small bound also covers the
// producer-parked-in-Push-at-close path the large default never hits.
func TestCloseRacingInject(t *testing.T) {
	deadline := time.Now().Add(60 * time.Second)
	for iter := 0; iter < 150 && time.Now().Before(deadline); iter++ {
		var clock event.VirtualClock
		m := New(Config{
			Buffering: MISO, Ordered: true, Overflow: flow.Block,
			Shards: 2, MergeRingCapacity: 2, InputCapacity: 64,
		}, &clock)
		m.SubscribeBatch("sink", func([]trace.Record) {})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for n := 0; n < 4; n++ {
			wg.Add(1)
			go func(node int32) {
				defer wg.Done()
				for seq := uint64(0); ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					m.Inject(dataMsg(node, seqRec(node, trace.KindUser, 0, seq, 0)))
				}
			}(int32(n))
		}
		done := make(chan error, 1)
		go func() { done <- m.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("iter %d: Close deadlocked against concurrent Inject\n%s", iter, buf)
		}
		close(stop)
		wg.Wait()
	}
}

// ismIncarnation is one manager lifetime in the crash-resume test: a
// sharded ordered ISM, whose Serve runs the session receiver, with
// per-payload delivery accounting.
type ismIncarnation struct {
	m *ISM

	mu    sync.Mutex
	seen  map[int64]int
	recs  []trace.Record
	conns []tp.Conn
}

func newIncarnation(resume bool) *ismIncarnation {
	var clock event.VirtualClock
	inc := &ismIncarnation{seen: map[int64]int{}}
	inc.m = New(Config{
		Buffering:     MISO,
		Ordered:       true,
		Overflow:      flow.Block,
		Shards:        3,
		ResumeSources: resume,
	}, &clock)
	inc.m.SubscribeBatch("account", func(rs []trace.Record) {
		inc.mu.Lock()
		for _, r := range rs {
			inc.seen[r.Payload]++
		}
		inc.recs = append(inc.recs, rs...)
		inc.mu.Unlock()
	})
	return inc
}

func (inc *ismIncarnation) attach(c tp.Conn) {
	inc.mu.Lock()
	inc.conns = append(inc.conns, c)
	inc.mu.Unlock()
	inc.m.Serve(c)
}

func (inc *ismIncarnation) delivered() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.recs)
}

// crash severs every served connection and shuts the manager down —
// the previous incarnation's state dies with it.
func (inc *ismIncarnation) crash(t *testing.T) {
	inc.mu.Lock()
	conns := append([]tp.Conn(nil), inc.conns...)
	inc.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	if err := inc.m.Close(); err != nil {
		t.Fatal(err)
	}
}

func waitDelivered(t *testing.T, inc *ismIncarnation, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for inc.delivered() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: delivered %d of %d", what, inc.delivered(), want)
		}
		time.Sleep(time.Millisecond)
	}
	inc.m.Drain()
}

// TestMergeCrashResumeExactlyOnce kills a sharded ordered ISM
// mid-stream and resumes against the same resilient sessions: the
// second incarnation's per-shard sequencers must adopt each source
// mid-stream (ResumeSources through the lane path) and deliver the
// second phase exactly once, with send-direction faults forcing
// session replay and batch reordering through the merge.
func TestMergeCrashResumeExactlyOnce(t *testing.T) {
	const (
		nodes    = 3
		batchesA = 30
		batchesB = 30
		perBatch = 6
	)
	payloadID := func(node int32, phase, batch, i int) int64 {
		return int64(node)*1_000_000 + int64(phase)*100_000 + int64(batch)*1_000 + int64(i)
	}

	inc1 := newIncarnation(false)
	inc2 := newIncarnation(true)
	var curMu sync.Mutex
	cur := inc1
	current := func() *ismIncarnation {
		curMu.Lock()
		defer curMu.Unlock()
		return cur
	}

	type nodeDriver struct {
		sess    *fault.Session
		ackDone chan struct{}
		seq     uint64
	}
	drivers := make([]*nodeDriver, nodes)
	for n := range drivers {
		node := int32(n)
		inj, err := fault.NewInjector(4200+uint64(n), fault.Plan{PDrop: 0.05, PDisconnect: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial: func() (tp.Conn, error) {
				a, b := tp.Pipe(256)
				current().attach(b)
				return inj.WrapConn(a), nil
			},
			Backoff:    100 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond,
			Jitter:     0.2,
			Seed:       uint64(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := &nodeDriver{sess: fault.NewSession(node, rd, fault.SessionConfig{Window: 64}), ackDone: make(chan struct{})}
		go func() {
			defer close(d.ackDone)
			for {
				if _, err := d.sess.Recv(); err != nil {
					return
				}
			}
		}()
		drivers[n] = d
	}

	drain := func(d *nodeDriver, node int32) {
		deadline := time.Now().Add(20 * time.Second)
		for d.sess.Pending() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d: %d batches never acked", node, d.sess.Pending())
			}
			_ = d.sess.Resend()
			d.sess.WaitAcked(20 * time.Millisecond)
		}
	}
	batch0Seen := func(inc *ismIncarnation, node int32, phase int) bool {
		inc.mu.Lock()
		defer inc.mu.Unlock()
		for i := 0; i < perBatch; i++ {
			if inc.seen[payloadID(node, phase, 0, i)] == 0 {
				return false
			}
		}
		return true
	}
	sendPhase := func(phase, batches int) {
		for n, d := range drivers {
			node := int32(n)
			for b := 0; b < batches; b++ {
				rs := make([]trace.Record, perBatch)
				for i := range rs {
					rs[i] = trace.Record{
						Node: node, Kind: trace.KindUser,
						Logical: d.seq, Payload: payloadID(node, phase, b, i),
					}
					d.seq++
				}
				if err := d.sess.Send(tp.DataMessage(node, rs)); err != nil {
					t.Fatalf("node %d phase %d batch %d: %v", node, phase, b, err)
				}
				if b == 0 {
					// Quiesce the phase's first batch all the way to
					// delivery, not just to its ack: sequence adoption
					// (and phase-1 sequence zero) is established when the
					// lane's sequencer first *pops* a record for this
					// source, and MISO lanes pop round-robin across
					// connection queues — after a mid-blast redial a later
					// batch could reach the sequencer first and adoption
					// would drop batch 0 as duplicates. Delivery proves
					// adoption happened at batch 0; every later batch then
					// has a higher capture sequence and reordering is
					// gap-held, never dropped.
					drain(d, node)
					deadline := time.Now().Add(20 * time.Second)
					for !batch0Seen(current(), node, phase) {
						if time.Now().After(deadline) {
							t.Fatalf("node %d phase %d: first batch never delivered", node, phase)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			drain(d, node)
		}
	}
	checkExactlyOnce := func(inc *ismIncarnation, phase, batches int, what string) {
		inc.mu.Lock()
		defer inc.mu.Unlock()
		missing, dup := 0, 0
		for n := 0; n < nodes; n++ {
			for b := 0; b < batches; b++ {
				for i := 0; i < perBatch; i++ {
					switch c := inc.seen[payloadID(int32(n), phase, b, i)]; {
					case c == 0:
						missing++
					case c > 1:
						dup++
					}
				}
			}
		}
		if missing != 0 || dup != 0 {
			t.Fatalf("%s: %d missing, %d duplicated of %d", what, missing, dup, nodes*batches*perBatch)
		}
		if err := trace.CheckCausal(inc.recs); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Phase 1 into the first incarnation.
	sendPhase(1, batchesA)
	waitDelivered(t, inc1, nodes*batchesA*perBatch, "incarnation 1")
	checkExactlyOnce(inc1, 1, batchesA, "incarnation 1")

	// Crash mid-stream and point new dials at the successor.
	curMu.Lock()
	cur = inc2
	curMu.Unlock()
	inc1.crash(t)

	// Phase 2: the sessions redial, hello against a fresh receiver, and
	// continue mid-stream capture sequences into fresh sequencers.
	sendPhase(2, batchesB)
	waitDelivered(t, inc2, nodes*batchesB*perBatch, "incarnation 2")
	checkExactlyOnce(inc2, 2, batchesB, "incarnation 2")
	if got := inc2.delivered(); got != nodes*batchesB*perBatch {
		t.Fatalf("incarnation 2 delivered %d, want exactly %d (phase-1 records must not replay)", got, nodes*batchesB*perBatch)
	}
	if held := inc2.m.Stats().Held; held != 0 {
		t.Fatalf("incarnation 2 still holds %d records", held)
	}
	// Serve's session receiver greeted every redialed session and
	// absorbed the replays the drops forced.
	snap := inc2.m.Metrics().Snapshot()
	if hellos := snap.Value("session.hellos"); hellos < nodes {
		t.Fatalf("incarnation 2 saw %v hellos, want at least one per node (%d)", hellos, nodes)
	}
	t.Logf("incarnation 2: session.dup_batches=%v session.gap_batches=%v",
		snap.Value("session.dup_batches"), snap.Value("session.gap_batches"))

	for n, d := range drivers {
		_ = d.sess.Close()
		select {
		case <-d.ackDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d ack loop stuck", n)
		}
	}
	if err := inc2.m.Close(); err != nil {
		t.Fatal(err)
	}
}
