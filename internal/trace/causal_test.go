package trace

import (
	"bytes"
	"testing"

	"prism/internal/raceflag"
	"prism/internal/rng"
)

// orderer chains a Sequencer into a CausalMerger one record at a time
// — the two stages the ISM runs per shard and at the merge point — so
// the Orderer tests check their composition.
type orderer struct {
	seq    *Sequencer
	merge  *CausalMerger
	seqBuf []Record
}

func newOrderer() *orderer {
	return &orderer{seq: NewSequencer(), merge: NewCausalMerger()}
}

// Add offers rec with its per-source capture sequence and returns the
// records that became dispatchable, Lamport-stamped, in causal order.
func (o *orderer) Add(rec Record, seq uint64) []Record {
	o.seqBuf = o.seq.AddTo(o.seqBuf[:0], rec, seq)
	var out []Record
	for _, r := range o.seqBuf {
		out = o.merge.AddTo(out, r)
	}
	return out
}

func (o *orderer) Held() int          { return o.seq.Held() + o.merge.Held() }
func (o *orderer) MaxHeld() int       { return o.seq.MaxHeld() + o.merge.MaxHeld() }
func (o *orderer) Dispatched() uint64 { return o.merge.Dispatched() }
func (o *orderer) Resume()            { o.seq.Resume() }

func TestOrdererInOrderPassThrough(t *testing.T) {
	o := newOrderer()
	var all []Record
	for i := 0; i < 5; i++ {
		out := o.Add(Record{Node: 0, Kind: KindUser, Time: int64(i)}, uint64(i))
		all = append(all, out...)
	}
	if len(all) != 5 {
		t.Fatalf("dispatched %d", len(all))
	}
	for i, r := range all {
		if r.Logical != uint64(i+1) {
			t.Fatalf("logical stamps %v", all)
		}
	}
	if o.Held() != 0 {
		t.Fatalf("held %d", o.Held())
	}
	if err := CheckCausal(all); err != nil {
		t.Fatal(err)
	}
}

func TestOrdererReordersProgramOrder(t *testing.T) {
	o := newOrderer()
	// Arrivals out of order: seq 2, 0, 1.
	if out := o.Add(Record{Node: 0, Kind: KindUser, Tag: 2}, 2); len(out) != 0 {
		t.Fatalf("seq 2 dispatched early: %v", out)
	}
	if o.Held() != 1 {
		t.Fatalf("held %d", o.Held())
	}
	out := o.Add(Record{Node: 0, Kind: KindUser, Tag: 0}, 0)
	if len(out) != 1 || out[0].Tag != 0 {
		t.Fatalf("seq 0 dispatch: %v", out)
	}
	out = o.Add(Record{Node: 0, Kind: KindUser, Tag: 1}, 1)
	if len(out) != 2 || out[0].Tag != 1 || out[1].Tag != 2 {
		t.Fatalf("release chain: %v", out)
	}
	if o.Held() != 0 || o.MaxHeld() != 1 {
		t.Fatalf("held %d maxHeld %d", o.Held(), o.MaxHeld())
	}
}

func TestOrdererRecvWaitsForSend(t *testing.T) {
	o := newOrderer()
	// Recv on node 1 arrives before the matching send from node 0.
	recv := Record{Node: 1, Kind: KindRecv, Tag: 42, Payload: 0}
	if out := o.Add(recv, 0); len(out) != 0 {
		t.Fatalf("recv dispatched before send: %v", out)
	}
	if o.Held() != 1 {
		t.Fatalf("held %d", o.Held())
	}
	send := Record{Node: 0, Kind: KindSend, Tag: 42, Payload: 1}
	out := o.Add(send, 0)
	if len(out) != 2 {
		t.Fatalf("send should release both: %v", out)
	}
	if out[0].Kind != KindSend || out[1].Kind != KindRecv {
		t.Fatalf("order wrong: %v", out)
	}
	if out[0].Logical >= out[1].Logical {
		t.Fatal("send must precede recv logically")
	}
	if err := CheckCausal(out); err != nil {
		t.Fatal(err)
	}
}

func TestOrdererDuplicateDropped(t *testing.T) {
	o := newOrderer()
	o.Add(Record{Node: 0, Kind: KindUser}, 0)
	if out := o.Add(Record{Node: 0, Kind: KindUser}, 0); len(out) != 0 {
		t.Fatalf("duplicate dispatched: %v", out)
	}
	if o.Dispatched() != 1 {
		t.Fatalf("dispatched %d", o.Dispatched())
	}
}

func TestOrdererMultipleSources(t *testing.T) {
	o := newOrderer()
	var all []Record
	all = append(all, o.Add(Record{Node: 0, Kind: KindUser}, 0)...)
	all = append(all, o.Add(Record{Node: 1, Kind: KindUser}, 0)...)
	all = append(all, o.Add(Record{Node: 0, Process: 1, Kind: KindUser}, 0)...)
	if len(all) != 3 {
		t.Fatalf("dispatched %d", len(all))
	}
	if err := CheckCausal(all); err != nil {
		t.Fatal(err)
	}
}

func TestOrdererChainAcrossSources(t *testing.T) {
	o := newOrderer()
	// Node 1: recv(seq 0) then user(seq 1); both held until node 0's send.
	if out := o.Add(Record{Node: 1, Kind: KindRecv, Tag: 5, Payload: 0}, 0); len(out) != 0 {
		t.Fatal("early dispatch")
	}
	if out := o.Add(Record{Node: 1, Kind: KindUser}, 1); len(out) != 0 {
		t.Fatal("program-order violation")
	}
	out := o.Add(Record{Node: 0, Kind: KindSend, Tag: 5, Payload: 1}, 0)
	if len(out) != 3 {
		t.Fatalf("expected full release, got %v", out)
	}
	if err := CheckCausal(out); err != nil {
		t.Fatal(err)
	}
}

// TestOrdererRandomizedDeliveries shuffles a causally valid execution
// and checks the orderer always reconstructs a causally valid stream
// containing every event.
func TestOrdererRandomizedDeliveries(t *testing.T) {
	st := rng.New(404)
	for trial := 0; trial < 50; trial++ {
		// Build an execution: P processes, each sends to the next and
		// receives from the previous, with user events interleaved.
		const P = 4
		type item struct {
			rec Record
			seq uint64
		}
		var items []item
		seqs := make([]uint64, P)
		add := func(node int, r Record) {
			r.Node = int32(node)
			items = append(items, item{rec: r, seq: seqs[node]})
			seqs[node]++
		}
		// Round-based sends: every round, node i sends tag=round*P+i
		// to node (i+1)%P, which receives it in a later position.
		for round := 0; round < 3; round++ {
			for i := 0; i < P; i++ {
				add(i, Record{Kind: KindUser})
				tag := uint16(round*P + i)
				add(i, Record{Kind: KindSend, Tag: tag, Payload: int64((i + 1) % P)})
			}
			for i := 0; i < P; i++ {
				tag := uint16(round*P + (i+P-1)%P)
				add(i, Record{Kind: KindRecv, Tag: tag, Payload: int64((i + P - 1) % P)})
			}
		}
		// Shuffle delivery order.
		st.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		o := newOrderer()
		var out []Record
		for _, it := range items {
			out = append(out, o.Add(it.rec, it.seq)...)
		}
		if len(out) != len(items) {
			t.Fatalf("trial %d: dispatched %d of %d (held %d)", trial, len(out), len(items), o.Held())
		}
		if err := CheckCausal(out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if o.Held() != 0 {
			t.Fatalf("trial %d: %d events stuck", trial, o.Held())
		}
	}
}

func TestCheckCausalDetectsViolations(t *testing.T) {
	// Non-increasing logical stamps.
	bad := []Record{{Logical: 2}, {Logical: 2}}
	if CheckCausal(bad) == nil {
		t.Fatal("non-increasing logical accepted")
	}
	// Receive before send.
	bad2 := []Record{
		{Logical: 1, Node: 1, Kind: KindRecv, Tag: 3, Payload: 0},
		{Logical: 2, Node: 0, Kind: KindSend, Tag: 3, Payload: 1},
	}
	if CheckCausal(bad2) == nil {
		t.Fatal("recv-before-send accepted")
	}
}

func TestOrdererResumeAdoptsMidStreamSource(t *testing.T) {
	o := newOrderer()
	o.Resume()
	// A restarted manager first sees this source at capture seq 40 —
	// the prefix died with the previous incarnation. Resume mode
	// dispatches from there instead of holding forever.
	out := o.Add(Record{Node: 3, Kind: KindUser, Tag: 40}, 40)
	if len(out) != 1 || out[0].Tag != 40 {
		t.Fatalf("mid-stream source not adopted: %v", out)
	}
	out = o.Add(Record{Node: 3, Kind: KindUser, Tag: 41}, 41)
	if len(out) != 1 || out[0].Tag != 41 {
		t.Fatalf("post-adoption program order broken: %v", out)
	}
	// Once adopted, reordering within the source still holds back.
	if out := o.Add(Record{Node: 3, Kind: KindUser, Tag: 43}, 43); len(out) != 0 {
		t.Fatalf("gap dispatched early: %v", out)
	}
	out = o.Add(Record{Node: 3, Kind: KindUser, Tag: 42}, 42)
	if len(out) != 2 || out[0].Tag != 42 || out[1].Tag != 43 {
		t.Fatalf("release chain after adoption: %v", out)
	}
	// A second source starting at zero is unaffected.
	if out := o.Add(Record{Node: 4, Kind: KindUser}, 0); len(out) != 1 {
		t.Fatalf("fresh source blocked: %v", out)
	}
	// Without Resume, the same mid-stream arrival is held.
	plain := newOrderer()
	if out := plain.Add(Record{Node: 3, Kind: KindUser, Tag: 40}, 40); len(out) != 0 {
		t.Fatalf("plain orderer adopted mid-stream: %v", out)
	}
	if plain.Held() != 1 {
		t.Fatalf("held %d", plain.Held())
	}
}

func TestSequencerProgramOrderOnly(t *testing.T) {
	s := NewSequencer()
	// Gap: seq 1 held until 0 arrives; Logical is left untouched.
	if out := s.AddTo(nil, Record{Node: 2, Kind: KindUser, Tag: 1, Logical: 77}, 1); len(out) != 0 {
		t.Fatalf("gap released early: %v", out)
	}
	if s.Held() != 1 || s.MaxHeld() != 1 {
		t.Fatalf("held %d maxHeld %d", s.Held(), s.MaxHeld())
	}
	out := s.AddTo(nil, Record{Node: 2, Kind: KindUser, Tag: 0}, 0)
	if len(out) != 2 || out[0].Tag != 0 || out[1].Tag != 1 {
		t.Fatalf("release chain: %v", out)
	}
	if out[1].Logical != 77 {
		t.Fatalf("sequencer must not touch Logical: %v", out[1])
	}
	// Receives are NOT held for their sends — that is the merger's job.
	out = s.AddTo(out[:0], Record{Node: 2, Kind: KindRecv, Tag: 9, Payload: 0}, 2)
	if len(out) != 1 {
		t.Fatalf("sequencer held a recv: %v", out)
	}
	// Duplicate dropped.
	if out := s.AddTo(nil, Record{Node: 2, Kind: KindUser}, 1); len(out) != 0 {
		t.Fatalf("duplicate released: %v", out)
	}
	if s.Sequenced() != 3 || s.Held() != 0 {
		t.Fatalf("sequenced %d held %d", s.Sequenced(), s.Held())
	}
}

func TestCausalMergerStallsSourceBehindRecv(t *testing.T) {
	m := NewCausalMerger()
	// Node 1's recv arrives (program-ordered) before node 0's send; the
	// user event behind it must queue, not overtake.
	if out := m.AddTo(nil, Record{Node: 1, Kind: KindRecv, Tag: 7, Payload: 0}); len(out) != 0 {
		t.Fatal("recv released before send")
	}
	if out := m.AddTo(nil, Record{Node: 1, Kind: KindUser, Tag: 1}); len(out) != 0 {
		t.Fatal("successor overtook stalled recv")
	}
	if m.Held() != 2 || m.MaxHeld() != 2 {
		t.Fatalf("held %d maxHeld %d", m.Held(), m.MaxHeld())
	}
	out := m.AddTo(nil, Record{Node: 0, Kind: KindSend, Tag: 7, Payload: 1})
	if len(out) != 3 {
		t.Fatalf("send should release the chain: %v", out)
	}
	if out[0].Kind != KindSend || out[1].Kind != KindRecv || out[2].Tag != 1 {
		t.Fatalf("release order: %v", out)
	}
	for i, r := range out {
		if r.Logical != uint64(i+1) {
			t.Fatalf("lamport stamps: %v", out)
		}
	}
	if m.Held() != 0 || m.Dispatched() != 3 || m.Clock() != 3 {
		t.Fatalf("held %d dispatched %d clock %d", m.Held(), m.Dispatched(), m.Clock())
	}
	if err := CheckCausal(out); err != nil {
		t.Fatal(err)
	}
}

// TestCausalMergerDeterministic feeds the same per-source-ordered
// interleaving twice and requires byte-identical output — the property
// the ISM's sharded-vs-single equivalence tests lean on.
func TestCausalMergerDeterministic(t *testing.T) {
	st := rng.New(99)
	const P = 4
	run := func(input []Record) []Record {
		m := NewCausalMerger()
		var out []Record
		for _, r := range input {
			out = m.AddTo(out, r)
		}
		if m.Held() != 0 {
			t.Fatalf("%d records stuck", m.Held())
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		// Per-source streams with a ring of sends/recvs, interleaved by
		// random round-robin — program order preserved per source.
		streams := make([][]Record, P)
		for i := 0; i < P; i++ {
			tag := uint16(i)
			streams[i] = []Record{
				{Node: int32(i), Kind: KindUser},
				{Node: int32(i), Kind: KindSend, Tag: tag, Payload: int64((i + 1) % P)},
				{Node: int32(i), Kind: KindRecv, Tag: uint16((i + P - 1) % P), Payload: int64((i + P - 1) % P)},
				{Node: int32(i), Kind: KindUser, Tag: 100},
			}
		}
		var input []Record
		cursors := make([]int, P)
		remaining := 4 * P
		for remaining > 0 {
			i := st.Intn(P)
			if cursors[i] == len(streams[i]) {
				continue
			}
			input = append(input, streams[i][cursors[i]])
			cursors[i]++
			remaining--
		}
		a, b := run(input), run(input)
		if len(a) != len(input) {
			t.Fatalf("trial %d: released %d of %d", trial, len(a), len(input))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: nondeterministic at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
		if err := CheckCausal(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSequencerSetNextRestoresCursor pins the spool-restore contract:
// a seeded cursor drops the replayed prefix by sequence match and
// releases exactly the unseen suffix, in order.
func TestSequencerSetNextRestoresCursor(t *testing.T) {
	s := NewSequencer()
	key := SourceKey{Node: 7, Process: 0}
	s.SetNext(key, 3)
	var got []Record
	// An at-least-once replay resends the whole batch: sequences 1..5,
	// of which 1 and 2 were already emitted before the crash.
	for seq := uint64(1); seq <= 5; seq++ {
		got = s.AddTo(got, Record{Node: 7, Tag: uint16(seq)}, seq)
	}
	if len(got) != 3 {
		t.Fatalf("released %d records, want 3 (the unseen suffix)", len(got))
	}
	for i, r := range got {
		if r.Tag != uint16(3+i) {
			t.Fatalf("release %d has tag %d, want %d", i, r.Tag, 3+i)
		}
	}
	if held := s.Held(); held != 0 {
		t.Fatalf("%d records held after contiguous replay", held)
	}
}

// TestSequencerSetNextOverridesResume: an explicitly seeded cursor must
// win over Resume's first-seen adoption, or a restore followed by a
// replay starting mid-batch would adopt the wrong start and emit
// duplicates.
func TestSequencerSetNextOverridesResume(t *testing.T) {
	s := NewSequencer()
	s.Resume()
	key := SourceKey{Node: 1, Process: 2}
	s.SetNext(key, 4)
	var got []Record
	got = s.AddTo(got, Record{Node: 1, Process: 2, Tag: 2}, 2) // replayed duplicate
	if len(got) != 0 {
		t.Fatalf("duplicate below the seeded cursor released: %v", got)
	}
	got = s.AddTo(got, Record{Node: 1, Process: 2, Tag: 4}, 4)
	if len(got) != 1 || got[0].Tag != 4 {
		t.Fatalf("seeded cursor record not released: %v", got)
	}
}

// TestCausalMergerObserveRestores replays an emitted trace prefix into
// a fresh merger and checks the restored state behaves exactly like
// the original: the Lamport clock continues past the prefix, an
// observed-but-unconsumed send still satisfies a late receive, and a
// consumed send does not double-match.
func TestCausalMergerObserveRestores(t *testing.T) {
	send := func(node, peer int32, tag uint16) Record {
		return Record{Node: node, Kind: KindSend, Tag: tag, Payload: int64(peer)}
	}
	recv := func(node, peer int32, tag uint16) Record {
		return Record{Node: node, Kind: KindRecv, Tag: tag, Payload: int64(peer)}
	}
	live := NewCausalMerger()
	var prefix []Record
	prefix = live.AddTo(prefix, send(1, 2, 10)) // consumed by the recv below
	prefix = live.AddTo(prefix, recv(2, 1, 10))
	prefix = live.AddTo(prefix, send(1, 3, 11)) // still unconsumed at "crash"

	restored := NewCausalMerger()
	for _, r := range prefix {
		restored.Observe(r)
	}
	if restored.Clock() != live.Clock() {
		t.Fatalf("restored clock %d, live clock %d", restored.Clock(), live.Clock())
	}
	if restored.Dispatched() != uint64(len(prefix)) {
		t.Fatalf("restored dispatched %d, want %d", restored.Dispatched(), len(prefix))
	}

	// Both mergers must now treat the continuation identically.
	cont := []Record{recv(3, 1, 11), recv(2, 1, 10)}
	var gotLive, gotRest []Record
	for _, r := range cont {
		gotLive = live.AddTo(gotLive, r)
		gotRest = restored.AddTo(gotRest, r)
	}
	if len(gotRest) != len(gotLive) {
		t.Fatalf("restored released %d, live released %d", len(gotRest), len(gotLive))
	}
	for i := range gotLive {
		if gotRest[i] != gotLive[i] {
			t.Fatalf("restored diverges at %d: %v vs %v", i, gotRest[i], gotLive[i])
		}
	}
	// The tag-10 send was consumed before the crash, so its replayed
	// receive must park, not dispatch.
	if len(gotRest) != 1 || gotRest[0].Tag != 11 {
		t.Fatalf("consumed send double-matched: released %v", gotRest)
	}
	if restored.Held() != 1 {
		t.Fatalf("restored held %d, want the parked tag-10 receive", restored.Held())
	}
}

// refSequencer and refMerger are the ordering logic as it stood before
// per-source state — one map per field, a key lookup per access — kept
// as the oracle the differential test holds the two entries of each
// stage to.
type refSequencer struct {
	resume         bool
	next           map[SourceKey]uint64
	held           map[SourceKey][]seqRecord
	heldN, maxHeld int
}

func (s *refSequencer) add(dst []Record, rec Record, seq uint64) []Record {
	key := SourceKey{rec.Node, rec.Process}
	if _, seen := s.next[key]; s.resume && !seen {
		s.next[key] = seq
	}
	if want := s.next[key]; seq != want {
		if seq > want {
			s.held[key] = append(s.held[key], seqRecord{rec: rec, seq: seq})
			s.heldN++
			s.maxHeld = max(s.maxHeld, s.heldN)
		}
		return dst
	}
	dst = append(dst, rec)
	s.next[key] = seq + 1
	buf := s.held[key]
	for {
		idx := -1
		for i, h := range buf {
			if h.seq == s.next[key] {
				idx = i
				break
			}
		}
		if idx < 0 {
			s.held[key] = buf
			return dst
		}
		dst = append(dst, buf[idx].rec)
		s.next[key] = buf[idx].seq + 1
		buf = append(buf[:idx], buf[idx+1:]...)
		s.heldN--
	}
}

type refMerger struct {
	clock, dispatched uint64
	sendSeen          map[msgKey]int
	recvsHeld         map[msgKey][]Record
	pending           map[SourceKey][]Record
	stalled           map[SourceKey]bool
	heldN, maxHeld    int
}

func (m *refMerger) hold() {
	m.heldN++
	m.maxHeld = max(m.maxHeld, m.heldN)
}

func (m *refMerger) observe(rec Record) {
	m.clock = max(m.clock, rec.Logical)
	m.dispatched++
	switch rec.Kind {
	case KindSend:
		m.sendSeen[sendKey(&rec)]++
	case KindRecv:
		if mk := recvKey(&rec); m.sendSeen[mk] > 0 {
			m.sendSeen[mk]--
		}
	}
}

func (m *refMerger) add(dst []Record, rec Record) []Record {
	key := SourceKey{rec.Node, rec.Process}
	if m.stalled[key] {
		m.pending[key] = append(m.pending[key], rec)
		m.hold()
		return dst
	}
	return m.offer(dst, rec, key)
}

func (m *refMerger) offer(dst []Record, rec Record, key SourceKey) []Record {
	if rec.Kind == KindRecv {
		mk := recvKey(&rec)
		if m.sendSeen[mk] == 0 {
			m.recvsHeld[mk] = append(m.recvsHeld[mk], rec)
			m.stalled[key] = true
			m.hold()
			return dst
		}
		m.sendSeen[mk]--
	}
	return m.release(dst, rec)
}

func (m *refMerger) release(dst []Record, rec Record) []Record {
	m.clock++
	rec.Logical = m.clock
	dst = append(dst, rec)
	m.dispatched++
	if rec.Kind != KindSend {
		return dst
	}
	mk := sendKey(&rec)
	m.sendSeen[mk]++
	if waiting := m.recvsHeld[mk]; len(waiting) > 0 {
		r := waiting[0]
		m.recvsHeld[mk] = waiting[1:]
		m.heldN--
		m.sendSeen[mk]--
		dst = m.release(dst, r)
		rk := SourceKey{r.Node, r.Process}
		delete(m.stalled, rk)
		for len(m.pending[rk]) > 0 && !m.stalled[rk] {
			next := m.pending[rk][0]
			m.pending[rk] = m.pending[rk][1:]
			m.heldN--
			dst = m.offer(dst, next, rk)
		}
	}
	return dst
}

func newRefSequencer() *refSequencer {
	return &refSequencer{next: map[SourceKey]uint64{}, held: map[SourceKey][]seqRecord{}}
}

func newRefMerger() *refMerger {
	return &refMerger{
		sendSeen: map[msgKey]int{}, recvsHeld: map[msgKey][]Record{},
		pending: map[SourceKey][]Record{}, stalled: map[SourceKey]bool{},
	}
}

// diffStream builds one seeded arrival sequence for the differential
// test, capture sequences in Logical: 2–16 sources (some node ids 64
// apart, so they share a lookaside slot) run a causally valid execution
// — one message tag in four from a set of three, so tags repeat while
// earlier uses are still in flight — with the odd receive nobody sends; the per-source streams
// are then interleaved at random, which puts receives ahead of their
// sends in chains, and the arrival order is perturbed with local swaps
// (gaps), replays and the odd lost record.
func diffStream(st *rng.Stream) (in []Record, keys []SourceKey) {
	keys = make([]SourceKey, 2+st.Intn(15))
	onNode := map[int32][]int{}
	for i := range keys {
		keys[i] = SourceKey{Node: int32(i/2) + 64*int32(st.Intn(2)*(i/2%2)), Process: int32(i % 2)}
		onNode[keys[i].Node] = append(onNode[keys[i].Node], i)
	}
	streams := make([][]Record, len(keys))
	emit := func(i int, r Record) Record {
		r.Node, r.Process, r.Logical = keys[i].Node, keys[i].Process, uint64(len(streams[i]))
		r.Time = int64(len(in))
		streams[i] = append(streams[i], r)
		in = append(in, r) // counts records; rebuilt below
		return r
	}
	var inflight []Record
	for n := 150 + st.Intn(450); n > 0; n-- {
		i := st.Intn(len(keys))
		switch u := st.Intn(20); {
		case u < 5:
			peer := keys[st.Intn(len(keys))].Node
			tag := uint16(100 + n)
			if st.Intn(4) == 0 {
				tag = uint16(st.Intn(3))
			}
			inflight = append(inflight, emit(i, Record{Kind: KindSend, Tag: tag, Payload: int64(peer)}))
		case u < 10 && len(inflight) > 0:
			k := st.Intn(len(inflight))
			snd := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			at := onNode[int32(snd.Payload)]
			emit(at[st.Intn(len(at))], Record{Kind: KindRecv, Tag: snd.Tag, Payload: int64(snd.Node)})
		case u == 10 && st.Intn(16) == 0:
			emit(i, Record{Kind: KindRecv, Tag: 9, Payload: int64(keys[0].Node)})
		default:
			emit(i, Record{Kind: KindUser, Tag: uint16(n)})
		}
	}
	in = in[:0]
	for live := len(streams); live > 0; {
		i := st.Intn(len(streams))
		if len(streams[i]) == 0 {
			continue
		}
		in = append(in, streams[i][0])
		if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
			live--
		}
	}
	for k := len(in) / 6; k > 0; k-- {
		i := st.Intn(len(in))
		j := min(len(in)-1, i+st.Intn(8))
		switch st.Intn(64) {
		case 0: // loss
			in = append(in[:i], in[i+1:]...)
		case 1, 2, 3, 4, 5, 6, 7, 8: // replay: in[i] arrives again at j
			in = append(in[:j+1], in[j:]...)
			in[j] = in[i]
		default:
			in[i], in[j] = in[j], in[i]
		}
	}
	return in, keys
}

// TestOrderingMatchesReference holds the per-record and the batch entry
// of both stages to the reference on 64 seeded streams: byte-identical
// releases (records and Lamport stamps) and equal counters after every
// call, through Resume and SetNext mid-stream and a merger rebuilt with
// Observe from what was emitted so far.
func TestOrderingMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		st := rng.New(seed)
		in, keys := diffStream(st)
		refSeq, oneSeq, batSeq := newRefSequencer(), NewSequencer(), NewSequencer()
		refCM, oneCM, batCM := newRefMerger(), NewCausalMerger(), NewCausalMerger()
		var outRef, outOne, outBat []Record
		var seqOOO, cmOOO uint64 // reference offers that released nothing
		check := func(what string, ref, got []Record, counters ...[2]uint64) {
			t.Helper()
			if len(ref) != len(got) {
				t.Fatalf("seed %d: %s released %d records, reference %d", seed, what, len(got), len(ref))
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("seed %d: %s release %d is %v, reference %v", seed, what, i, got[i], ref[i])
				}
			}
			for i, c := range counters {
				if c[0] != c[1] {
					t.Fatalf("seed %d: %s counter %d is %d, reference %d", seed, what, i, c[1], c[0])
				}
			}
		}
		seqCounters := func(s *Sequencer) [][2]uint64 {
			return [][2]uint64{
				{uint64(refSeq.heldN), uint64(s.Held())}, {uint64(refSeq.maxHeld), uint64(s.MaxHeld())},
				{seqOOO, s.OutOfOrder()},
			}
		}
		cmCounters := func(m *CausalMerger) [][2]uint64 {
			return [][2]uint64{
				{uint64(refCM.heldN), uint64(m.Held())}, {uint64(refCM.maxHeld), uint64(m.MaxHeld())},
				{refCM.dispatched, m.Dispatched()}, {refCM.clock, m.Clock()}, {cmOOO, m.OutOfOrder()},
			}
		}
		for len(in) > 0 {
			switch st.Intn(60) {
			case 0:
				refSeq.resume = true
				oneSeq.Resume()
				batSeq.Resume()
			case 1:
				key := keys[st.Intn(len(keys))]
				seq := max(1, refSeq.next[key]+uint64(st.Intn(3))) - 1 // back one, stay, or skip one
				refSeq.next[key] = seq
				oneSeq.SetNext(key, seq)
				batSeq.SetNext(key, seq)
			case 2:
				refCM, oneCM, batCM, cmOOO = newRefMerger(), NewCausalMerger(), NewCausalMerger(), 0
				for _, r := range outRef {
					refCM.observe(r)
					oneCM.Observe(r)
					batCM.Observe(r)
				}
			}
			chunk := in[:1+st.Intn(min(48, len(in)))]
			in = in[len(chunk):]
			var seqRef, seqOne, chunkRef []Record
			mark := len(outRef)
			for _, r := range chunk {
				if seqRef = refSeq.add(seqRef[:0], r, r.Logical); len(seqRef) == 0 {
					seqOOO++
				}
				seqOne = oneSeq.AddTo(seqOne[:0], r, r.Logical)
				check("Sequencer.AddTo", seqRef, seqOne, seqCounters(oneSeq)...)
				chunkRef = append(chunkRef, seqRef...)
				for _, x := range seqRef {
					from := len(outRef)
					if outRef = refCM.add(outRef, x); len(outRef) == from {
						cmOOO++
					}
					outOne = oneCM.AddTo(outOne, x)
					check("CausalMerger.AddTo", outRef[from:], outOne[from:], cmCounters(oneCM)...)
				}
			}
			batch := append([]Record(nil), chunk...)
			seqBat, inPlace := batSeq.AddBatch(batch, heapBatch)
			check("Sequencer.AddBatch", chunkRef, seqBat, seqCounters(batSeq)...)
			if inPlace != (len(seqBat) > 0 && &seqBat[0] == &batch[0]) {
				t.Fatalf("seed %d: AddBatch reports inPlace=%v for a result that says otherwise", seed, inPlace)
			}
			outBat = batCM.AddBatchTo(outBat, seqBat)
			check("CausalMerger.AddBatchTo", outRef[mark:], outBat[mark:], cmCounters(batCM)...)
		}
	}
}

func heapBatch(n int) []Record { return make([]Record, 0, n) }

// TestSequencerAddBatchInPlace: an in-order batch is its own release —
// the caller's backing array comes back, nothing is copied or allocated
// — and the first record out of order switches the rest of the batch,
// in-order prefix included, to the allocated buffer.
func TestSequencerAddBatchInPlace(t *testing.T) {
	s := NewSequencer()
	batch := make([]Record, 0, 8)
	for i := 0; i < 8; i++ {
		batch = append(batch, Record{Node: int32(i % 2), Tag: uint16(i), Logical: uint64(i / 2)})
	}
	alloc := func(int) []Record { t.Fatal("in-order batch asked for a buffer"); return nil }
	out, inPlace := s.AddBatch(batch, alloc)
	if !inPlace || len(out) != len(batch) || &out[0] != &batch[0] {
		t.Fatalf("in-order batch not returned in place: inPlace=%v len=%d", inPlace, len(out))
	}
	// Node 0 continues in order, node 1 skips sequence 4: its 5 is held,
	// and everything released — the in-order prefix too — is in buf.
	next := []Record{{Node: 0, Logical: 4}, {Node: 1, Logical: 5}, {Node: 0, Logical: 5}}
	buf := make([]Record, 0, 4)
	out, inPlace = s.AddBatch(next, func(n int) []Record {
		if n != len(next) {
			t.Fatalf("asked for capacity %d, want %d", n, len(next))
		}
		return buf
	})
	if inPlace || len(out) != 2 || &out[0] != &buf[:1][0] || out[0] != next[0] || out[1] != next[2] {
		t.Fatalf("repaired batch: inPlace=%v out=%v", inPlace, out)
	}
	if s.Held() != 1 || s.OutOfOrder() != 1 || s.Sequenced() != 10 {
		t.Fatalf("held %d outOfOrder %d sequenced %d", s.Held(), s.OutOfOrder(), s.Sequenced())
	}
}

// TestSequencerResumeIdentityFromZero: Resume only decides where an
// unseen source starts. On input that is in program order per source
// and starts every source at sequence 0 — what one in-order connection
// per node delivers from a LIS that numbers each source from 0 — the
// first record of each source is the one a plain sequencer expects, so
// a resuming sequencer releases a byte-identical stream. Batches mix
// sources and cut streams at random points, and some are resent after
// the fact (a session replay), which both sequencers must drop alike.
func TestSequencerResumeIdentityFromZero(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		r := rng.New(seed)
		const nodes, procs = 4, 3
		var next [nodes][procs]uint64
		var batches [][]Record
		var tick int64
		for len(batches) < 200 {
			if len(batches) > 0 && r.Intn(10) == 0 {
				batches = append(batches, batches[r.Intn(len(batches))])
				continue
			}
			node := r.Intn(nodes)
			batch := make([]Record, 1+r.Intn(16))
			for i := range batch {
				p := r.Intn(procs)
				tick++
				batch[i] = Record{Node: int32(node), Process: int32(p), Kind: KindUser,
					Time: tick, Logical: next[node][p], Payload: tick}
				next[node][p]++
			}
			batches = append(batches, batch)
		}
		plain, resumed := NewSequencer(), NewSequencer()
		resumed.Resume()
		var fromPlain, fromResumed []Record
		for _, b := range batches {
			out, _ := plain.AddBatch(append([]Record(nil), b...), func(n int) []Record { return make([]Record, 0, n) })
			fromPlain = append(fromPlain, out...)
			out, _ = resumed.AddBatch(append([]Record(nil), b...), func(n int) []Record { return make([]Record, 0, n) })
			fromResumed = append(fromResumed, out...)
		}
		if int(tick) != len(fromPlain) || plain.Held() != 0 {
			t.Fatalf("seed %d: plain sequencer released %d of %d records, holds %d", seed, len(fromPlain), tick, plain.Held())
		}
		if !bytes.Equal(AppendSegment(nil, fromPlain), AppendSegment(nil, fromResumed)) {
			t.Fatalf("seed %d: Resume changed the released stream", seed)
		}
	}
}

// TestOrderingSteadyStateAllocFree: an in-order batch with matched
// message pairs goes through both stages without allocating — no output
// buffer at the sequencer, recycled message-table entries at the merger.
func TestOrderingSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s, m := NewSequencer(), NewCausalMerger()
	batch := make([]Record, 64)
	out := make([]Record, 0, len(batch))
	var seq uint64
	run := func() {
		for i := range batch {
			r := Record{Node: int32(i % 4), Kind: KindUser, Logical: seq + uint64(i/4)}
			switch i % 16 {
			case 0: // node 0 sends a fresh tag to node 1 ...
				r.Kind, r.Tag, r.Payload = KindSend, uint16(seq)+uint16(i), 1
			case 5: // ... which receives it five records on
				r.Kind, r.Tag, r.Payload = KindRecv, uint16(seq)+uint16(i-5), 0
			}
			batch[i] = r
		}
		seq += uint64(len(batch) / 4)
		ordered, inPlace := s.AddBatch(batch, heapBatch)
		if !inPlace {
			t.Fatal("in-order batch was copied")
		}
		if out = m.AddBatchTo(out[:0], ordered); len(out) != len(batch) {
			t.Fatalf("released %d of %d", len(out), len(batch))
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("steady in-order batch allocates %.1f times per run, want 0", allocs)
	}
}

// TestCausalMergerPendingBounded: a source that is never fully drained
// — each release re-parks on the next receive with successors still
// queued — keeps a pending ring the size of its deepest backlog, not of
// everything that ever passed through it.
func TestCausalMergerPendingBounded(t *testing.T) {
	m := NewCausalMerger()
	var out []Record
	stalledRun := func(tag uint16) {
		out = m.AddTo(out[:0], Record{Node: 1, Kind: KindRecv, Tag: tag, Payload: 0})
		for i := 0; i < 3; i++ {
			out = m.AddTo(out, Record{Node: 1, Kind: KindUser})
		}
	}
	stalledRun(0)
	const rounds = 1 << 18 // four records each: over a million through the ring
	for k := 0; k < rounds; k++ {
		stalledRun(uint16(k + 1))
		// Releases run k, re-parks on run k+1's receive: 3 still queued.
		out = m.AddTo(out[:0], Record{Node: 0, Kind: KindSend, Tag: uint16(k), Payload: 1})
		if len(out) != 5 || m.Held() != 4 {
			t.Fatalf("round %d: released %d, held %d", k, len(out), m.Held())
		}
	}
	ring := &m.sources.Get(SourceKey{Node: 1}).pend
	if ring.n != 3 || cap(ring.buf) > 2*m.MaxHeld() {
		t.Fatalf("pending ring holds %d in capacity %d after %d records; max held %d",
			ring.n, cap(ring.buf), 4*rounds, m.MaxHeld())
	}
}

// TestCausalMergerMessageTableBounded: a message's table entry goes
// when nothing is left to match against it, so a trace of unique tags
// leaves a table the size of what is in flight.
func TestCausalMergerMessageTableBounded(t *testing.T) {
	const pairs, inFlight = 1 << 20, 8
	msg := func(kind Kind, i int) Record {
		// Distinct (from, to, tag) per i: 16 senders x 65536 tags.
		r := Record{Node: int32(i >> 16), Kind: kind, Tag: uint16(i), Payload: 100}
		if kind == KindRecv {
			r.Node, r.Payload = 100, int64(i>>16)
		}
		return r
	}
	m, restored := NewCausalMerger(), NewCausalMerger()
	var out []Record
	for i := 0; i < pairs+inFlight; i++ {
		out = out[:0]
		// Every other message's receive overtakes its send and parks.
		if i < pairs && i%2 == 1 {
			out = m.AddTo(out, msg(KindRecv, i))
		}
		if i < pairs {
			out = m.AddTo(out, msg(KindSend, i))
		}
		if i >= inFlight && i%2 == 0 {
			out = m.AddTo(out, msg(KindRecv, i-inFlight))
		}
		for _, r := range out {
			restored.Observe(r)
		}
		if m.msgs.n > inFlight || restored.msgs.n > inFlight {
			t.Fatalf("after %d pairs the table holds %d entries (%d rebuilt by Observe), %d in flight",
				i, m.msgs.n, restored.msgs.n, inFlight)
		}
	}
	if m.Dispatched() != 2*pairs || m.Held() != 0 || m.msgs.n != 0 || len(m.freeMsgs) > inFlight+1 {
		t.Fatalf("dispatched %d held %d table %d free %d", m.Dispatched(), m.Held(), m.msgs.n, len(m.freeMsgs))
	}
}

// TestCausalMergerSeedIndependent: release order is a function of the
// input alone, never of the message table's seed or layout. The
// reference test's streams, put in program order by a Sequencer, go
// through mergers under two random seeds, two fixed ones and one whose
// table starts at its minimum size and grows mid-stream; every merger
// emits the same bytes and ends with the same counters.
func TestCausalMergerSeedIndependent(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		st := rng.New(seed)
		in, _ := diffStream(st)
		var ordered []Record
		s := NewSequencer()
		for _, r := range in {
			ordered = s.AddTo(ordered, r, r.Logical)
		}
		mergers := []*CausalMerger{
			NewCausalMerger(), NewCausalMerger(),
			newCausalMerger([2]uint64{}, msgTableSlots),
			newCausalMerger([2]uint64{^uint64(0), 0x9e3779b97f4a7c15}, msgTableSlots),
			newCausalMerger(randomSeed(), msgTableMinSlots),
		}
		outs := make([][]Record, len(mergers))
		for rest := ordered; len(rest) > 0; {
			chunk := rest[:1+st.Intn(min(48, len(rest)))]
			rest = rest[len(chunk):]
			for i, m := range mergers {
				outs[i] = m.AddBatchTo(outs[i], chunk)
			}
		}
		want, first := AppendSegment(nil, outs[0]), mergers[0]
		for i, m := range mergers[1:] {
			if !bytes.Equal(AppendSegment(nil, outs[i+1]), want) {
				t.Fatalf("seed %d: merger %d emitted %d records unlike merger 0's %d", seed, i+1, len(outs[i+1]), len(outs[0]))
			}
			if m.Held() != first.Held() || m.OutOfOrder() != first.OutOfOrder() || m.MaxHeld() != first.MaxHeld() {
				t.Fatalf("seed %d: merger %d held %d, out of order %d, max held %d; merger 0: %d, %d, %d", seed, i+1,
					m.Held(), m.OutOfOrder(), m.MaxHeld(), first.Held(), first.OutOfOrder(), first.MaxHeld())
			}
		}
		if grown := mergers[len(mergers)-1]; len(grown.msgs.slots) == msgTableMinSlots {
			t.Fatalf("seed %d: the minimum-size table never grew", seed)
		}
	}
}
