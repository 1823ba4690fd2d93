package flow

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// tailRig is a tail with its two counters.
type tailRig struct {
	*Tail
	delivered, spoolErrs *metrics.Counter
}

func newTailRig(causal bool, spool io.Writer) tailRig {
	s := metrics.NewRegistry().Scope("t")
	r := tailRig{delivered: s.Counter("delivered"), spoolErrs: s.Counter("spool_errors")}
	r.Tail = NewTail(causal, spool, r.delivered, r.spoolErrs)
	return r
}

// causalStream is a seeded multi-source stream, program-ordered per
// source: user events and send/recv pairs with unique tags (Payload
// holds the peer). A receive is queued in its node's program when its
// send is, and the sources interleave at random, so many receives
// arrive before their send and park. Time is the record's position,
// unique across the stream.
func causalStream(seed int64, sources, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][]trace.Record, sources)
	var tag uint16
	for k := 0; k < n; {
		node := rng.Intn(sources)
		if rng.Intn(3) > 0 {
			progs[node] = append(progs[node], trace.Record{Node: int32(node), Kind: trace.KindUser})
			k++
			continue
		}
		peer := (node + 1 + rng.Intn(sources-1)) % sources
		tag++
		progs[node] = append(progs[node], trace.Record{Node: int32(node), Kind: trace.KindSend, Tag: tag, Payload: int64(peer)})
		progs[peer] = append(progs[peer], trace.Record{Node: int32(peer), Kind: trace.KindRecv, Tag: tag, Payload: int64(node)})
		k += 2
	}
	var out []trace.Record
	for {
		var live []int
		for i, p := range progs {
			if len(p) > 0 {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return out
		}
		j := live[rng.Intn(len(live))]
		rec := progs[j][0]
		progs[j] = progs[j][1:]
		rec.Time = int64(len(out))
		out = append(out, rec)
	}
}

// perRecord is the reference the tail must reproduce: one AddTo per
// record. It also reports how many records the merger held back.
func perRecord(in []trace.Record) (out []trace.Record, outOfOrder uint64) {
	cm := trace.NewCausalMerger()
	for _, rec := range in {
		out = cm.AddTo(out, rec)
	}
	return out, cm.OutOfOrder()
}

// emitCut runs in through t cut at random boundaries, empty batches
// included, and returns copies of the releases.
func emitCut(t *Tail, rng *rand.Rand, in []trace.Record) []trace.Record {
	var got []trace.Record
	for len(in) > 0 {
		n := min(rng.Intn(64), len(in))
		got = append(got, t.Emit(in[:n])...)
		in = in[n:]
	}
	return got
}

// TestTailBatchBoundaryEquivalence: Emit over a stream cut anywhere
// releases the same records, with the same Lamport stamps, as one AddTo
// per record, and the spool holds exactly what was released. This is
// what lets the relay stamp per flush.
func TestTailBatchBoundaryEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := causalStream(seed, 2+int(seed%5), 600)
		want, parked := perRecord(in)
		if parked == 0 {
			t.Fatalf("seed %d: no receive parked; the stream does not exercise the merger", seed)
		}
		var spool bytes.Buffer
		tl := newTailRig(true, &spool)
		got := emitCut(tl.Tail, rand.New(rand.NewSource(seed)), in)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: batch releases differ from per-record AddTo", seed)
		}
		if err := tl.Flush(); err != nil {
			t.Fatal(err)
		}
		spooled, _, err := trace.DecodeSegments(nil, spool.Bytes())
		if err != nil || !slices.Equal(spooled, want) {
			t.Fatalf("seed %d: spool holds %d records (err %v), want the %d released", seed, len(spooled), err, len(want))
		}
		if d := tl.delivered.Value(); d != uint64(len(want)) {
			t.Fatalf("seed %d: delivered %d, want %d", seed, d, len(want))
		}
	}
}

// TestTailObserveResume: a successor tail that Observes what its
// predecessor released and is then fed the rest — the records not yet
// released, in stream order, as the downstream replay delivers them —
// continues the predecessor's output exactly. This is the relay's
// resume path.
func TestTailObserveResume(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := causalStream(seed, 2+int(seed%5), 600)
		want, _ := perRecord(in)
		rng := rand.New(rand.NewSource(seed))
		cut := rng.Intn(len(in) + 1)
		first := newTailRig(true, nil)
		prefix := emitCut(first.Tail, rng, in[:cut])

		released := make(map[int64]bool, len(prefix))
		second := newTailRig(true, nil)
		for _, rec := range prefix {
			released[rec.Time] = true
			second.Observe(rec)
		}
		var rest []trace.Record
		for _, rec := range in {
			if !released[rec.Time] {
				rest = append(rest, rec)
			}
		}
		got := append(prefix, emitCut(second.Tail, rng, rest)...)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d, cut %d (%d released, %d held): resumed output differs from the whole stream's",
				seed, cut, len(prefix), cut-len(prefix))
		}
	}
}

// failingWriter fails every write and counts the attempts.
type failingWriter struct{ writes int }

var errDisk = errors.New("disk full")

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errDisk
}

// TestTailSpoolErrorIsSticky: the first spool failure, whether a
// segment reaches the writer during Emit or only at Flush, is counted
// once. Later batches skip the spool but still reach subscribers and
// the delivered count, and Flush and Err return the failure.
func TestTailSpoolErrorIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name         string
		batches, per int
	}{
		{"emit", 16, 1024}, // many segments: the writer fails inside Emit
		{"flush", 4, 8},    // under one segment: the writer fails at Flush
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &failingWriter{}
			tl := newTailRig(false, w)
			var seen int
			tl.Subscribe(func(rs []trace.Record) { seen += len(rs) })
			for b := 0; b < tc.batches; b++ {
				rs := make([]trace.Record, tc.per)
				for i := range rs {
					rs[i] = trace.Record{Kind: trace.KindUser, Time: int64(b*tc.per + i), Payload: int64(i * i)}
				}
				tl.Emit(rs)
			}
			ferr := tl.Flush()
			tl.Emit([]trace.Record{{Kind: trace.KindUser}})
			if !errors.Is(ferr, errDisk) || !errors.Is(tl.Flush(), errDisk) || !errors.Is(tl.Err(), errDisk) {
				t.Fatalf("Flush = %v, Err = %v, want %v from both", ferr, tl.Err(), errDisk)
			}
			if w.writes != 1 || tl.spoolErrs.Value() != 1 {
				t.Fatalf("%d writes reached the spool and %d failures were counted, want 1 and 1", w.writes, tl.spoolErrs.Value())
			}
			total := tc.batches*tc.per + 1
			if seen != total || tl.delivered.Value() != uint64(total) {
				t.Fatalf("subscriber saw %d, delivered %d, want %d", seen, tl.delivered.Value(), total)
			}
		})
	}
}

// TestTailSubscribers: every subscriber gets every released batch whole,
// in registration order, and a Subscribe racing Emit is safe and sees a
// suffix of the batches.
func TestTailSubscribers(t *testing.T) {
	tl := newTailRig(true, nil)
	type call struct {
		sub   int
		batch []trace.Record
	}
	var calls []call // appended on the emitting goroutine only
	for i := range 3 {
		tl.Subscribe(func(rs []trace.Record) { calls = append(calls, call{i, slices.Clone(rs)}) })
	}
	var late [][]trace.Record
	var mu sync.Mutex
	subscribed := make(chan struct{})
	go func() {
		tl.Subscribe(func(rs []trace.Record) {
			mu.Lock()
			late = append(late, slices.Clone(rs))
			mu.Unlock()
		})
		close(subscribed)
	}()

	in := causalStream(7, 4, 2000)
	rng := rand.New(rand.NewSource(7))
	var released [][]trace.Record
	for len(in) > 0 {
		n := min(1+rng.Intn(64), len(in))
		if out := tl.Emit(in[:n]); len(out) > 0 {
			released = append(released, slices.Clone(out))
		}
		in = in[n:]
	}
	<-subscribed
	if len(calls) != 3*len(released) {
		t.Fatalf("%d subscriber calls for %d released batches and 3 subscribers", len(calls), len(released))
	}
	for i, c := range calls {
		if c.sub != i%3 || !slices.Equal(c.batch, released[i/3]) {
			t.Fatalf("call %d went to subscriber %d with a %d-record batch, want subscriber %d with batch %d whole",
				i, c.sub, len(c.batch), i%3, i/3)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	tail := released[len(released)-len(late):]
	for i := range late {
		if !slices.Equal(late[i], tail[i]) {
			t.Fatalf("the late subscriber's batch %d is not the released batch %d", i, len(released)-len(late)+i)
		}
	}
}
