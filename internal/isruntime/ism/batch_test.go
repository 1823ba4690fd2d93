package ism

import (
	"sync"
	"testing"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/tp"
	"prism/internal/raceflag"
	"prism/internal/trace"
)

func TestConcurrentPerSourceFIFO(t *testing.T) {
	// Sharded ingest must preserve each source's capture order: source
	// affinity pins every source to one shard, and the shard's stage is
	// FIFO per source, so even an unordered ISM (no causal orderer to
	// repair reorderings) must deliver each source's records in
	// sequence. Run with several producers per shard under -race.
	const (
		sources      = 8
		batches      = 50
		perBatch     = 16
		shardsConfig = 4
	)
	var clock event.VirtualClock
	m := New(Config{
		Buffering: MISO,
		Overflow:  flow.Block,
		Shards:    shardsConfig,
	}, &clock)
	defer m.Close()

	var mu sync.Mutex
	last := map[int32]int64{}
	counts := map[int32]int{}
	violations := 0
	m.SubscribeBatch("fifo", func(rs []trace.Record) {
		mu.Lock()
		for _, r := range rs {
			if prev, seen := last[r.Node]; seen && r.Payload <= prev {
				violations++
			}
			last[r.Node] = r.Payload
			counts[r.Node]++
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(node int32) {
			defer wg.Done()
			seq := int64(0)
			for b := 0; b < batches; b++ {
				batch := flow.GetBatch(perBatch)
				for j := 0; j < perBatch; j++ {
					batch = append(batch, trace.Record{
						Node: node, Kind: trace.KindUser, Payload: seq,
					})
					seq++
				}
				m.Inject(tp.PooledDataMessage(node, batch))
			}
		}(int32(src))
	}
	wg.Wait()
	m.Drain()

	mu.Lock()
	defer mu.Unlock()
	if violations != 0 {
		t.Fatalf("%d per-source FIFO violations", violations)
	}
	for src := 0; src < sources; src++ {
		if got := counts[int32(src)]; got != batches*perBatch {
			t.Fatalf("source %d delivered %d of %d", src, got, batches*perBatch)
		}
	}
}

func TestShardedOrderedEquivalence(t *testing.T) {
	// Any shard count must yield the same causally ordered stream: the
	// shards merge at the single orderer, and per-source affinity keeps
	// program order intact on the way there.
	for _, shards := range []int{1, 3, 8} {
		var clock event.VirtualClock
		m := New(Config{Buffering: MISO, Ordered: true, Overflow: flow.Block, Shards: shards}, &clock)
		var mu sync.Mutex
		var got []trace.Record
		m.SubscribeBatch("t", func(rs []trace.Record) {
			mu.Lock()
			got = append(got, rs...)
			mu.Unlock()
		})
		const sources, n = 4, 100
		for i := 0; i < n; i++ {
			for s := 0; s < sources; s++ {
				m.Inject(dataMsg(int32(s), seqRec(int32(s), trace.KindUser, uint16(i), uint64(i), 0)))
			}
		}
		m.Drain()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(got) != sources*n {
			t.Fatalf("shards=%d delivered %d of %d", shards, len(got), sources*n)
		}
		if err := trace.CheckCausal(got); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		mu.Unlock()
	}
}

func TestMergePathAllocFree(t *testing.T) {
	// The stage→sequence→ring→merge→dispatch hot path must not allocate
	// in steady state: the batch pool supplies the record slices, an
	// in-order batch is its own sequenced release, the SPSC ring hands
	// slots across by value, and the causal merger's dispatch buffer is
	// reused across slots. The lane and merger
	// stages run synchronously here — same code shape as sequenceBatch
	// plus merger.dispatch — because AllocsPerRun only observes the
	// calling goroutine.
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc budgets are meaningless")
	}
	seqr := trace.NewSequencer()
	cm := trace.NewCausalMerger()
	ring := flow.NewSPSC[mergeSlot](8)
	var orderBuf []trace.Record
	var delivered uint64

	const perBatch = 64
	seq := uint64(0)
	run := func() {
		// Lane side: batch in from the pool and, in order, through the
		// sequencer as it is.
		batch := flow.GetBatch(perBatch)
		for j := 0; j < perBatch; j++ {
			batch = append(batch, trace.Record{
				Node: 1, Kind: trace.KindUser, Logical: seq,
			})
			seq++
		}
		out, inPlace := seqr.AddBatch(batch, flow.GetBatch)
		if !inPlace {
			t.Fatal("in-order batch was copied")
		}
		if !ring.TryPush(mergeSlot{tick: seq, recs: out}) {
			t.Fatal("ring full")
		}
		// Merger side: pop, causally merge, dispatch, recycle.
		slot, ok := ring.TryPop()
		if !ok {
			t.Fatal("ring empty")
		}
		orderBuf = cm.AddBatchTo(orderBuf[:0], slot.recs)
		delivered += uint64(len(orderBuf))
		flow.PutBatch(slot.recs)
	}
	// Warm once outside the measurement so the dispatch buffer and maps
	// reach steady-state size.
	run()
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 0 {
		t.Fatalf("merge path allocates %.1f times per op; want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no records delivered")
	}
}
