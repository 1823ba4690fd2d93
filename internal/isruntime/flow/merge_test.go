package flow

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// The shared merge suite: every liveness bug the two former mergers
// each met separately, as one case run against BOTH configurations of
// the core — tick-keyed whole slots (the flat ISM's shape) and
// (Time, Node, Process)-keyed record cursors merged in passes (the
// relay's). The TestMergePass cases below pin the pass itself. Cases that
// hinge on an exact interleaving drive step() by hand and land the
// racing push from inside the Passed callback, so they replay
// identically; the rest run the real goroutine against seeded
// topologies and print the seed on failure.

// rigConfig is one configuration under test: the plug-ins plus how a
// producer builds slots and moves its frontier source.
type rigConfig[S, L any] struct {
	less    func(a, b *S) bool
	passed  func(ln L, head *S) bool
	consume func(head *S, out *[]uint64) bool
	// pass, when set, is the configuration's Pass, ending after limit
	// units as the relay's ends at a flush.
	pass    func(heads []*S, out *[]uint64, limit int) (dry int)
	newLane func(id int) L
	slot    func(ln L, keys []uint64) S
	// announce counts n units as outstanding before they are pushed or
	// discarded (the ISM ledger; the watermark configuration has no
	// such notion).
	announce func(ln L, n int)
	// cover moves the frontier source past keys: after a push, or on
	// its own for a unit discarded without one (a drop, a mark).
	cover func(ln L, keys []uint64)
	// want is the reference order for a set of pushed slots.
	want func(slots [][]uint64) []uint64
}

// Tick-keyed whole slots: a slot is keyed by its first key and consumed
// in one unit; the frontier source is a pushed/settled ledger plus a
// tick watermark.
type tickSlot struct {
	tick uint64
	vals []uint64
}

type tickLane struct{ pushed, settled, frontier atomic.Uint64 }

var tickConfig = rigConfig[tickSlot, *tickLane]{
	less: func(a, b *tickSlot) bool { return a.tick < b.tick },
	passed: func(ln *tickLane, head *tickSlot) bool {
		p := ln.pushed.Load()
		return ln.settled.Load() >= p || ln.frontier.Load() >= head.tick
	},
	consume: func(head *tickSlot, out *[]uint64) bool {
		*out = append(*out, head.vals...)
		return true
	},
	newLane:  func(int) *tickLane { return &tickLane{} },
	slot:     func(_ *tickLane, keys []uint64) tickSlot { return tickSlot{tick: keys[0], vals: keys} },
	announce: func(ln *tickLane, n int) { ln.pushed.Add(uint64(n)) },
	cover: func(ln *tickLane, keys []uint64) {
		ln.frontier.Store(keys[0]) // each lane's keys only ever grow
		ln.settled.Add(1)
	},
	want: func(slots [][]uint64) []uint64 {
		sorted := append([][]uint64(nil), slots...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
		var out []uint64
		for _, s := range sorted {
			out = append(out, s...)
		}
		return out
	},
}

// Record cursors: a slot is a run of records consumed in (Time, Node,
// Process) order, in passes over every head while each lane holds one
// and one at a time otherwise; the frontier source is a Time watermark.
type recSlot struct {
	recs []trace.Record
	pos  int
}

type recLane struct {
	node      int32
	watermark atomic.Uint64
}

var cursorConfig = rigConfig[recSlot, *recLane]{
	less: func(a, b *recSlot) bool { return a.recs[a.pos].Before(b.recs[b.pos]) },
	passed: func(ln *recLane, head *recSlot) bool {
		return int64(ln.watermark.Load()) >= head.recs[head.pos].Time
	},
	consume: func(head *recSlot, out *[]uint64) bool {
		*out = append(*out, uint64(head.recs[head.pos].Time))
		head.pos++
		return head.pos == len(head.recs)
	},
	pass: func(heads []*recSlot, out *[]uint64, limit int) int {
		for n := 1; ; n++ {
			w := 0
			for i := 1; i < len(heads); i++ {
				if heads[i].recs[heads[i].pos].Before(heads[w].recs[heads[w].pos]) {
					w = i
				}
			}
			h := heads[w]
			*out = append(*out, uint64(h.recs[h.pos].Time))
			if h.pos++; h.pos == len(h.recs) {
				return w
			}
			if n == limit {
				return -1
			}
		}
	},
	newLane: func(id int) *recLane { return &recLane{node: int32(id)} },
	slot: func(ln *recLane, keys []uint64) recSlot {
		recs := make([]trace.Record, len(keys))
		for i, k := range keys {
			recs[i] = trace.Record{Node: ln.node, Kind: trace.KindUser, Time: int64(k)}
		}
		return recSlot{recs: recs}
	},
	announce: func(*recLane, int) {},
	cover:    func(ln *recLane, keys []uint64) { ln.watermark.Store(keys[len(keys)-1]) },
	want: func(slots [][]uint64) []uint64 {
		var out []uint64
		for _, s := range slots {
			out = append(out, s...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	},
}

// rig is one merger under test with its collected output.
type rig[S, L any] struct {
	cfg rigConfig[S, L]
	m   *Merger[S, L]
	reg *metrics.Registry

	mu     sync.Mutex
	out    []uint64
	pushed [][]uint64

	// window, when set, runs inside Passed before the frontier source
	// is loaded: the place a racing producer is made to land.
	window func(ln L)
	// passLimit bounds a pass in units (the relay's flushBatch); inPass,
	// when set, runs as each pass begins. passes counts the passes and
	// passDry those that ended at an exhausted slot.
	passLimit       int
	inPass          func()
	passes, passDry int
}

func newRig[S, L any](cfg rigConfig[S, L], ringCap, minLanes int, budget time.Duration) *rig[S, L] {
	r := &rig[S, L]{cfg: cfg, reg: metrics.NewRegistry(), passLimit: 5}
	scope := r.reg.Scope("merge")
	var pass func([]*S) int
	if cfg.pass != nil {
		pass = func(heads []*S) int {
			if r.inPass != nil {
				r.inPass()
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			dry := cfg.pass(heads, &r.out, r.passLimit)
			r.passes++
			if dry >= 0 {
				r.passDry++
			}
			return dry
		}
	}
	r.m = NewMerger(MergeParams[S, L]{
		RingCap:     ringCap,
		MinLanes:    minLanes,
		StallBudget: budget,
		Forced:      scope.Counter("forced"),
		Scope:       scope,
		Clock:       event.NewRealClock(),
		Less:        cfg.less,
		Passed: func(ln L, head *S) bool {
			if r.window != nil {
				r.window(ln)
			}
			return cfg.passed(ln, head)
		},
		Consume: func(_ L, head *S) bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return cfg.consume(head, &r.out)
		},
		Pass:   pass,
		OnPark: func(*MergeLane[S, L], *S) {},
	})
	return r
}

// attach adds a lane that owes the merge `owed` units. Keys here are
// assigned up front rather than drawn after the announcement, so the
// ledger must show the debt before the merger can see the lane.
func (r *rig[S, L]) attach(owed int) *MergeLane[S, L] {
	id := len(r.m.Lanes())
	state := r.cfg.newLane(id)
	r.cfg.announce(state, owed)
	ln := r.m.NewLane(r.reg.Scope(fmt.Sprintf("lane%d", id)))
	r.m.Attach(ln, state)
	return ln
}

// push is a producer's whole duty for one owed slot: push, THEN move
// the frontier source, then signal (invariants 2 and 3).
func (r *rig[S, L]) push(ln *MergeLane[S, L], keys ...uint64) {
	r.mu.Lock()
	r.pushed = append(r.pushed, keys)
	r.mu.Unlock()
	ln.Push(r.cfg.slot(ln.State, keys))
	r.cfg.cover(ln.State, keys)
	r.m.Signal()
}

// discard settles one unit without pushing it.
func (r *rig[S, L]) discard(ln *MergeLane[S, L], key uint64) {
	r.cfg.cover(ln.State, []uint64{key})
	r.m.Signal()
}

func (r *rig[S, L]) output() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.out...)
}

func (r *rig[S, L]) check(t *testing.T, what string) {
	t.Helper()
	got, want := r.output(), r.cfg.want(r.pushed)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			lo, hi := max(i-4, 0), min(i+4, len(want))
			t.Fatalf("%s: dispatched %d of %d units, diverging at %d\n got %v\nwant %v",
				what, len(got), len(want), i, got[lo:min(hi, len(got))], want[lo:hi])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: dispatched %d units, want %d", what, len(got), len(want))
	}
}

func (r *rig[S, L]) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: timed out\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *rig[S, L]) counter(name string) uint64 { return r.reg.Counter(name).Value() }

// stepAll drives the (unstarted) merger by hand until it runs out of
// safe work.
func (r *rig[S, L]) stepAll() {
	for r.m.step() {
	}
}

// runMergeSuite runs every case against one configuration.
func runMergeSuite[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	t.Run("FrontierBeforeRingLength", func(t *testing.T) { caseFrontierBeforeRing(t, cfg) })
	t.Run("AttachMidStep", func(t *testing.T) { caseAttachMidStep(t, cfg) })
	t.Run("SettleWithoutPush", func(t *testing.T) { caseSettleWithoutPush(t, cfg) })
	t.Run("CloseRacingFullRing", func(t *testing.T) { caseCloseRacingFullRing(t, cfg) })
	t.Run("ExitedLaneUnderHammer", func(t *testing.T) { caseExitedLaneUnderHammer(t, cfg) })
	t.Run("StallBudgetForces", func(t *testing.T) { caseStallBudgetForces(t, cfg) })
	t.Run("RandomTopologyEquivalence", func(t *testing.T) { caseRandomTopology(t, cfg) })
}

func TestMergeSuiteTickSlots(t *testing.T)     { runMergeSuite(t, tickConfig) }
func TestMergeSuiteRecordCursors(t *testing.T) { runMergeSuite(t, cursorConfig) }

// caseFrontierBeforeRing is the PR 9 watermark window (and the same
// window the ISM merger's settled-count read had, unaudited): a slot
// lands on a headless lane, and its frontier source moves past the
// candidate, exactly between the merger's two observations of that
// lane. Read frontier-then-length, the merger sees the slot and picks
// it up; read length-then-frontier, it sees an empty ring vouched for
// by the slot's own frontier and dispatches the candidate ahead of it.
func caseFrontierBeforeRing[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 4, 0, 0)
	a, b := r.attach(1), r.attach(1)
	r.push(a, 10)
	landed := false
	r.window = func(ln L) {
		if !landed {
			landed = true
			r.push(b, 5, 12)
		}
	}
	r.stepAll()
	if !landed {
		t.Fatal("the merger never consulted the headless lane")
	}
	a.Exit()
	b.Exit()
	r.stepAll()
	r.check(t, "slot landing between the frontier and ring-length loads")
}

// caseAttachMidStep is the 9c46224 sizing race: a lane attaches while
// the merger is inside a step over the older snapshot, and the park
// hook then walks the newer one. Per-lane merge state lives in the
// lane, so there is nothing to size; the late lane must be visible to
// the hook at once and merged, in order, from the next step.
func caseAttachMidStep[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 4, 0, 0)
	a, b := r.attach(1), r.attach(1) // b owes a unit: the merger must wait on it
	r.push(a, 10)
	var c *MergeLane[S, L]
	r.window = func(L) {
		if c == nil {
			c = r.attach(1)
			r.push(c, 3)
		}
	}
	if r.m.step() {
		t.Fatal("dispatched past a lane that still owes a unit")
	}
	if r.m.blocker != b {
		t.Fatalf("stalled on %p, want lane b %p", r.m.blocker, b)
	}
	// What a park hook does (the relay's frontier computation): walk
	// the fresh snapshot, reading every lane's head and backlog.
	heads, backlog := 0, 0
	for _, ln := range r.m.Lanes() {
		if ln.Head() != nil {
			heads++
		}
		backlog += ln.Backlog()
	}
	if len(r.m.Lanes()) != 3 || heads != 1 || backlog != 1 {
		t.Fatalf("mid-step attach: lanes=%d heads=%d backlog=%d, want 3/1/1", len(r.m.Lanes()), heads, backlog)
	}
	r.discard(b, 20)
	a.Exit()
	b.Exit()
	c.Exit()
	r.stepAll()
	r.check(t, "lane attached mid-step")
}

// caseSettleWithoutPush is PR 6's pushed-before-settled family: a lane
// owes a unit, the merger stalls on it, and the unit is then discarded
// (an overflow drop, a mark) — the frontier source moves with no push.
// The stall must end, be metered once globally and once on the lane
// waited on, and hold both drains back while it lasts.
func caseSettleWithoutPush[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 4, 0, 0)
	a, b := r.attach(1), r.attach(1)
	r.m.Start()
	r.push(a, 10)
	r.waitFor(t, "stall on the owing lane", func() bool { return r.counter("lane1.stalls") > 0 })
	soon := time.Now().Add(5 * time.Millisecond)
	if r.m.WaitConsumed(soon) || r.m.WaitQuiet(soon) {
		t.Fatal("a drain returned while the frontier rule held a head")
	}
	if got := r.output(); len(got) != 0 {
		t.Fatalf("dispatched %v past a lane that still owes a unit", got)
	}
	r.discard(b, 11)
	if !r.m.WaitConsumed(time.Now().Add(10 * time.Second)) {
		t.Fatal("merge never drained after the owed unit settled without a push")
	}
	r.m.Close()
	r.check(t, "settle without push")
	if r.counter("merge.stalls") == 0 || r.counter("merge.stall_ns") == 0 {
		t.Fatalf("stall not metered: stalls=%d stall_ns=%d", r.counter("merge.stalls"), r.counter("merge.stall_ns"))
	}
	if n := r.counter("lane0.stalls"); n != 0 {
		t.Fatalf("stall charged to the waiting lane (%d), want only the lane waited on", n)
	}
}

// caseCloseRacingFullRing is PR 6's Close-vs-Inject shape at the core:
// a producer is parked in Push on a full ring while the frontier rule
// stalls the merger on a silent sibling. BeginClose must lift the rule
// so the parked producer is released, and Close must then drain the
// remainder in lane order.
func caseCloseRacingFullRing[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 2, 0, 0)
	a, _ := r.attach(40), r.attach(1) // the second lane is silent: it owes a unit forever
	r.m.Start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(1); k <= 40; k++ {
			r.push(a, k)
		}
	}()
	r.waitFor(t, "producer parked on the full ring", func() bool {
		return a.Backlog() == a.Cap() && r.counter("lane1.stalls") > 0
	})
	r.m.BeginClose()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer parked on a full ring was never released by the closing drain")
	}
	r.m.Close()
	r.check(t, "close racing a push on a full ring")
}

// caseExitedLaneUnderHammer is the PR 10 livelock: a lane has exited,
// but its frontier source never reads as caught up because something
// keeps it busy (injectors hammering a closed stage keep one push in
// flight at every read) and keeps waking the merger. The exit flag,
// not the frontier source, must decide — or the sibling parked on a
// full ring is never refilled.
func caseExitedLaneUnderHammer[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 2, 0, 0)
	a, b := r.attach(40), r.attach(1)
	r.m.Start()
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	defer func() {
		close(stop)
		hammer.Wait()
	}()
	for i := 0; i < 2; i++ {
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One more unit in flight on b, never caught up.
				r.cfg.announce(b.State, 1)
				r.m.Signal()
				runtime.Gosched()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(1); k <= 40; k++ {
			r.push(a, k)
		}
		a.Exit()
	}()
	r.waitFor(t, "producer parked on the full ring", func() bool { return a.Backlog() == a.Cap() })
	b.Exit()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("exited lane still blocks the merge: sibling never refilled")
	}
	if !r.m.WaitQuiet(time.Now().Add(10 * time.Second)) {
		t.Fatal("merge never drained past the exited lane")
	}
	r.m.Close()
	r.check(t, "exited lane under hammering producers")
}

// caseStallBudgetForces: with a stall budget, a lane that stays silent
// costs at most the budget per unit, and each forced unit is counted.
func caseStallBudgetForces[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	r := newRig(cfg, 4, 0, time.Millisecond)
	a, _ := r.attach(1), r.attach(1)
	r.m.Start()
	r.push(a, 10)
	r.waitFor(t, "forced dispatch", func() bool { return len(r.output()) == 1 })
	if n := r.counter("merge.forced"); n != 1 {
		t.Fatalf("forced = %d, want 1", n)
	}
	r.m.Close()
}

// caseRandomTopology is the equivalence property: k lanes of skewed
// sizes, some attaching late behind the MinLanes gate, tiny rings,
// real producer goroutines — the merged output must equal the sort of
// the union.
func caseRandomTopology[S, L any](t *testing.T, cfg rigConfig[S, L]) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		total := 200 + rng.Intn(1500)
		// Skewed shares: lane i gets weight 2^-i; contiguous key runs,
		// so both slot shapes have the sorted union as their reference.
		plan := make([][][]uint64, k)
		for key := uint64(1); key <= uint64(total); {
			lane := 0
			for lane < k-1 && rng.Intn(2) == 0 {
				lane++
			}
			run := 1 + rng.Intn(6)
			var keys []uint64
			for ; run > 0 && key <= uint64(total); run-- {
				keys = append(keys, key)
				key++
			}
			plan[lane] = append(plan[lane], keys)
		}
		r := newRig(cfg, 2<<rng.Intn(3), k, 0)
		r.m.Start()
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			late := time.Duration(rng.Intn(3)) * time.Millisecond
			yield := 1 + rng.Intn(8)
			wg.Add(1)
			go func(slots [][]uint64) {
				defer wg.Done()
				time.Sleep(late) // late attach: the gate holds the others
				r.mu.Lock()      // attach derives the lane id from the snapshot
				ln := r.attach(len(slots))
				r.mu.Unlock()
				for j, keys := range slots {
					r.push(ln, keys...)
					if j%yield == 0 {
						runtime.Gosched()
					}
				}
				ln.Exit()
			}(plan[i])
		}
		produced := make(chan struct{})
		go func() {
			wg.Wait()
			close(produced)
		}()
		select {
		case <-produced:
		case <-time.After(20 * time.Second):
			t.Fatalf("seed %d (k=%d, %d keys): producers still parked; dispatched %d", seed, k, total, len(r.output()))
		}
		if !r.m.WaitQuiet(time.Now().Add(20 * time.Second)) {
			t.Fatalf("seed %d (k=%d, %d keys): merge never drained; dispatched %d", seed, k, total, len(r.output()))
		}
		r.m.Close()
		r.check(t, fmt.Sprintf("seed %d (k=%d, %d keys)", seed, k, total))
	}
}

// The pass, pinned on the record-cursor configuration. These cases
// drive an unstarted merger by hand, so each seed replays one exact
// schedule: producers push as far as their rings have room, then the
// merger steps until it runs out of safe work.

// passPlan deals keys 1..total to k lanes in turns of run keys and cuts
// each lane's share into slots of 1..maxSlot keys.
func passPlan(rng *rand.Rand, k, run, total, maxSlot int) [][][]uint64 {
	plan := make([][][]uint64, k)
	shares := make([][]uint64, k)
	for key := 1; key <= total; key++ {
		l := (key - 1) / run % k
		shares[l] = append(shares[l], uint64(key))
	}
	for l, keys := range shares {
		for len(keys) > 0 {
			n := min(1+rng.Intn(maxSlot), len(keys))
			plan[l] = append(plan[l], keys[:n])
			keys = keys[n:]
		}
	}
	return plan
}

// feedByHand pushes plan through the lanes in rounds, a random number
// of slots per lane per round within its ring's room, stepping the
// merger after each round. A lane exits after its last slot (its
// watermark cannot pass the keys the others still hold), and the
// merger then drains.
func feedByHand[S, L any](r *rig[S, L], rng *rand.Rand, lanes []*MergeLane[S, L], plan [][][]uint64) {
	for left := len(lanes); left > 0; {
		for l, ln := range lanes {
			if ln.exited.Load() {
				continue
			}
			for n := rng.Intn(ln.Cap() + 1); n > 0 && len(plan[l]) > 0 && ln.Backlog() < ln.Cap(); n-- {
				r.push(ln, plan[l][0]...)
				plan[l] = plan[l][1:]
			}
			if len(plan[l]) == 0 {
				ln.Exit()
				left--
			}
		}
		r.stepAll()
	}
}

// TestMergePassInterleavedRuns: 3 and 5 lanes whose keys interleave in
// runs of 1, 2 and 64, cut into slots that end mid-pass, merged in
// passes that also stop at their unit bound. The output is the sorted
// union, and both ends of a pass occur.
func TestMergePassInterleavedRuns(t *testing.T) {
	for _, k := range []int{3, 5} {
		for _, run := range []int{1, 2, 64} {
			t.Run(fmt.Sprintf("lanes=%d/run=%d", k, run), func(t *testing.T) {
				passes, dry := 0, 0
				for seed := int64(1); seed <= 8; seed++ {
					rng := rand.New(rand.NewSource(seed))
					total := 300 + rng.Intn(1200)
					maxSlot := []int{1, 3, 17, 200}[rng.Intn(4)]
					r := newRig(cursorConfig, 2<<rng.Intn(3), k, 0)
					r.passLimit = 1 + rng.Intn(64)
					lanes := make([]*MergeLane[recSlot, *recLane], k)
					for i := range lanes {
						lanes[i] = r.attach(0)
					}
					feedByHand(r, rng, lanes, passPlan(rng, k, run, total, maxSlot))
					r.check(t, fmt.Sprintf("seed %d (%d keys, slots ≤ %d, pass ≤ %d)", seed, total, maxSlot, r.passLimit))
					passes += r.passes
					dry += r.passDry
				}
				if dry == 0 || dry == passes {
					t.Fatalf("%d passes, %d of them ended by an exhausted slot: want both ends of a pass", passes, dry)
				}
			})
		}
	}
}

// TestMergePassAttachMidPass: a lane attaches while the two others are
// in a pass. The pass finishes over the older snapshot; the next step
// sees the new lane, headless and owing, and stalls on it; once it
// pushes, its keys merge in order with the others'.
func TestMergePassAttachMidPass(t *testing.T) {
	r := newRig(cursorConfig, 4, 0, 0)
	r.passLimit = 4
	a, b := r.attach(0), r.attach(0)
	r.push(a, 10, 12, 14)
	r.push(b, 11, 13, 15)
	var c *MergeLane[recSlot, *recLane]
	r.inPass = func() {
		if c == nil {
			c = r.attach(0)
		}
	}
	r.stepAll()
	if c == nil || r.passes != 1 {
		t.Fatalf("lane attached: %v, passes %d: want one pass over the older snapshot", c != nil, r.passes)
	}
	if got := r.output(); len(got) != 4 {
		t.Fatalf("dispatched %v past a lane attached mid-pass, want the pass's 4 units", got)
	}
	if !r.m.stalled || r.m.blocker != c {
		t.Fatalf("after the pass: stalled=%v on %p, want a stall on the new lane %p", r.m.stalled, r.m.blocker, c)
	}
	r.push(c, 20, 34)
	r.push(a, 30, 32)
	r.push(b, 31, 33)
	r.stepAll()
	a.Exit()
	b.Exit()
	c.Exit()
	r.stepAll()
	r.check(t, "lane attached mid-pass")
}
