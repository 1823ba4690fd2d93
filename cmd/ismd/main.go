// Command ismd runs a networked Instrumentation System Manager: it
// listens for LIS connections over the TCP transfer protocol, performs
// causal ordering, prints live statistics, and optionally spools the
// merged trace to disk. Pair it with cmd/lisnode, which runs
// instrumented application nodes that forward to this manager — the
// deployment of Figure 2 across real processes.
//
// The manager reports through a runtime metrics registry; -publish
// periodically re-injects those metrics into the managed stream as
// trace records (the IS instrumenting itself), and shutdown prints the
// full registry snapshot.
//
// Usage:
//
//	ismd [-addr 127.0.0.1:7311] [-spool trace.bin] [-miso] [-stats 2s]
//	     [-overflow drop-oldest|block|drop-newest|spill] [-publish 0]
//	     [-degraded-after 5s] [-shards 1] [-spill-dir d] [-spill-hot 16384]
//	ismd -relay -downstreams N [-max-stall 0]
//	     [-resume-spool trace.bin] [-spool trace.bin] [-addr ...]
//	ismd -uplink relayaddr [-uplink-node 1] [-uplink-batch 512]
//	     [-uplink-window 0] [-mark-interval 1s] [-addr ...]
//
// The last two forms are the federated tier. -relay runs a root relay
// manager instead of a leaf ISM: downstream managers connect over the
// session protocol, each gets its own admission lane, and the relay
// k-way merges the lane streams into one causally ordered root trace,
// acknowledging a downstream batch only once every record in it has
// been merged. -downstreams declares the expected fan-in so the merge
// holds dispatch until every lane has attached; -resume-spool rebuilds
// a restarted relay's dedup and causal state from its previous spool
// (point both it and -spool at the same file for an appending
// crash-restart). -uplink turns a leaf ISM into a federation
// downstream: its merged output is batched through a replaying session
// to the relay at the given address, with watermark beacons every
// -mark-interval. Uplink leaves run SISO with deferred causal
// stamping — the relay performs the cross-manager causal merge, and
// SISO injection is what keeps the leaf's dispatch nondecreasing in
// capture Time, the watermark contract the relay's merge rests on
// (-miso is rejected).
//
// With -overflow spill, records displaced from the input stage demote
// into a tiered columnar store (hot in-memory window, then compressed
// segments) instead of being dropped; -spill-dir persists the segments
// by appending each, once, to a tier file of 8 segments.
//
// Data batches on every listener and uplink connection travel as
// column-encoded frames: the segment codec on the wire, several times
// smaller than flat record arrays.
//
// The manager always runs the session protocol in front of the input
// stage: sequenced batches from resilient LIS nodes (see cmd/lisnode
// -resilient) are acknowledged and deduplicated, so a node that redials
// and replays after a network fault delivers every batch exactly once,
// and plain nodes' unsequenced batches pass through untouched. A
// restarted manager adopts each node's stream where its replay resumes.
// -degraded-after flags nodes whose traffic and heartbeats fall silent
// for longer than the given budget in the periodic stats line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
	"prism/internal/report"
	"prism/internal/trace"
)

// spillOnlyFlags configure the tiered spill store and mean nothing
// under any other overflow policy.
var spillOnlyFlags = map[string]bool{
	"spill-dir": true,
	"spill-hot": true,
}

// validateOverflowFlags rejects spill-tuning flags that were
// explicitly set while the overflow policy is not "spill". Accepting
// them silently would let a deployment that typo'd the policy believe
// its displaced records were being persisted when they are in fact
// dropped.
func validateOverflowFlags(fs *flag.FlagSet, overflow string) error {
	if overflow == "spill" {
		return nil
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if spillOnlyFlags[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) == 0 {
		return nil
	}
	return fmt.Errorf("%s: valid only with -overflow spill (policy is %q)",
		strings.Join(stray, ", "), overflow)
}

// relayOnlyFlags configure the relay merge tier and mean nothing on a
// leaf ISM.
var relayOnlyFlags = map[string]bool{
	"downstreams":  true,
	"max-stall":    true,
	"resume-spool": true,
}

// uplinkOnlyFlags configure the leaf-to-relay uplink session and mean
// nothing without -uplink.
var uplinkOnlyFlags = map[string]bool{
	"uplink-node":   true,
	"uplink-batch":  true,
	"uplink-window": true,
	"mark-interval": true,
}

// validateModeFlags rejects federation flags that contradict the
// selected mode: -relay and -uplink are mutually exclusive roles,
// relay tuning is rejected on leaves, uplink tuning is rejected
// without an uplink, and -miso is rejected in both federated roles —
// a relay has no input stage to buffer, and an uplink leaf must
// dispatch in nondecreasing capture Time, which only SISO staging
// preserves (MISO's round-robin pop reorders across sources and would
// let the leaf's watermark overclaim).
func validateModeFlags(fs *flag.FlagSet, relayMode bool, uplink string) error {
	if relayMode && uplink != "" {
		return errors.New("-relay and -uplink are mutually exclusive: a manager is either the federation's merge tier or a downstream of one")
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		switch {
		case !relayMode && relayOnlyFlags[f.Name]:
			stray = append(stray, "-"+f.Name+" (needs -relay)")
		case uplink == "" && uplinkOnlyFlags[f.Name]:
			stray = append(stray, "-"+f.Name+" (needs -uplink)")
		case f.Name == "miso" && relayMode:
			stray = append(stray, "-miso (a relay has no input stage)")
		case f.Name == "miso" && uplink != "":
			stray = append(stray, "-miso (uplink leaves must dispatch in capture-Time order; only SISO staging preserves it)")
		}
	})
	if len(stray) == 0 {
		return nil
	}
	return errors.New(strings.Join(stray, "; "))
}

// wireStatLines renders the shutdown wire-volume summary from the
// transport counters: absolute bytes each way and the per-record wire
// cost actually achieved, the figure that shows whether columnar
// framing engaged. Directions with no traffic are omitted.
func wireStatLines(snap metrics.Snapshot) []string {
	var out []string
	line := func(dir string, b, r float64) {
		switch {
		case r > 0:
			out = append(out, fmt.Sprintf("wire %s: %.0f B, %.0f records, %.2f B/rec", dir, b, r, b/r))
		case b > 0:
			out = append(out, fmt.Sprintf("wire %s: %.0f B (control only)", dir, b))
		}
	}
	line("tx", snap.Value("tp.bytes_tx"), snap.Value("tp.recs_tx"))
	line("rx", snap.Value("tp.bytes_rx"), snap.Value("tp.recs_rx"))
	return out
}

func printWireStats(snap metrics.Snapshot) {
	for _, l := range wireStatLines(snap) {
		fmt.Println(l)
	}
}

// loadResume reads a relay's previous spool for relay.Config.Resume.
// A missing spool is an empty one. A torn tail — a segment cut short by
// a crash mid-write — is dropped and the relay resumes from the whole
// segments before it: that segment's Flush never returned, so none of
// its batches were acked and the downstream replay windows still hold
// them. When the spool is also the file this incarnation appends to
// (truncate), the dropped bytes are cut off first, so new segments
// follow the last whole one. Any other decode failure — a corrupt
// segment, or a file that is no segment stream — is an error and leaves
// the file untouched: the records after it were acked.
func loadResume(path string, truncate bool) ([]trace.Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, n, err := trace.DecodeSegments(nil, data)
	if err == nil {
		return recs, nil
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	log.Printf("ismd: resume spool %s: dropping %d bytes after the last whole segment: %v", path, len(data)-n, err)
	if truncate {
		if err := os.Truncate(path, int64(n)); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// runRelay is the -relay mode: a root relay manager merging downstream
// manager sessions into the single causally ordered root trace.
func runRelay(addr, spool, resumeSpool string, downstreams int, maxStall, statsEvery, degradedAfter time.Duration) {
	reg := metrics.NewRegistry()
	// A restarted relay re-reads its previous spool: emission counts,
	// causal-merge state and per-source dedup cursors are rebuilt from
	// it, so downstream at-least-once replays dedupe record-granularly
	// instead of duplicating the root trace.
	var resume []trace.Record
	if resumeSpool != "" {
		var err error
		if resume, err = loadResume(resumeSpool, spool == resumeSpool); err != nil {
			log.Fatalf("ismd: resume spool: %v", err)
		}
		log.Printf("ismd: resuming from %s (%d records)", resumeSpool, len(resume))
	}
	cfg := relay.Config{
		Root:        true,
		Downstreams: downstreams,
		MaxStall:    maxStall,
		Resume:      resume,
		Metrics:     reg,
	}
	var spoolFile *os.File
	if spool != "" {
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if spool == resumeSpool {
			// Same file as the resume source: the previous incarnation's
			// output is the prefix of this one's, so append, don't
			// truncate.
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(spool, mode, 0o644)
		if err != nil {
			log.Fatalf("ismd: %v", err)
		}
		defer f.Close()
		cfg.Spool = f
		spoolFile = f
	}
	rel := relay.New(cfg)
	ln, err := tp.Listen(addr, tp.WithConnMetrics(reg))
	if err != nil {
		log.Fatalf("ismd: %v", err)
	}
	log.Printf("ismd: relay listening on %s (downstreams=%d max-stall=%s)", ln.Addr(), downstreams, maxStall)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			log.Printf("ismd: downstream connected")
			rel.Serve(conn)
		}
	}()

	ticker := time.NewTicker(statsEvery)
	defer ticker.Stop()
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	for {
		select {
		case <-ticker.C:
			st := rel.Stats()
			log.Printf("ismd: lanes=%d merged=%d held=%d stalls=%d order-breaks=%d marks=%d frontier=%d",
				st.Lanes, st.Dispatched, st.Held, st.Stalls, st.OrderBreaks, st.Marks, rel.Watermark())
			if degradedAfter > 0 {
				if deg := rel.Degraded(degradedAfter); len(deg) > 0 {
					log.Printf("ismd: degraded downstreams (silent > %s): %v", degradedAfter, deg)
				}
			}
		case <-interrupt:
			log.Printf("ismd: shutting down")
			ln.Close()
			// Bounded drain: an unbounded Drain can never finish when
			// downstream clocks aren't comparable (one leaf's final mark
			// trails another leaf's tail) or a downstream died without
			// sealing. Close's final drain dispatches whatever the
			// watermark rule still holds, and the unacked batches stay
			// covered by the downstream replay windows.
			if !rel.DrainFor(5 * time.Second) {
				log.Printf("ismd: drain incomplete after 5s (stalled watermarks or silent downstreams); final drain dispatches held records")
			}
			if err := rel.Close(); err != nil {
				log.Printf("ismd: close: %v", err)
			}
			st := rel.Stats()
			fmt.Printf("final: lanes=%d merged=%d resumes=%d stalls=%d order-breaks=%d dup-records=%d partition-rejects=%d marks=%d held=%d session-dups=%d\n",
				st.Lanes, st.Dispatched, st.Resumes, st.Stalls, st.OrderBreaks,
				st.DupRecords, st.PartitionRejects, st.Marks, st.Held, st.SessionDups)
			snap := reg.Snapshot()
			printWireStats(snap)
			if err := report.RenderMetrics(os.Stdout, "Relay runtime metrics", snap); err != nil {
				log.Printf("ismd: metrics: %v", err)
			}
			if spoolFile != nil {
				fmt.Printf("root trace spooled to %s\n", spoolFile.Name())
			}
			return
		}
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7311", "listen address")
	spool := flag.String("spool", "", "spool merged trace to this file")
	miso := flag.Bool("miso", false, "use MISO input buffering (default SISO)")
	statsEvery := flag.Duration("stats", 2*time.Second, "statistics print interval")
	overflow := flag.String("overflow", "drop-oldest", "input overflow policy: drop-oldest, block, drop-newest or spill")
	spillDir := flag.String("spill-dir", "", "with -overflow spill, store tiered segments as files under this directory (default in-memory)")
	spillHot := flag.Int("spill-hot", 1<<14, "tiered spill hot-window capacity in records")
	publish := flag.Duration("publish", 0, "self-publish runtime metrics into the stream at this interval (0 disables)")
	degradedAfter := flag.Duration("degraded-after", 5*time.Second, "report nodes silent for longer than this as degraded (0 disables)")
	shards := flag.Int("shards", 1, "ingest shards; sources hash across per-shard orderer lanes that frontier-merge before dispatch")
	relayMode := flag.Bool("relay", false, "run a root relay manager: merge downstream manager sessions instead of LIS nodes")
	downstreams := flag.Int("downstreams", 0, "with -relay, expected downstream managers; the merge holds dispatch until all have attached (0 dispatches as lanes appear)")
	maxStall := flag.Duration("max-stall", 0, "with -relay, bound the merge wait on a lagging lane's watermark before force-dispatching out of order (0 waits forever)")
	resumeSpool := flag.String("resume-spool", "", "with -relay, rebuild emission and dedup state from this previous spool before serving")
	uplink := flag.String("uplink", "", "run as a federation downstream: forward this leaf's merged output to the relay at this address")
	uplinkNode := flag.Int("uplink-node", 1, "with -uplink, this manager's downstream id on the relay (unique per relay)")
	uplinkBatch := flag.Int("uplink-batch", 512, "with -uplink, records per uplink flush")
	uplinkWindow := flag.Int("uplink-window", 0, "with -uplink, session replay window in unacked batches (0 means the session default)")
	markInterval := flag.Duration("mark-interval", time.Second, "with -uplink, watermark beacon cadence")
	flag.Parse()

	if err := validateModeFlags(flag.CommandLine, *relayMode, *uplink); err != nil {
		log.Fatalf("ismd: %v", err)
	}
	if *relayMode {
		const maxDownstreams = 4096
		if *downstreams < 0 || *downstreams > maxDownstreams {
			log.Fatalf("ismd: -downstreams must be between 0 and %d, got %d", maxDownstreams, *downstreams)
		}
		runRelay(*addr, *spool, *resumeSpool, *downstreams, *maxStall, *statsEvery, *degradedAfter)
		return
	}

	// Shard misconfiguration fails fast rather than being silently
	// clamped: a lane per shard is a real goroutine plus a bounded ring,
	// so an absurd count is a deployment mistake.
	const maxShards = 256
	if *shards < 1 || *shards > maxShards {
		log.Fatalf("ismd: -shards must be between 1 and %d, got %d", maxShards, *shards)
	}
	if err := validateOverflowFlags(flag.CommandLine, *overflow); err != nil {
		log.Fatalf("ismd: %v", err)
	}

	reg := metrics.NewRegistry()
	// ResumeSources: a restarted manager is re-served by sessions
	// replaying only their unacked suffix, so the orderer must adopt
	// mid-stream sources instead of holding for the prefix that died
	// with the previous incarnation. A node's connection delivers in
	// order and a LIS numbers each source from 0, so on a first
	// incarnation adoption changes nothing.
	cfg := ism.Config{
		Buffering: ism.SISO, Ordered: true, Metrics: reg,
		ResumeSources: true,
		Shards:        *shards,
		// A federation downstream defers causal stamping to the relay:
		// the leaf restamps Logical with contiguous per-source uplink
		// sequences and the root's causal merge assigns Lamport clocks.
		DeferCausal: *uplink != "",
	}
	if *miso {
		cfg.Buffering = ism.MISO
	}
	var tier *storage.Tiered
	switch *overflow {
	case "drop-oldest":
		cfg.Overflow = flow.DropOldest
	case "block":
		cfg.Overflow = flow.Block
	case "drop-newest":
		cfg.Overflow = flow.DropNewest
	case "spill":
		// Displaced records demote into a tiered columnar store instead
		// of being lost: hot in-memory window, then sealed segments
		// appended to tier files.
		var err error
		tier, err = storage.NewTiered(storage.TieredConfig{
			HotCapacity: *spillHot,
			Dir:         *spillDir,
			Metrics:     reg,
		})
		if err != nil {
			log.Fatalf("ismd: %v", err)
		}
		cfg.Overflow = flow.SpillToStorage
		cfg.OverflowSpill = tier
	default:
		log.Fatalf("ismd: unknown overflow policy %q", *overflow)
	}
	var spoolFile *os.File
	if *spool != "" {
		f, err := os.Create(*spool)
		if err != nil {
			log.Fatalf("ismd: %v", err)
		}
		defer f.Close()
		cfg.Spool = f
		spoolFile = f
	}

	clock := event.NewRealClock()
	manager := ism.New(cfg, clock)
	var up *relay.Uplink
	if *uplink != "" {
		relayAddr := *uplink
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial:    func() (tp.Conn, error) { return tp.Dial(relayAddr, tp.WithConnMetrics(reg)) },
			Backoff: 50 * time.Millisecond,
			Metrics: reg,
		})
		if err != nil {
			log.Fatalf("ismd: %v", err)
		}
		up = relay.NewUplink(int32(*uplinkNode), rd, relay.UplinkConfig{
			BatchSize: *uplinkBatch,
			Window:    *uplinkWindow,
			Metrics:   reg,
		})
		manager.SubscribeBatch("uplink", up.Push)
		log.Printf("ismd: uplink to %s as downstream %d (batch=%d mark-interval=%s)",
			relayAddr, *uplinkNode, *uplinkBatch, *markInterval)
	}
	ln, err := tp.Listen(*addr, tp.WithConnMetrics(reg))
	if err != nil {
		log.Fatalf("ismd: %v", err)
	}
	log.Printf("ismd: %s ISM listening on %s", cfg.Buffering, ln.Addr())
	// The effective topology, post-defaulting and ring rounding — the
	// same figures the metrics snapshot reports as ism.shards and
	// ism.merge_ring_capacity.
	log.Printf("ismd: shards=%d merge-ring=%d overflow=%s ordered=%v",
		manager.ShardCount(), manager.MergeRingCap(), *overflow, cfg.Ordered)

	stopBeacon := make(chan struct{})
	if up != nil && *markInterval > 0 {
		// Watermark beacons let the relay's merge release other lanes'
		// records past this leaf's quiet periods without waiting for the
		// next data flush.
		go func() {
			t := time.NewTicker(*markInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					up.Beacon()
				case <-stopBeacon:
					return
				}
			}
		}()
	}

	stopPublish := make(chan struct{})
	if *publish > 0 {
		// The manager's own metrics flow through the same pipeline as
		// application data, attributed to synthetic node -1.
		pub := metrics.NewPublisher(reg, -1, clock, metrics.SinkFunc(func(r trace.Record) {
			manager.Inject(tp.DataMessage(-1, []trace.Record{r}))
		}))
		go pub.Run(stopPublish, *publish)
	}

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			log.Printf("ismd: LIS connected")
			manager.Serve(conn)
		}
	}()

	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	for {
		select {
		case <-ticker.C:
			st := manager.Stats()
			log.Printf("ismd: arrived=%d dispatched=%d held=%d holdback=%.3f mean-latency=%s",
				st.Arrived, st.Dispatched, st.Held, st.HoldBackRatio,
				time.Duration(st.MeanLatencyNs))
			if *degradedAfter > 0 {
				if deg := manager.Degraded(*degradedAfter); len(deg) > 0 {
					log.Printf("ismd: degraded nodes (silent > %s): %v", *degradedAfter, deg)
				}
			}
		case <-interrupt:
			log.Printf("ismd: shutting down")
			close(stopPublish)
			manager.Broadcast(tp.CtlShutdown, 0)
			ln.Close()
			manager.Drain()
			if up != nil {
				// Seal the uplink: flush the tail, promise the relay nothing
				// older is coming, and drive the replay window empty — an
				// empty window means every record is merged at the root, not
				// merely delivered.
				close(stopBeacon)
				up.Flush()
				up.Beacon()
				deadline := time.Now().Add(5 * time.Second)
				for up.Pending() > 0 && time.Now().Before(deadline) {
					_ = up.Resend()
					up.WaitAcked(100 * time.Millisecond)
				}
				fmt.Printf("uplink: unacked-batches=%d\n", up.Pending())
				if err := up.Close(); err != nil {
					log.Printf("ismd: uplink close: %v", err)
				}
			}
			if err := manager.Close(); err != nil {
				log.Printf("ismd: close: %v", err)
			}
			st := manager.Stats()
			fmt.Printf("final: arrived=%d dispatched=%d out-of-order=%d hold-back=%.3f merge-stalls=%d\n",
				st.Arrived, st.Dispatched, st.OutOfOrder, st.HoldBackRatio, st.MergeStalls)
			if tier != nil {
				// ISM.Close already flushed the hot window through the
				// OverflowSpill Flush hook; Close here closes the tier file.
				if err := tier.Close(); err != nil {
					log.Printf("ismd: spill tier: %v", err)
				}
				ts := tier.Stats()
				fmt.Printf("spill tier: appended=%d sealed=%d warm=%d cold=%d disk-bytes=%d\n",
					ts.Appended, ts.Sealed, ts.WarmSegments, ts.ColdSegments, ts.BytesToDisk)
			}
			snap := reg.Snapshot()
			fmt.Printf("session: hellos=%g dup-batches=%g gaps-opened=%g\n",
				snap.Value("session.hellos"), snap.Value("session.dup_batches"), snap.Value("session.gap_batches"))
			printWireStats(snap)
			if err := report.RenderMetrics(os.Stdout, "ISM runtime metrics", snap); err != nil {
				log.Printf("ismd: metrics: %v", err)
			}
			if spoolFile != nil {
				fmt.Printf("trace spooled to %s\n", spoolFile.Name())
			}
			return
		}
	}
}
