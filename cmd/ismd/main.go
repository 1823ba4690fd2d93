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
// full registry snapshot. Published samples carry Process -1 and node
// -1, or -1 - N on a leaf with -uplink-node N, so leaves publishing
// into one relay stay distinct sources there.
//
// Usage:
//
//	ismd [-addr 127.0.0.1:7311] [-spool trace.bin] [-miso] [-stats 2s]
//	     [-debug-addr host:port]
//	     [-overflow drop-oldest|block|drop-newest|spill] [-publish 0]
//	     [-degraded-after 5s] [-shards 1] [-spill-dir d] [-spill-hot 16384]
//	ismd leaf -uplink relayaddr [-uplink-node 1] [-uplink-batch 512]
//	     [-uplink-window 0] [-mark-interval 1s] [the flat flags but -miso]
//	ismd relay [-downstreams 0] [-max-stall 0] [-resume-spool trace.bin]
//	     [-addr ...] [-spool ...] [-stats ...] [-degraded-after ...]
//
// The role word picks the node of the federated tier, and each role
// defines only the flags it reads. A relay is the root manager:
// downstream managers connect over the session protocol, each gets its
// own admission lane, and the relay k-way merges the lanes into one
// causally ordered root trace, acknowledging a downstream batch only
// once every record in it has been merged. -downstreams declares the
// fan-in the merge waits for; -resume-spool rebuilds a restarted
// relay's dedup and causal state from its previous spool (point it and
// -spool at the same file for an appending crash-restart). A leaf
// forwards its merged output through a replaying session to the relay
// at -uplink, with watermark beacons every -mark-interval, and on
// shutdown seals it (relay.Uplink.Seal: a final mark at +∞ after the
// last batch), so its lane stops gating the relay's merge; stop the
// leaves before the relay. It runs SISO with deferred causal stamping:
// the relay performs the cross-manager causal merge, and SISO
// injection keeps the leaf's dispatch nondecreasing in capture Time,
// the watermark contract the relay's merge rests on.
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
// stage: sequenced batches from LIS nodes (every cmd/lisnode) are
// acknowledged and deduplicated, so a node that redials and replays
// after a network fault delivers every batch exactly once, and
// unsequenced batches from session-less senders pass through
// untouched. On shutdown the manager broadcasts CtlShutdown, which
// ends each lisnode's run, and closes only once every node has
// flushed, drained its replay window and hung up: a stream ends when
// its sender hangs up, so every record the manager acked is
// dispatched. A restarted manager adopts each node's stream where its
// replay resumes. -degraded-after flags peers whose traffic and
// heartbeats fall silent for longer than the given budget in the
// periodic stats line, and it is the one shutdown timer: it bounds the
// wait for nodes to hang up, and a leaf's wait for its relay to ack,
// when a peer is gone without a word.
//
// Every role takes -debug-addr (off by default): an HTTP endpoint that
// serves net/http/pprof under /debug/pprof/ and the live metrics
// registry as JSON at /debug/metrics, closed on shutdown.
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

	"prism/internal/isruntime/debugsrv"
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

// settings holds what any role can be told. A role's flag set defines
// only the fields that role reads; the rest keep their zero values.
type settings struct {
	role                 string // "" (flat), "leaf" or "relay"
	addr, spool          string
	debugAddr            string
	stats, degradedAfter time.Duration
	// flat and leaf; -miso is flat only
	miso               bool
	overflow, spillDir string
	spillHot, shards   int
	publish            time.Duration
	// leaf
	uplink                                string
	uplinkNode, uplinkBatch, uplinkWindow int
	markInterval                          time.Duration
	// relay
	downstreams int
	maxStall    time.Duration
	resumeSpool string
}

// overflowPolicies maps -overflow to the ISM input stage's policy.
var overflowPolicies = map[string]flow.OverflowPolicy{
	"drop-oldest": flow.DropOldest,
	"block":       flow.Block,
	"drop-newest": flow.DropNewest,
	"spill":       flow.SpillToStorage,
}

// parseArgs reads the role word, if any, then that role's flags.
// handling and out go to the role's flag.FlagSet.
func parseArgs(args []string, handling flag.ErrorHandling, out io.Writer) (*settings, error) {
	s := &settings{}
	if len(args) > 0 && (args[0] == "leaf" || args[0] == "relay") {
		s.role, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet(strings.TrimSpace("ismd "+s.role), handling)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: %s [flags]  (roles: ismd, ismd leaf -uplink RELAY, ismd relay)\n", fs.Name())
		fs.PrintDefaults()
	}
	fs.StringVar(&s.addr, "addr", "127.0.0.1:7311", "listen address")
	fs.StringVar(&s.spool, "spool", "", "spool merged trace to this file")
	fs.DurationVar(&s.stats, "stats", 2*time.Second, "statistics print interval")
	fs.DurationVar(&s.degradedAfter, "degraded-after", 5*time.Second, "report peers silent for longer than this as degraded, and wait no longer for them at shutdown (0 disables both)")
	fs.StringVar(&s.debugAddr, "debug-addr", "", "serve pprof under /debug/pprof/ and the metrics snapshot at /debug/metrics on this address (off when empty)")
	if s.role == "relay" {
		fs.IntVar(&s.downstreams, "downstreams", 0, "expected downstream managers; the merge holds dispatch until all have attached (0 dispatches as lanes appear)")
		fs.DurationVar(&s.maxStall, "max-stall", 0, "bound the merge wait on a lagging lane's watermark before force-dispatching out of order (0 waits forever)")
		fs.StringVar(&s.resumeSpool, "resume-spool", "", "rebuild emission and dedup state from this previous spool before serving")
	} else {
		if s.role == "" {
			fs.BoolVar(&s.miso, "miso", false, "use MISO input buffering (default SISO)")
		}
		fs.StringVar(&s.overflow, "overflow", "drop-oldest", "input overflow policy: drop-oldest, block, drop-newest or spill")
		fs.StringVar(&s.spillDir, "spill-dir", "", "with -overflow spill, store tiered segments as files under this directory (default in-memory)")
		fs.IntVar(&s.spillHot, "spill-hot", 1<<14, "tiered spill hot-window capacity in records")
		fs.DurationVar(&s.publish, "publish", 0, "self-publish runtime metrics into the stream at this interval (0 disables)")
		fs.IntVar(&s.shards, "shards", 1, "ingest shards; sources hash across per-shard orderer lanes that frontier-merge before dispatch")
	}
	if s.role == "leaf" {
		fs.StringVar(&s.uplink, "uplink", "", "forward this leaf's merged output to the relay at this address (required)")
		fs.IntVar(&s.uplinkNode, "uplink-node", 1, "this manager's downstream id on the relay (unique per relay)")
		fs.IntVar(&s.uplinkBatch, "uplink-batch", 512, "records per uplink flush")
		fs.IntVar(&s.uplinkWindow, "uplink-window", 0, "session replay window in unacked batches (0 means the session default)")
		fs.DurationVar(&s.markInterval, "mark-interval", time.Second, "watermark beacon cadence")
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q: the role word (leaf or relay) comes before the flags", fs.Arg(0))
	}
	if s.role == "relay" {
		const maxDownstreams = 4096
		if s.downstreams < 0 || s.downstreams > maxDownstreams {
			return nil, fmt.Errorf("-downstreams must be between 0 and %d, got %d", maxDownstreams, s.downstreams)
		}
		return s, nil
	}
	if s.role == "leaf" && s.uplink == "" {
		return nil, errors.New("leaf: -uplink is required")
	}
	// Shard misconfiguration fails fast rather than being silently
	// clamped: a lane per shard is a real goroutine plus a bounded ring,
	// so an absurd count is a deployment mistake.
	const maxShards = 256
	if s.shards < 1 || s.shards > maxShards {
		return nil, fmt.Errorf("-shards must be between 1 and %d, got %d", maxShards, s.shards)
	}
	if _, ok := overflowPolicies[s.overflow]; !ok {
		return nil, fmt.Errorf("unknown overflow policy %q", s.overflow)
	}
	if err := validateOverflowFlags(fs, s.overflow); err != nil {
		return nil, err
	}
	return s, nil
}

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

// manager is what the lifecycle needs of an ISM or a relay.
type manager interface {
	Serve(tp.Conn)
	Degraded(silence time.Duration) []int32
	Metrics() *metrics.Registry
	Close() error
}

// role is one running ismd role as the shared lifecycle drives it: its
// manager, the lines it reports and what it does on stop. run does the
// rest.
type role struct {
	*settings
	mgr    manager
	desc   string // logged with the listen address
	title  string // the shutdown metrics table's heading
	spool  *os.File
	debug  *debugsrv.Server    // with -debug-addr; closed on shutdown
	status func() string       // the periodic status line
	halt   func()              // after the listener closes, before Close; nil at a relay
	final  func(out io.Writer) // after Close: a leaf's seal, then the role's lines
}

// newRole builds and starts the manager the settings name: a relay, or
// an ISM that a leaf uplinks to its relay.
func newRole(s *settings) (*role, error) {
	r := &role{settings: s}
	// A restarted relay re-reads its previous spool, before the spool
	// reopens: emission counts, causal-merge state and per-source dedup
	// cursors are rebuilt from it, so downstream at-least-once replays
	// dedupe record-granularly instead of duplicating the root trace.
	var resume []trace.Record
	if s.resumeSpool != "" {
		var err error
		if resume, err = loadResume(s.resumeSpool, s.spool == s.resumeSpool); err != nil {
			return nil, fmt.Errorf("resume spool: %w", err)
		}
		log.Printf("ismd: resuming from %s (%d records)", s.resumeSpool, len(resume))
	}
	if s.spool != "" {
		// A relay resuming from its own spool appends to it: the previous
		// incarnation's output is the prefix of this one's.
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if s.spool == s.resumeSpool {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		var err error
		if r.spool, err = os.OpenFile(s.spool, mode, 0o644); err != nil {
			return nil, err
		}
	}
	if s.role == "relay" {
		r.startRelay(resume)
	} else if err := r.startISM(); err != nil {
		return nil, err
	}
	if s.debugAddr != "" {
		var err error
		if r.debug, err = debugsrv.Start(s.debugAddr, r.mgr.Metrics()); err != nil {
			return nil, fmt.Errorf("-debug-addr: %w", err)
		}
		log.Printf("ismd: debug endpoint on http://%s/debug/", r.debug.Addr())
	}
	return r, nil
}

// startISM starts the flat manager or a leaf.
func (r *role) startISM() error {
	s := r.settings
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
		Shards:        s.shards,
		Overflow:      overflowPolicies[s.overflow],
		// A federation downstream defers causal stamping to the relay:
		// the leaf restamps Logical with contiguous per-source uplink
		// sequences and the root's causal merge assigns Lamport clocks.
		DeferCausal: s.role == "leaf",
	}
	if s.miso {
		cfg.Buffering = ism.MISO
	}
	var tier *storage.Tiered
	if cfg.Overflow == flow.SpillToStorage {
		// Displaced records demote into a tiered columnar store instead
		// of being lost: hot in-memory window, then sealed segments
		// appended to tier files.
		var err error
		tier, err = storage.NewTiered(storage.TieredConfig{HotCapacity: s.spillHot, Dir: s.spillDir, Metrics: reg})
		if err != nil {
			return err
		}
		cfg.OverflowSpill = tier
	}
	if r.spool != nil {
		cfg.Spool = r.spool
	}
	clock := event.NewRealClock()
	m := ism.New(cfg, clock)

	var up *relay.Uplink
	stopBeacons := make(chan struct{})
	if s.role == "leaf" {
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial:    func() (tp.Conn, error) { return tp.Dial(s.uplink, tp.WithConnMetrics(reg)) },
			Backoff: 50 * time.Millisecond,
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		up = relay.NewUplink(int32(s.uplinkNode), rd, relay.UplinkConfig{
			BatchSize: s.uplinkBatch, Window: s.uplinkWindow, Metrics: reg,
		})
		m.SubscribeBatch("uplink", up.Push)
		log.Printf("ismd: uplink to %s as downstream %d (batch=%d mark-interval=%s)",
			s.uplink, s.uplinkNode, s.uplinkBatch, s.markInterval)
		if s.markInterval > 0 {
			// Watermark beacons let the relay's merge release other lanes'
			// records past this leaf's quiet periods without waiting for
			// the next data flush.
			go func() {
				t := time.NewTicker(s.markInterval)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						up.Beacon()
					case <-stopBeacons:
						return
					}
				}
			}()
		}
	}
	// The manager's own metrics flow through the same pipeline as
	// application data, attributed to a synthetic node: -1, or
	// -1 - uplinkNode on a leaf, as the relay admits a source through
	// one lane only and -uplink-node is unique per relay.
	stopPublish := make(chan struct{})
	if s.publish > 0 {
		node := int32(-1)
		if s.role == "leaf" {
			node = -1 - int32(s.uplinkNode)
		}
		pub := metrics.NewPublisher(reg, node, clock, metrics.SinkFunc(func(r trace.Record) {
			m.Inject(tp.DataMessage(node, []trace.Record{r}))
		}))
		go pub.Run(stopPublish, s.publish)
	}
	r.mgr = m
	// The effective topology, post-defaulting and ring rounding — the
	// same figures the metrics snapshot reports as ism.shards and
	// ism.merge_ring_capacity.
	r.desc = fmt.Sprintf("%s ISM (shards=%d merge-ring=%d overflow=%s ordered=%v)",
		cfg.Buffering, m.ShardCount(), m.MergeRingCap(), s.overflow, cfg.Ordered)
	r.title = "ISM runtime metrics"
	r.status = func() string {
		st := m.Stats()
		return fmt.Sprintf("arrived=%d dispatched=%d held=%d holdback=%.3f mean-latency=%s",
			st.Arrived, st.Dispatched, st.Held, st.HoldBackRatio, time.Duration(st.MeanLatencyNs))
	}
	r.halt = func() {
		close(stopPublish)
		// Each node ends its run, flushes, drains its replay window and
		// hangs up; closing before that would ack its last flush and drop
		// it with the byte stream. The bound is for a node that is gone
		// without a word.
		m.Broadcast(tp.CtlShutdown, 0)
		if !m.WaitHangup(s.degradedAfter) {
			log.Printf("ismd: nodes still connected after %s; closing their connections", s.degradedAfter)
		}
	}
	r.final = func(out io.Writer) {
		if up != nil {
			// Seal after Close, whose final dispatch pushed the last
			// records, and drive the replay window empty: an empty window
			// means every record is merged at the root, not merely
			// delivered. The bound is -degraded-after, for a relay that is
			// gone without a word: the redial never gives up.
			close(stopBeacons)
			up.Seal()
			up.Drain(s.degradedAfter)
			fmt.Fprintf(out, "uplink: unacked-batches=%d\n", up.Pending())
			if err := up.Close(); err != nil {
				log.Printf("ismd: uplink close: %v", err)
			}
		}
		st := m.Stats()
		fmt.Fprintf(out, "final: arrived=%d dispatched=%d out-of-order=%d hold-back=%.3f merge-stalls=%d\n",
			st.Arrived, st.Dispatched, st.OutOfOrder, st.HoldBackRatio, st.MergeStalls)
		if tier != nil {
			// ISM.Close already flushed the hot window through the
			// OverflowSpill Flush hook; Close here closes the tier file.
			if err := tier.Close(); err != nil {
				log.Printf("ismd: spill tier: %v", err)
			}
			ts := tier.Stats()
			fmt.Fprintf(out, "spill tier: appended=%d sealed=%d warm=%d cold=%d disk-bytes=%d\n",
				ts.Appended, ts.Sealed, ts.WarmSegments, ts.ColdSegments, ts.BytesToDisk)
		}
		snap := reg.Snapshot()
		fmt.Fprintf(out, "session: hellos=%g dup-batches=%g gaps-opened=%g\n",
			snap.Value("session.hellos"), snap.Value("session.dup_batches"), snap.Value("session.gap_batches"))
	}
	return nil
}

// startRelay starts a root relay merging downstream manager sessions
// into the single causally ordered root trace.
func (r *role) startRelay(resume []trace.Record) {
	s := r.settings
	cfg := relay.Config{Root: true, Downstreams: s.downstreams, MaxStall: s.maxStall, Resume: resume, Metrics: metrics.NewRegistry()}
	if r.spool != nil {
		cfg.Spool = r.spool
	}
	rel := relay.New(cfg)
	r.mgr = rel
	r.desc = fmt.Sprintf("relay (downstreams=%d max-stall=%s)", s.downstreams, s.maxStall)
	r.title = "Relay runtime metrics"
	r.status = func() string {
		st := rel.Stats()
		return fmt.Sprintf("lanes=%d merged=%d held=%d stalls=%d order-breaks=%d marks=%d frontier=%d",
			st.Lanes, st.Dispatched, st.Held, st.Stalls, st.OrderBreaks, st.Marks, rel.Watermark())
	}
	r.final = func(out io.Writer) {
		st := rel.Stats()
		fmt.Fprintf(out, "final: lanes=%d merged=%d resumes=%d stalls=%d order-breaks=%d dup-records=%d partition-rejects=%d marks=%d held=%d session-dups=%d sealed=%d\n",
			st.Lanes, st.Dispatched, st.Resumes, st.Stalls, st.OrderBreaks,
			st.DupRecords, st.PartitionRejects, st.Marks, st.Held, st.SessionDups, st.Sealed)
	}
}

// run is the lifecycle every role shares: accept connections on ln
// and serve them, log the status line and any degraded peers every
// -stats, and once stop closes, halt, close the manager and report to
// out — the final lines, wire summary, registry table and spool line.
func (r *role) run(ln *tp.Listener, stop <-chan struct{}, out io.Writer) {
	log.Printf("ismd: %s listening on %s", r.desc, ln.Addr())
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			log.Printf("ismd: connection accepted")
			r.mgr.Serve(conn)
		}
	}()
	ticker := time.NewTicker(r.stats)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			log.Printf("ismd: %s", r.status())
			if r.degradedAfter > 0 {
				if deg := r.mgr.Degraded(r.degradedAfter); len(deg) > 0 {
					log.Printf("ismd: degraded peers (silent > %s): %v", r.degradedAfter, deg)
				}
			}
		case <-stop:
			log.Printf("ismd: shutting down")
			ln.Close()
			<-accepting // no Serve races the manager's Close
			if r.halt != nil {
				r.halt()
			}
			if err := r.mgr.Close(); err != nil {
				log.Printf("ismd: close: %v", err)
			}
			r.final(out)
			snap := r.mgr.Metrics().Snapshot()
			for _, l := range wireStatLines(snap) {
				fmt.Fprintln(out, l)
			}
			if err := report.RenderMetrics(out, r.title, snap); err != nil {
				log.Printf("ismd: metrics: %v", err)
			}
			if r.spool != nil {
				if err := r.spool.Close(); err != nil {
					log.Printf("ismd: spool: %v", err)
				}
				fmt.Fprintf(out, "trace spooled to %s\n", r.spool.Name())
			}
			if r.debug != nil {
				r.debug.Close()
			}
			return
		}
	}
}

func main() {
	s, err := parseArgs(os.Args[1:], flag.ExitOnError, os.Stderr)
	if err != nil {
		log.Fatalf("ismd: %v", err)
	}
	r, err := newRole(s)
	if err != nil {
		log.Fatalf("ismd: %v", err)
	}
	ln, err := tp.Listen(s.addr, tp.WithConnMetrics(r.mgr.Metrics()))
	if err != nil {
		log.Fatalf("ismd: %v", err)
	}
	stop := make(chan struct{})
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	go func() {
		<-interrupt
		close(stop)
	}()
	r.run(ln, stop, os.Stdout)
}
