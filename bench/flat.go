package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prism/bench/gen"
	"prism/bench/oracle"
	"prism/bench/spans"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/storage"
	"prism/internal/isruntime/tp"
)

// Shape of the flat deployment, shared by flat_firehose and flat_paced.
const (
	generators   = 2 // load-generator goroutines = data connections
	lisPending   = 8 // async-flush depth of each lis.Buffered, in batches
	ismInputCap  = 64
	drainTimeout = 20 * time.Second
)

// Storage tier shape of the on-line deployment (and of store_scan).
const (
	tierHot     = 16384
	tierSegment = 8192
	tierWarm    = 8
)

type flatConfig struct {
	paced   bool
	lisCap  int    // records per lis.Buffered flush
	mark    uint16 // the flush mark matching lisCap
	storage bool   // spool file + file-backed storage.Tiered behind the manager
}

var (
	firehoseConfig = flatConfig{lisCap: 256, mark: gen.MarkNode256}
	pacedConfig    = flatConfig{paced: true, lisCap: 32, mark: gen.MarkNode32, storage: true}
)

// flat is one built flat deployment: 2 generators -> 8 lis.Buffered ->
// 2 loopback-TCP columnar conns -> one sharded ordered ISM -> sink.
type flat struct {
	cfg    flatConfig
	rc     runConfig
	stream *gen.Stream
	gens   [generators]*loadgen
	epoch  time.Time

	ismReg, txReg, lisReg, tierReg *metrics.Registry

	m        *ism.ISM
	ln       *tp.Listener
	dialed   []tp.Conn
	accepted []tp.Conn
	readers  sync.WaitGroup
	lis      [gen.Nodes]*lis.Buffered
	snk      *sink

	dir       string
	spoolFile *os.File
	tier      *storage.Tiered

	wireBytes uint64 // tp.bytes_tx after the warm-up cycle
	wireRecs  uint64
}

// buildFlat generates the stream and assembles the deployment up to
// negotiated connections; warmup completes set-up.
func buildFlat(cfg flatConfig, rc runConfig) (*flat, error) {
	f := &flat{
		cfg: cfg, rc: rc, epoch: time.Now(),
		ismReg: metrics.NewRegistry(), txReg: metrics.NewRegistry(),
		lisReg: metrics.NewRegistry(), tierReg: metrics.NewRegistry(),
	}
	f.stream = gen.New(rc.seed, rc.block)
	f.snk = newSink(f.epoch, cfg.mark, rc.rec)
	f.snk.Lamport = true
	f.snk.paced = cfg.paced

	icfg := ism.Config{
		Buffering:     ism.MISO,
		Ordered:       true,
		Shards:        runtime.GOMAXPROCS(0),
		Overflow:      flow.Block,
		InputCapacity: ismInputCap,
		Metrics:       f.ismReg,
	}
	if cfg.storage {
		f.dir = filepath.Join(rc.dir, "paced")
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
		sf, err := os.Create(filepath.Join(f.dir, "spool.bin"))
		if err != nil {
			return nil, err
		}
		f.spoolFile = sf
		icfg.Spool = sf
		if rc.rec != nil {
			icfg.Spool = spans.WrapWriter(sf, rc.rec, spSpoolWrite)
		}
		f.tier, err = storage.NewTiered(storage.TieredConfig{
			HotCapacity: tierHot, SegmentRecords: tierSegment, WarmLimit: tierWarm,
			Dir: filepath.Join(f.dir, "tier"), Metrics: f.tierReg,
		})
		if err != nil {
			return nil, err
		}
		f.snk.archive = f.tier
		if rc.rec != nil {
			f.snk.archiveSpan = spans.WrapSpill(f.tier, rc.rec, spTierAppend)
			f.snk.archive = f.snk.archiveSpan
		}
	}
	f.m = ism.New(icfg, nil)
	f.m.SubscribeBatch("bench", f.snk.onBatch)

	ln, err := tp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.ln = ln
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < generators; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			f.accepted = append(f.accepted, c)
			if rc.rec != nil {
				w := spans.WrapConn(c, rc.rec, spTpSend, spTpRecv)
				w.OnRecv = f.snk.recvs.note
				c = w
			}
			f.m.Serve(c)
		}
		acceptErr <- nil
	}()
	parts := f.stream.Split(generators)
	for g := 0; g < generators; g++ {
		c, err := tp.Dial(ln.Addr(), tp.WithConnMetrics(f.txReg))
		if err != nil {
			return nil, err
		}
		f.dialed = append(f.dialed, c)
		// The manager's capability advert only lands inside Recv, and
		// nothing else reads this side.
		f.readers.Add(1)
		go func() {
			defer f.readers.Done()
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				tp.Recycle(&m)
			}
		}()
		lg := &loadgen{
			cur: f.stream.Cursor(parts[g]), delivered: &f.snk.byGen[g],
			epoch: f.epoch, mark: cfg.mark, ring: f.snk.stamps, rec: rc.rec,
			late: make([]int64, 0, maxSamples),
		}
		var conn tp.Conn = c
		if rc.rec != nil {
			conn = spans.WrapConn(c, rc.rec, spTpSend, spTpRecv)
		}
		per := gen.Nodes / generators
		for n := g * per; n < (g+1)*per; n++ {
			b, err := lis.NewBuffered(int32(n), cfg.lisCap, conn,
				lis.WithAsyncFlush(lisPending, flow.Block, nil), lis.WithMetrics(f.lisReg))
			if err != nil {
				return nil, err
			}
			f.lis[n] = b
			lg.sinks[n] = b
		}
		own := f.lis[g*per : (g+1)*per]
		lg.flush = func() {
			for _, b := range own {
				_ = b.Flush() // async: queues the batch, never fails
			}
		}
		f.gens[g] = lg
	}
	if err := <-acceptErr; err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range f.dialed {
		for !tp.ColumnarActive(c) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("columnar framing never negotiated")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return f, nil
}

// emitted is the digest and per-source count of everything the
// generators have emitted. Call it with the generators stopped.
func (f *flat) emitted() (oracle.Sum, [gen.Sources]uint64) { return emittedBy(f.gens[:]) }

// flushAndDrain flushes every LIS buffer and waits for the sink to have
// seen everything emitted.
func (f *flat) flushAndDrain() error {
	for _, b := range f.lis {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	sum, _ := f.emitted()
	return f.snk.waitDelivered(sum.Count, drainTimeout)
}

// warmup pushes exactly one cycle of the block through the deployment
// closed-loop and drains it: pools fill, lanes and sequencers meet
// every source, and the wire counters over this fixed prefix give a
// bytes-per-record figure that repeats exactly for a seed.
func (f *flat) warmup() error {
	warmCycle(f.gens[:])
	if err := f.flushAndDrain(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	snap := f.txReg.Snapshot()
	f.wireBytes = uint64(snap.Value("tp.bytes_tx"))
	f.wireRecs = uint64(snap.Value("tp.recs_tx"))
	return nil
}

// run measures one window of seconds, closed loop or on the schedule,
// and drains it.
func (f *flat) run(seconds int) (wiredRun, error) {
	var cut cutoff
	base := f.stream.Span // the warm-up consumed exactly cycle 0
	until := int64(seconds) * int64(time.Second)
	start := time.Now()
	body := func(g *loadgen) { g.closedLoop(&cut) }
	if f.cfg.paced {
		f.snk.epoch, f.snk.base = start, base
		body = func(g *loadgen) { g.paced(start, base, until) }
	}
	res := measureWindow(f.snk, f.gens[:], seconds, start, body, func() { cut.stop.Store(true) })
	if f.cfg.paced {
		res.offered = offeredBySlice(f.stream, base, seconds)
	}
	return res, f.flushAndDrain()
}

// offeredBySlice counts, from the schedule alone, how many records are
// due by the end of each 1 s slice of a paced run that starts at cycle
// time base.
func offeredBySlice(s *gen.Stream, base int64, seconds int) []uint64 {
	out := make([]uint64, seconds)
	cur := s.Cursor(s.Recs)
	for cur.PeekTime() < base {
		cur.Next()
	}
	var n uint64
	for sl := 0; sl < seconds; sl++ {
		end := base + int64(sl+1)*int64(time.Second)
		for cur.PeekTime() < end {
			cur.Next()
			n++
		}
		out[sl] = n
	}
	return out
}

// close tears the deployment down and, for the storage-backed shape,
// leaves the tier flushed and quiescent so its byte counters are final.
func (f *flat) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, b := range f.lis {
		if b != nil {
			note(b.Close())
		}
	}
	if f.m != nil {
		note(f.m.Close())
	}
	for _, c := range f.dialed {
		note(c.Close())
	}
	for _, c := range f.accepted {
		note(c.Close())
	}
	if f.ln != nil {
		note(f.ln.Close())
	}
	f.readers.Wait()
	if f.tier != nil {
		note(f.tier.Flush())
		waitCompacted(f.tier)
		note(f.tier.Close())
	}
	if f.spoolFile != nil {
		note(f.spoolFile.Close())
	}
	return first
}

// remove deletes the deployment's files.
func (f *flat) remove() {
	if f.dir != "" {
		_ = os.RemoveAll(f.dir)
	}
}

// waitCompacted blocks until the tier's compactor has nothing left to
// fold, so storage.tier.bytes_disk is a function of what was appended
// and not of when the compactor happened to run.
func waitCompacted(t *storage.Tiered) {
	deadline := time.Now().Add(drainTimeout)
	quiet := 0
	for time.Now().Before(deadline) {
		if t.Stats().WarmSegments < tierWarm {
			quiet++
			if quiet >= 3 {
				return
			}
		} else {
			quiet = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
}
