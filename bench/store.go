package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prism/bench/gen"
	"prism/bench/oracle"
	"prism/bench/spans"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/storage"
	"prism/internal/trace"
)

// Shape of store_scan.
const (
	storeBatch       = 256     // records per Append
	storeRecords     = 1 << 24 // phase A stream length at the full 20 s run length
	storeFullSeconds = 20
	mixedRate        = 1e6 // records/s the phase C appender holds
)

// store is one built store_scan deployment: a file-backed tiered store
// and a cursor over the whole seeded stream, with no wire and no
// manager in front of it.
type store struct {
	rc      runConfig
	stream  *gen.Stream
	cur     *gen.Cursor
	reg     *metrics.Registry
	tier    *storage.Tiered
	target  flow.Spill // the tier, or its span decorator in the traced run
	dir     string
	batch   []trace.Record
	records int // phase A length for this run

	appended atomic.Uint64
}

func buildStore(rc runConfig) (*store, error) {
	s := &store{rc: rc, reg: metrics.NewRegistry(), dir: filepath.Join(rc.dir, "store")}
	s.stream = gen.New(rc.seed, rc.block)
	s.cur = s.stream.Cursor(s.stream.Recs)
	s.batch = make([]trace.Record, 0, storeBatch)
	s.records = storeRecords
	if rc.seconds < storeFullSeconds {
		s.records = storeRecords / storeFullSeconds * rc.seconds
	}
	s.records -= s.records % rc.block
	if s.records < rc.block {
		s.records = rc.block
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *store) open() error {
	t, err := storage.NewTiered(storage.TieredConfig{
		HotCapacity: tierHot, SegmentRecords: tierSegment, WarmLimit: tierWarm,
		Dir: s.dir, Metrics: s.reg,
	})
	if err != nil {
		return err
	}
	s.tier = t
	s.target = t
	if s.rc.rec != nil {
		s.target = spans.WrapSpill(t, s.rc.rec, spTierAppend)
	}
	return nil
}

// warmup appends and scans one cycle of the block in a throwaway store,
// so pools, page cache and the scan plane's buffers are warm, then
// reopens an empty store for the measured phases. The cursor keeps its
// position: phase A starts at cycle 1.
func (s *store) warmup() error {
	if err := s.appendN(s.rc.block, nil); err != nil {
		return err
	}
	if err := s.tier.Flush(); err != nil {
		return err
	}
	if _, _, err := s.scan(storage.FilterAll(), storage.ScanOptions{}, nil); err != nil {
		return err
	}
	if err := s.tier.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	s.appended.Store(0)
	s.reg = metrics.NewRegistry()
	return s.open()
}

// appendN appends n records in storeBatch-record Appends as fast as the
// store takes them, timing each call into lat when it is not nil.
func (s *store) appendN(n int, lat *[]int64) error {
	for done := 0; done < n; done += storeBatch {
		s.batch = s.cur.Fill(s.batch[:0], storeBatch)
		t0 := time.Now()
		if err := s.target.Append(s.batch...); err != nil {
			return err
		}
		if lat != nil {
			*lat = append(*lat, int64(time.Since(t0)))
		}
		s.appended.Add(storeBatch)
	}
	return nil
}

// scan drains one scan, returning the records it yielded and how long
// it took. check, when not nil, sees every record.
func (s *store) scan(f storage.ScanFilter, opts storage.ScanOptions, check *oracle.Scan) (uint64, time.Duration, error) {
	start := time.Now()
	var spanStart int64
	if s.rc.rec != nil {
		spanStart = s.rc.rec.Now()
	}
	sc := s.tier.Scan(f, opts)
	defer sc.Close()
	var n uint64
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, 0, err
		}
		n += uint64(len(b))
		if check != nil {
			for i := range b {
				check.Observe(&b[i])
			}
		}
		flow.PutBatch(b)
	}
	if s.rc.rec != nil {
		s.rc.rec.Add(spans.Span{Name: spScan, Parent: spans.NoParent, Node: -1, Seq: n, Start: spanStart, End: s.rc.rec.Now()})
	}
	return n, time.Since(start), nil
}

// digest recomputes, outside any timed region, the multiset digest of
// the first n records after the warm-up cycle — what phases A and C
// appended.
func (s *store) digest(n uint64) oracle.Sum {
	cur := s.stream.Cursor(s.stream.Recs)
	for i := 0; i < s.rc.block; i++ {
		cur.Next()
	}
	var sum oracle.Sum
	for ; n > 0; n-- {
		r := cur.Next()
		sum.Add(&r)
	}
	return sum
}

// storeRun is what the three phases yield.
type storeRun struct {
	wall time.Duration // the three phases, without the untimed checks between them
	cpu  int64         // process CPU over the same

	appendWall   time.Duration // phase A, to Flush return
	appendLat    []int64       // phase A per-Append latency, ns, sorted
	diskBytes    uint64        // storage.tier.bytes_disk after phase A, compactor quiescent
	scanRates    []float64     // phase B per-scan records/s
	mixedScanned uint64        // phase C records scanned
	mixedWall    time.Duration
	mixedLat     []int64 // phase C: batch due -> Append returned, ns, sorted
	mixedCall    []int64 // phase C: the Append call alone, ns, sorted
	mixedLate    []int64 // phase C appender lateness per batch, ns, sorted
	mixedOffered uint64  // records the phase C schedule asked for
	mixedDone    uint64  // records the phase C appender got in
	scanned      uint64  // records all scans yielded, all phases
	failed       uint64
	backlog      uint64 // the part of failed the phase C appender fell short of its schedule by
}

// run executes phases A, B and C. Phases B and C each last 0.4 of the
// run length; phase A is fixed work.
func (s *store) run() (storeRun, error) {
	var res storeRun
	phase := time.Duration(float64(s.rc.seconds) * 0.4 * float64(time.Second))
	account := func(w *window) {
		w.stop()
		res.wall += w.wall
		res.cpu += w.cpu
	}

	// Phase A: append everything, sealing and compacting to files. The
	// compactor's tail is part of the phase's CPU but not of the append
	// rate, which stops at Flush's return.
	win := startWindow()
	res.appendLat = make([]int64, 0, s.records/storeBatch)
	if err := s.appendN(s.records, &res.appendLat); err != nil {
		return res, err
	}
	if err := s.tier.Flush(); err != nil {
		return res, err
	}
	res.appendWall = time.Since(win.t0)
	waitCompacted(s.tier)
	account(&win)
	res.diskBytes = uint64(s.reg.Snapshot().Value("storage.tier.bytes_disk"))
	appendedA := s.digest(uint64(s.records))

	// Untimed: one scan checked record by record against what phase A
	// appended. It also leaves the segment files in the page cache, as
	// every later scan finds them.
	check := new(oracle.Scan)
	if _, _, err := s.scan(storage.FilterAll(), storage.ScanOptions{}, check); err != nil {
		return res, err
	}
	res.failed += check.Finish(appendedA)

	// Phase B: repeated parallel full scans of the quiescent store,
	// checked by count.
	win = startWindow()
	for time.Since(win.t0) < phase || len(res.scanRates) == 0 {
		n, d, err := s.scan(storage.FilterAll(), storage.ScanOptions{}, nil)
		if err != nil {
			return res, err
		}
		res.scanned += n
		res.failed += absDiff(n, uint64(s.records))
		res.scanRates = append(res.scanRates, float64(n)/d.Seconds())
	}
	account(&win)

	// Phase C: full scans while an appender holds mixedRate.
	var wg sync.WaitGroup
	var stop atomic.Bool
	var appendErr error
	res.mixedLat = make([]int64, 0, maxSamples)
	res.mixedCall = make([]int64, 0, maxSamples)
	res.mixedLate = make([]int64, 0, maxSamples)
	win = startWindow()
	mixedStart := win.t0
	wg.Add(1)
	go func() {
		defer wg.Done()
		appendErr = s.pacedAppend(mixedStart, &stop, &res)
	}()
	for time.Since(mixedStart) < phase {
		lo := s.appended.Load()
		n, _, err := s.scan(storage.FilterAll(), storage.ScanOptions{}, nil)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return res, err
		}
		hi := s.appended.Load()
		if n < lo {
			res.failed += lo - n
		} else if n > hi {
			res.failed += n - hi
		}
		res.scanned += n
		res.mixedScanned += n
	}
	res.mixedWall = time.Since(mixedStart)
	stop.Store(true)
	wg.Wait()
	account(&win)
	if appendErr != nil {
		return res, appendErr
	}
	res.mixedOffered = uint64(res.mixedWall.Seconds() * mixedRate)
	if short := res.mixedOffered - min(res.mixedOffered, res.mixedDone); short > res.mixedOffered/100 {
		res.backlog = short
		res.failed += short
	}

	// Untimed: everything phases A and C appended reads back intact.
	if err := s.tier.Flush(); err != nil {
		return res, err
	}
	check = new(oracle.Scan)
	if _, _, err := s.scan(storage.FilterAll(), storage.ScanOptions{}, check); err != nil {
		return res, err
	}
	res.failed += check.Finish(s.digest(s.appended.Load()))
	sortInt64(res.appendLat)
	sortInt64(res.mixedLat)
	sortInt64(res.mixedCall)
	sortInt64(res.mixedLate)
	return res, nil
}

// pacedAppend appends storeBatch-record batches on a fixed schedule of
// mixedRate records per second until stop is set. Like the wired paced
// generator it sleeps between bursts and catches up, and records how
// late each batch went in.
func (s *store) pacedAppend(start time.Time, stop *atomic.Bool, res *storeRun) error {
	interval := time.Duration(float64(storeBatch) / mixedRate * float64(time.Second))
	for i := 0; !stop.Load(); {
		due := time.Duration(i) * interval
		now := time.Since(start)
		if now < due {
			time.Sleep(pacedTick)
			continue
		}
		s.batch = s.cur.Fill(s.batch[:0], storeBatch)
		t0 := time.Since(start)
		if err := s.target.Append(s.batch...); err != nil {
			return err
		}
		if len(res.mixedLat) < cap(res.mixedLat) {
			end := time.Since(start)
			res.mixedLat = append(res.mixedLat, int64(end-due))
			res.mixedCall = append(res.mixedCall, int64(end-t0))
			res.mixedLate = append(res.mixedLate, int64(now-due))
		}
		s.appended.Add(storeBatch)
		res.mixedDone += storeBatch
		i++
	}
	return nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// layerScans are the traced run's extra scan readings.
type layerScans struct {
	serial, ranged, source float64 // records/s
}

// layerScan measures the scan plane's serial baseline and its two
// push-down filters on the store as phase C left it.
func (s *store) layerScans() (layerScans, error) {
	var out layerScans
	total := s.appended.Load()
	n, d, err := s.scan(storage.FilterAll(), storage.ScanOptions{Parallel: 1}, nil)
	if err != nil {
		return out, err
	}
	if n != total {
		return out, fmt.Errorf("serial scan yielded %d of %d records", n, total)
	}
	out.serial = float64(n) / d.Seconds()

	// A window of one tenth of the stored Time range, placed by the
	// measurement-sampling partition.
	first := s.stream.Span // cycle 1 starts here
	length := int64(float64(total) / float64(s.rc.block) * float64(s.stream.Span))
	lo := first + int64(s.stream.Sample.Float64()*0.9*float64(length))
	n, d, err = s.scan(storage.FilterRange(lo, lo+length/10), storage.ScanOptions{}, nil)
	if err != nil {
		return out, err
	}
	out.ranged = float64(n) / d.Seconds()

	node := int32(s.stream.Sample.Intn(gen.Nodes))
	n, d, err = s.scan(storage.FilterSource(node), storage.ScanOptions{}, nil)
	if err != nil {
		return out, err
	}
	if n == 0 || n > total {
		return out, fmt.Errorf("source scan of node %d yielded %d of %d records", node, n, total)
	}
	out.source = float64(n) / d.Seconds()
	return out, nil
}

func (s *store) close() error {
	err := s.tier.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
