// Package storage implements the trace-data storage hierarchy of the
// paper's Figure 4: local LIS buffers feed a "main instrumentation
// data buffer" in host memory, which "in turn, may be flushed to the
// next level of the storage hierarchy, for example, a disk. The
// storage capacity is assumed to increase with each level."
package storage

// Tiered retention: the paper treats spill capacity as a first-class
// IS design parameter ("the storage capacity is assumed to increase
// with each level", §3.1). Tiered is that hierarchy made literal for
// production retention:
//
//	hot   — an in-memory window of the most recent records;
//	warm  — recently sealed columnar segments (memory or files);
//	cold  — background-compacted merges of aged warm segments,
//	        produced by a dedicated goroutine under a bounded I/O
//	        budget so compaction cannot steal the spill path's disk
//	        bandwidth.
//
// Records flow hot → warm → cold and are never lost: sealing moves the
// oldest hot run into one segment, compaction folds the oldest warm
// segments into one cold segment. Order is preserved end to end, so
// cold + warm + hot read back as the exact append-order stream — the
// property the trace-replay driver depends on.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// Tiered is a valid spill target for every flow stage.
var _ flow.Spill = (*Tiered)(nil)

// TieredConfig parameterizes a tiered store.
type TieredConfig struct {
	// HotCapacity is the in-memory hot window in records. When the
	// window fills, the oldest SegmentRecords records seal into a warm
	// segment. Zero means 1<<14.
	HotCapacity int
	// SegmentRecords is the seal granularity — records per warm
	// segment. Zero means 1<<13; it must not exceed HotCapacity.
	SegmentRecords int
	// WarmLimit is the number of warm segments that triggers a
	// compaction round folding them into one cold segment. Zero means
	// 8.
	WarmLimit int
	// Dir, when non-empty, stores segments as files (warm-NNNNNN.seg,
	// cold-NNNNNN.seg) under this directory; empty keeps segments in
	// memory.
	Dir string
	// CompactBudget bounds the compactor's I/O rate in bytes/second
	// (reads plus writes). Zero is unbounded.
	CompactBudget int64
	// Metrics, when non-nil, mirrors tier activity under the
	// "storage.tier" scope.
	Metrics *metrics.Registry
}

// TierStats summarizes tiered-store activity.
type TierStats struct {
	Appended      uint64 // records accepted
	Sealed        uint64 // records sealed into warm segments
	HotResident   int    // records currently in the hot window
	WarmSegments  int    // current warm segment count
	ColdSegments  int    // current cold segment count
	RecordsStored uint64 // records currently in warm+cold segments
	BytesStored   int64  // current warm+cold segment bytes
	BytesToDisk   uint64 // cumulative segment bytes written (seal + compact)
	Compactions   uint64 // completed compaction rounds
	Compacted     uint64 // warm segments folded into cold
	CompactErrors uint64 // failed compaction rounds (segments retained)
	ThrottleNs    int64  // cumulative compactor budget sleep
}

// tierMetrics is the optional registry-backed counter set.
type tierMetrics struct {
	appended, sealed, bytesDisk, compactions, compactErrors *metrics.Counter
	hotResident, warmSegments, coldSegments, bytesStored    *metrics.Gauge
}

// tierSegment is one sealed segment in the warm or cold tier.
type tierSegment struct {
	data       []byte // in-memory mode
	path       string // file mode
	bytes      int
	count      int
	minTime    int64
	maxTime    int64
	sources    []int32 // distinct nodes, ascending — the file-skip index
	compacting bool    // claimed by the in-flight compaction round

	// Scan pinning (file mode, guarded by Tiered.mu): pins counts live
	// scanner snapshots referencing this segment's file;
	// removeDeferred marks a compaction commit that wanted the file
	// gone while pinned — the last unpin performs the removal.
	pins           int
	removeDeferred bool
}

// overlaps mirrors trace.Segment.Overlaps at the tier index level.
func (ts *tierSegment) overlaps(minT, maxT int64) bool {
	return ts.count > 0 && ts.minTime <= maxT && ts.maxTime >= minT
}

func (ts *tierSegment) hasSource(node int32) bool {
	for _, n := range ts.sources {
		if n == node {
			return true
		}
		if n > node {
			return false
		}
	}
	return false
}

// Tiered is a hot/warm/cold trace store. It is safe for concurrent
// use; one background goroutine runs compaction.
type Tiered struct {
	cfg TieredConfig

	mu     sync.Mutex
	hot    []trace.Record
	warm   []*tierSegment
	cold   []*tierSegment
	seq    int // segment file name counter
	stats  TierStats
	m      *tierMetrics
	closed bool

	encBuf []byte // seal-path encode scratch (under mu)

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// compactor-goroutine-private scratch (no lock needed).
	compRecs []trace.Record
	compBuf  []byte
	compSeg  trace.Segment
}

// NewTiered creates and starts a tiered store.
func NewTiered(cfg TieredConfig) (*Tiered, error) {
	if cfg.HotCapacity <= 0 {
		cfg.HotCapacity = 1 << 14
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 1 << 13
	}
	if cfg.WarmLimit <= 0 {
		cfg.WarmLimit = 8
	}
	if cfg.SegmentRecords > cfg.HotCapacity {
		return nil, fmt.Errorf("storage: SegmentRecords %d exceeds HotCapacity %d", cfg.SegmentRecords, cfg.HotCapacity)
	}
	if cfg.CompactBudget < 0 {
		return nil, errors.New("storage: negative CompactBudget")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: tier directory: %w", err)
		}
	}
	seq, err := nextSegmentSeq(cfg.Dir)
	if err != nil {
		return nil, err
	}
	t := &Tiered{
		cfg:  cfg,
		seq:  seq,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s := cfg.Metrics.Scope("storage").Scope("tier")
		t.m = &tierMetrics{
			appended: s.Counter("appended"), sealed: s.Counter("sealed"),
			bytesDisk: s.Counter("bytes_disk"), compactions: s.Counter("compactions"),
			compactErrors: s.Counter("compact_errors"),
			hotResident:   s.Gauge("hot_resident"), warmSegments: s.Gauge("warm_segments"),
			coldSegments: s.Gauge("cold_segments"), bytesStored: s.Gauge("bytes_stored"),
		}
	}
	go t.compactLoop()
	return t, nil
}

// nextSegmentSeq returns the first segment number no file in dir uses:
// a store opened on a predecessor's directory names its segments past
// the predecessor's, since creating a segment truncates whatever held
// the name. It does not adopt what it finds.
func nextSegmentSeq(dir string) (int, error) {
	if dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("storage: tier directory: %w", err)
	}
	next := 0
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "warm-")
		if !ok {
			num, ok = strings.CutPrefix(e.Name(), "cold-")
		}
		if num, seg := strings.CutSuffix(num, ".seg"); ok && seg {
			if n, err := strconv.Atoi(num); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	return next, nil
}

// Append stores records — the flow.Spill entry point. The hot window
// absorbs them; overflow seals the oldest run into a warm segment.
func (t *Tiered) Append(rs ...trace.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("storage: tiered store closed")
	}
	t.hot = append(t.hot, rs...)
	t.stats.Appended += uint64(len(rs))
	if t.m != nil {
		t.m.appended.Add(uint64(len(rs)))
	}
	for len(t.hot) >= t.cfg.HotCapacity {
		if err := t.sealLocked(t.cfg.SegmentRecords); err != nil {
			return err
		}
	}
	t.publishLocked()
	return nil
}

// sealLocked encodes the oldest n hot records as one warm segment.
func (t *Tiered) sealLocked(n int) error {
	if n > len(t.hot) {
		n = len(t.hot)
	}
	if n == 0 {
		return nil
	}
	run := t.hot[:n]
	t.encBuf = trace.AppendSegment(t.encBuf[:0], run)
	seg := &tierSegment{bytes: len(t.encBuf), count: n}
	seg.minTime, seg.maxTime = run[0].Time, run[0].Time
	for i := range run {
		if tm := run[i].Time; tm < seg.minTime {
			seg.minTime = tm
		} else if tm > seg.maxTime {
			seg.maxTime = tm
		}
		node := run[i].Node
		found := false
		for _, s := range seg.sources {
			if s == node {
				found = true
				break
			}
		}
		if !found {
			seg.sources = append(seg.sources, node)
		}
	}
	sortInt32(seg.sources)
	if t.cfg.Dir != "" {
		seg.path = filepath.Join(t.cfg.Dir, fmt.Sprintf("warm-%06d.seg", t.seq))
		t.seq++
		if err := writeSegmentFile(seg.path, t.encBuf); err != nil {
			return err
		}
	} else {
		seg.data = append([]byte(nil), t.encBuf...)
	}
	m := copy(t.hot, t.hot[n:])
	t.hot = t.hot[:m]
	t.warm = append(t.warm, seg)
	t.stats.Sealed += uint64(n)
	t.stats.BytesToDisk += uint64(seg.bytes)
	if t.m != nil {
		t.m.sealed.Add(uint64(n))
		t.m.bytesDisk.Add(uint64(seg.bytes))
	}
	if t.eligibleLocked() >= t.cfg.WarmLimit {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// writeSegmentFile writes one segment to its own file, reporting the
// torn-write position on failure.
func writeSegmentFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: seal %s: %w", path, err)
	}
	n, err := f.Write(data)
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: seal %s: segment torn after %d of %d bytes: %w", path, n, len(data), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: seal %s: %w", path, err)
	}
	return nil
}

// sortInt32 insertion-sorts the (short) per-segment source list.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// eligibleLocked counts warm segments not claimed by the compactor.
func (t *Tiered) eligibleLocked() int {
	n := 0
	for _, s := range t.warm {
		if !s.compacting {
			n++
		}
	}
	return n
}

// publishLocked refreshes the gauge-backed stats.
func (t *Tiered) publishLocked() {
	t.stats.HotResident = len(t.hot)
	t.stats.WarmSegments = len(t.warm)
	t.stats.ColdSegments = len(t.cold)
	var bytes int64
	var recs uint64
	for _, s := range t.warm {
		bytes += int64(s.bytes)
		recs += uint64(s.count)
	}
	for _, s := range t.cold {
		bytes += int64(s.bytes)
		recs += uint64(s.count)
	}
	t.stats.BytesStored = bytes
	t.stats.RecordsStored = recs
	if t.m != nil {
		t.m.hotResident.Set(int64(len(t.hot)))
		t.m.warmSegments.Set(int64(len(t.warm)))
		t.m.coldSegments.Set(int64(len(t.cold)))
		t.m.bytesStored.Set(bytes)
	}
}

// compactLoop is the dedicated compaction goroutine: it waits for the
// warm tier to age past WarmLimit, then folds rounds until the backlog
// clears or a round fails. A failed round waits for the next seal's
// kick: retrying at once would re-read every claimed file in a hot
// loop while the fault persists.
func (t *Tiered) compactLoop() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case <-t.kick:
		}
		for t.compactOnce() {
			select {
			case <-t.stop:
				return
			default:
			}
		}
	}
}

// compactOnce folds the oldest WarmLimit warm segments into one cold
// segment. It claims the segments under the lock, performs the
// decode/merge/encode I/O outside it under the byte budget, then
// commits the swap. It reports whether a round ran and committed.
func (t *Tiered) compactOnce() bool {
	t.mu.Lock()
	if t.eligibleLocked() < t.cfg.WarmLimit {
		t.mu.Unlock()
		return false
	}
	claimed := make([]*tierSegment, t.cfg.WarmLimit)
	copy(claimed, t.warm[:t.cfg.WarmLimit])
	for _, s := range claimed {
		s.compacting = true
	}
	t.mu.Unlock()

	// Decode every claimed segment, oldest first, outside the lock.
	// Claimed segments are immutable: sealing only appends to the warm
	// tail, and commit below is the only remover.
	t.compRecs = t.compRecs[:0]
	var readBytes int
	fail := func(err error) bool {
		t.mu.Lock()
		for _, s := range claimed {
			s.compacting = false
		}
		t.stats.CompactErrors++
		if t.m != nil {
			t.m.compactErrors.Inc()
		}
		t.mu.Unlock()
		_ = err // retained in stats; the next kick retries
		return false
	}
	for _, s := range claimed {
		data := s.data
		if s.path != "" {
			var err error
			data, err = os.ReadFile(s.path)
			if err != nil {
				return fail(err)
			}
		}
		if _, err := t.compSeg.Parse(data); err != nil {
			return fail(fmt.Errorf("compact %s: %w", s.path, err))
		}
		var err error
		t.compRecs, err = t.compSeg.AppendRecords(t.compRecs)
		if err != nil {
			return fail(fmt.Errorf("compact %s: %w", s.path, err))
		}
		readBytes += len(data)
		t.throttle(len(data))
	}
	t.compBuf = trace.AppendSegment(t.compBuf[:0], t.compRecs)
	cold := &tierSegment{bytes: len(t.compBuf), count: len(t.compRecs)}
	cold.minTime, cold.maxTime = claimed[0].minTime, claimed[0].maxTime
	for _, s := range claimed {
		if s.minTime < cold.minTime {
			cold.minTime = s.minTime
		}
		if s.maxTime > cold.maxTime {
			cold.maxTime = s.maxTime
		}
		for _, n := range s.sources {
			if !cold.hasSource(n) {
				cold.sources = append(cold.sources, n)
				sortInt32(cold.sources)
			}
		}
	}
	if t.cfg.Dir != "" {
		t.mu.Lock()
		cold.path = filepath.Join(t.cfg.Dir, fmt.Sprintf("cold-%06d.seg", t.seq))
		t.seq++
		t.mu.Unlock()
		if err := writeSegmentFile(cold.path, t.compBuf); err != nil {
			return fail(err)
		}
	} else {
		cold.data = append([]byte(nil), t.compBuf...)
	}
	t.throttle(len(t.compBuf))

	// Commit: the claimed prefix leaves warm, the merged segment joins
	// the cold tail. Readers hold the same lock, so they see either
	// the old view or the new one — never a torn mix.
	t.mu.Lock()
	t.warm = append(t.warm[:0], t.warm[len(claimed):]...)
	t.cold = append(t.cold, cold)
	t.stats.Compactions++
	t.stats.Compacted += uint64(len(claimed))
	t.stats.BytesToDisk += uint64(cold.bytes)
	if t.m != nil {
		t.m.compactions.Inc()
		t.m.bytesDisk.Add(uint64(cold.bytes))
	}
	for _, s := range claimed {
		if s.path != "" {
			if s.pins > 0 {
				// A scanner snapshot is still reading this file; the
				// last unpin removes it.
				s.removeDeferred = true
			} else {
				_ = os.Remove(s.path)
			}
		}
	}
	t.publishLocked()
	t.mu.Unlock()
	return true
}

// throttle sleeps long enough to keep the compactor's I/O under the
// configured budget.
func (t *Tiered) throttle(n int) {
	if t.cfg.CompactBudget <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(t.cfg.CompactBudget) * float64(time.Second))
	t.mu.Lock()
	t.stats.ThrottleNs += int64(d)
	t.mu.Unlock()
	select {
	case <-time.After(d):
	case <-t.stop:
	}
}

// Flush seals the entire hot window into a final (possibly short) warm
// segment, making every appended record durable in segment form.
func (t *Tiered) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.hot) > 0 {
		if err := t.sealLocked(t.cfg.SegmentRecords); err != nil {
			return err
		}
	}
	t.publishLocked()
	return nil
}

// Stats returns an activity snapshot.
func (t *Tiered) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publishLocked()
	return t.stats
}

// Close flushes the hot window and stops the compactor. Scans remain
// valid after Close; appends fail.
func (t *Tiered) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return nil
	}
	t.closed = true
	var err error
	for len(t.hot) > 0 && err == nil {
		err = t.sealLocked(t.cfg.SegmentRecords)
	}
	t.publishLocked()
	t.mu.Unlock()
	close(t.stop)
	<-t.done
	return err
}
