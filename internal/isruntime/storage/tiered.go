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
//	warm  — the sealed columnar segments of the open tier file;
//	cold  — the segments of closed tier files.
//
// Records flow hot → warm → cold and are never lost or rewritten: a
// seal encodes the oldest hot run as one segment and appends it to the
// open tier file, which is closed after WarmLimit segments, so every
// record reaches the disk once. Order is preserved end to end, so
// cold + warm + hot read back as the exact append-order stream — the
// property the trace-replay driver depends on.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	// SegmentRecords is the seal granularity — records per segment.
	// Zero means 1<<13, or HotCapacity if that is smaller; it must not
	// exceed HotCapacity.
	SegmentRecords int
	// WarmLimit is the number of segments per tier file: after
	// WarmLimit seals the file is closed and its segments turn cold.
	// Zero means 8.
	WarmLimit int
	// Dir, when non-empty, appends segments to tier files
	// (tier-NNNNNN.seg) under this directory; empty keeps segments in
	// memory.
	Dir string
	// Metrics, when non-nil, mirrors tier activity under the
	// "storage.tier" scope.
	Metrics *metrics.Registry
}

// TierStats summarizes tiered-store activity.
type TierStats struct {
	Appended      uint64 // records accepted
	Sealed        uint64 // records sealed into segments
	HotResident   int    // records currently in the hot window
	WarmSegments  int    // segments in the open tier file
	ColdSegments  int    // segments in closed tier files
	RecordsStored uint64 // records currently in segments
	BytesStored   int64  // current segment bytes
	BytesToDisk   uint64 // cumulative segment bytes written
}

// tierMetrics is the optional registry-backed counter set.
type tierMetrics struct {
	appended, sealed, bytesDisk                          *metrics.Counter
	hotResident, warmSegments, coldSegments, bytesStored *metrics.Gauge
}

// tierSegment is one sealed segment: where its bytes live, plus the
// tier index taken from the segment's own footer.
type tierSegment struct {
	segRef
	minTime int64
	maxTime int64
	sources []int32 // distinct nodes, ascending — the segment-skip index
}

// overlaps mirrors trace.Segment.Overlaps at the tier index level.
func (ts *tierSegment) overlaps(minT, maxT int64) bool {
	return ts.count > 0 && ts.minTime <= maxT && ts.maxTime >= minT
}

func (ts *tierSegment) hasSource(node int32) bool {
	_, ok := slices.BinarySearch(ts.sources, node)
	return ok
}

// Tiered is a hot/warm/cold trace store. It is safe for concurrent
// use and runs no goroutine of its own.
type Tiered struct {
	cfg TieredConfig

	mu     sync.Mutex
	hot    []trace.Record
	segs   []tierSegment // every sealed segment, cold then warm
	warm   int           // trailing segs in the open tier file
	seq    int           // tier file name counter
	stats  TierStats
	m      *tierMetrics
	closed bool

	// The open tier file (file mode); nil until the first seal after a
	// rotation. logOff is its length: where the next segment goes.
	logFile *os.File
	logPath string
	logOff  int64

	encBuf []byte        // seal-path encode scratch (under mu)
	encSeg trace.Segment // seal-path footer parse (under mu)
}

// NewTiered creates a tiered store.
func NewTiered(cfg TieredConfig) (*Tiered, error) {
	if cfg.HotCapacity <= 0 {
		cfg.HotCapacity = 1 << 14
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = min(1<<13, cfg.HotCapacity)
	}
	if cfg.WarmLimit <= 0 {
		cfg.WarmLimit = 8
	}
	if cfg.SegmentRecords > cfg.HotCapacity {
		return nil, fmt.Errorf("storage: SegmentRecords %d exceeds HotCapacity %d", cfg.SegmentRecords, cfg.HotCapacity)
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
	t := &Tiered{cfg: cfg, seq: seq}
	if cfg.Metrics != nil {
		s := cfg.Metrics.Scope("storage").Scope("tier")
		t.m = &tierMetrics{
			appended: s.Counter("appended"), sealed: s.Counter("sealed"),
			bytesDisk:   s.Counter("bytes_disk"),
			hotResident: s.Gauge("hot_resident"), warmSegments: s.Gauge("warm_segments"),
			coldSegments: s.Gauge("cold_segments"), bytesStored: s.Gauge("bytes_stored"),
		}
	}
	return t, nil
}

// nextSegmentSeq returns the first tier file number no file in dir
// uses: a store opened on a predecessor's directory names its files
// past the predecessor's and never appends to one. It does not adopt
// what it finds.
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
		num, ok := strings.CutPrefix(e.Name(), "tier-")
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

// sealLocked encodes the oldest n hot records as one segment and
// appends it to the open tier file. The records leave the hot window
// only once the segment is written; after WarmLimit segments the file
// is closed and its segments turn cold.
func (t *Tiered) sealLocked(n int) error {
	n = min(n, len(t.hot))
	if n == 0 {
		return nil
	}
	t.encBuf = trace.AppendSegment(t.encBuf[:0], t.hot[:n])
	if _, err := t.encSeg.Parse(t.encBuf); err != nil {
		return fmt.Errorf("storage: seal: %w", err)
	}
	seg := tierSegment{
		segRef:  segRef{size: len(t.encBuf), count: n},
		minTime: t.encSeg.MinTime(),
		maxTime: t.encSeg.MaxTime(),
		sources: make([]int32, len(t.encSeg.Sources())),
	}
	for i, s := range t.encSeg.Sources() {
		seg.sources[i] = s.Node
	}
	if t.cfg.Dir == "" {
		seg.data = append([]byte(nil), t.encBuf...)
	} else if err := t.appendLocked(&seg.segRef); err != nil {
		return err
	}
	m := copy(t.hot, t.hot[n:])
	t.hot = t.hot[:m]
	t.segs = append(t.segs, seg)
	t.stats.Sealed += uint64(n)
	t.stats.BytesToDisk += uint64(seg.size)
	if t.m != nil {
		t.m.sealed.Add(uint64(n))
		t.m.bytesDisk.Add(uint64(seg.size))
	}
	if t.warm++; t.warm < t.cfg.WarmLimit {
		return nil
	}
	t.warm = 0
	return t.closeLogLocked()
}

// appendLocked appends the encoded segment in encBuf to the open tier
// file, creating the next file after a rotation, and records where it
// landed in ref. A failed or short write is truncated away, so a tier
// file never holds a torn segment.
func (t *Tiered) appendLocked(ref *segRef) error {
	if t.logFile == nil {
		path := filepath.Join(t.cfg.Dir, fmt.Sprintf("tier-%06d.seg", t.seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("storage: seal: %w", err)
		}
		t.seq++
		t.logFile, t.logPath, t.logOff = f, path, 0
	}
	if _, err := t.logFile.Write(t.encBuf); err != nil {
		err = fmt.Errorf("storage: seal %s at offset %d: %w", t.logPath, t.logOff, err)
		if terr := os.Truncate(t.logPath, t.logOff); terr != nil {
			err = errors.Join(err, fmt.Errorf("storage: torn segment left in %s: %w", t.logPath, terr))
		}
		return err
	}
	ref.path, ref.off = t.logPath, t.logOff
	t.logOff += int64(len(t.encBuf))
	return nil
}

// closeLogLocked closes the open tier file, if any; the next seal
// starts a new one.
func (t *Tiered) closeLogLocked() error {
	if t.logFile == nil {
		return nil
	}
	err := t.logFile.Close()
	t.logFile = nil
	if err != nil {
		return fmt.Errorf("storage: close %s: %w", t.logPath, err)
	}
	return nil
}

// publishLocked refreshes the gauge-backed stats from counts kept at
// seal time. Nothing is removed while the store lives, so what it
// holds in segments is what it sealed.
func (t *Tiered) publishLocked() {
	t.stats.HotResident = len(t.hot)
	t.stats.WarmSegments = t.warm
	t.stats.ColdSegments = len(t.segs) - t.warm
	t.stats.RecordsStored = t.stats.Sealed
	t.stats.BytesStored = int64(t.stats.BytesToDisk)
	if t.m != nil {
		t.m.hotResident.Set(int64(len(t.hot)))
		t.m.warmSegments.Set(int64(t.warm))
		t.m.coldSegments.Set(int64(len(t.segs) - t.warm))
		t.m.bytesStored.Set(t.stats.BytesStored)
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

// Close flushes the hot window and closes the open tier file. Scans
// remain valid after Close; appends fail.
func (t *Tiered) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var err error
	for len(t.hot) > 0 && err == nil {
		err = t.sealLocked(t.cfg.SegmentRecords)
	}
	t.publishLocked()
	return errors.Join(err, t.closeLogLocked())
}
