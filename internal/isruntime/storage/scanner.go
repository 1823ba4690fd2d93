package storage

// The scan plane. Tiered's write path is sharded, batch-granular, and
// columnar; Scanner gives the read path the same shape. A scan
// snapshots segment *references* under the tier lock (slice headers,
// paths, footer-index fields — never column bytes), then a bounded
// worker pool decodes segments outside the lock, in parallel, with the
// footer index applied before any column is touched. Results stream
// back in strict append order through a flow.Reorder window as pooled
// flow batches, so a full-store scan holds the lock only for the
// snapshot, runs one segment per core, and allocates nothing per batch
// at steady state.
//
// Invariants the plane relies on:
//
//   - sealed segments are immutable: a seal appends a segment to the
//     open tier file (or a fresh slice) and references it only after
//     its write returned, and nothing removes or rewrites a file while
//     the store lives, so a snapshotted ref stays valid forever;
//   - the hot window is mutable (sealing shifts it in place), so the
//     snapshot copies matching hot records into a pooled batch under
//     the lock and emits them after the last segment.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"prism/internal/isruntime/flow"
	"prism/internal/trace"
)

// ScanFilter selects which records a scan yields. The zero value
// matches everything; FilterRange and FilterSource additionally let
// the segment footer index veto whole segments before decode.
type ScanFilter struct {
	kind       filterKind
	minT, maxT int64
	node       int32
}

type filterKind uint8

const (
	filterAll filterKind = iota
	filterRange
	filterSource
)

// FilterAll matches every record.
func FilterAll() ScanFilter { return ScanFilter{} }

// FilterRange matches records with capture time in [minT, maxT].
func FilterRange(minT, maxT int64) ScanFilter {
	return ScanFilter{kind: filterRange, minT: minT, maxT: maxT}
}

// FilterSource matches records contributed by node.
func FilterSource(node int32) ScanFilter {
	return ScanFilter{kind: filterSource, node: node}
}

// skipSeg reports whether the tier index proves a segment holds no
// matching records.
func (f ScanFilter) skipSeg(ts *tierSegment) bool {
	switch f.kind {
	case filterRange:
		return !ts.overlaps(f.minT, f.maxT)
	case filterSource:
		return !ts.hasSource(f.node)
	}
	return false
}

// matches tests one record — the hot window has no index.
func (f ScanFilter) matches(r *trace.Record) bool {
	switch f.kind {
	case filterRange:
		return r.Time >= f.minT && r.Time <= f.maxT
	case filterSource:
		return r.Node == f.node
	}
	return true
}

// appendSeg decodes a parsed segment through the filter's pushdown
// path.
func (f ScanFilter) appendSeg(seg *trace.Segment, dst []trace.Record) ([]trace.Record, error) {
	switch f.kind {
	case filterRange:
		return seg.AppendRange(dst, f.minT, f.maxT)
	case filterSource:
		return seg.AppendSource(dst, f.node)
	}
	return seg.AppendRecords(dst)
}

// ScanOptions tunes the scanner's decode pool.
type ScanOptions struct {
	// Parallel is the decode worker count. Zero means GOMAXPROCS; the
	// pool never exceeds the segment count.
	Parallel int
	// Window is the reorder window in segments — how far past the
	// consumer's position workers may decode ahead. Zero means
	// 2×Parallel.
	Window int
}

// segRef is one snapshotted segment: where its bytes live plus the
// sizing the decode worker needs. It never aliases mutable tier state.
type segRef struct {
	data  []byte // in-memory segment; nil in file mode
	path  string
	off   int64 // segment offset within path
	size  int   // encoded bytes
	count int   // record count, for batch sizing
}

type scanResult struct {
	batch flow.Batch
	err   error
}

var errScannerClosed = errors.New("storage: scanner closed")

// Scanner is a streaming, order-preserving cursor over a snapshot of
// segments plus an optional hot-window tail. One goroutine consumes it
// (Next/Close); the decode pool runs internally. Every scanner must be
// Closed, including after Next returned io.EOF or an error.
type Scanner struct {
	refs   []segRef
	filter ScanFilter
	hot    flow.Batch // pre-filtered hot copy; emitted last, nil when absent
	win    *flow.Reorder[scanResult]
	bufLen int // largest file-mode segment: each worker's read buffer
	wg     sync.WaitGroup

	// consumer-side state, single-goroutine by contract.
	err    error
	closed bool
}

func newScanner(refs []segRef, hot flow.Batch, f ScanFilter, opts ScanOptions) *Scanner {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(refs) {
		workers = len(refs)
	}
	window := opts.Window
	if window <= 0 {
		window = 2 * workers
	}
	if window < 1 {
		window = 1
	}
	s := &Scanner{
		refs:   refs,
		filter: f,
		hot:    hot,
		win:    flow.NewReorder[scanResult](window, len(refs)),
	}
	for i := range refs {
		if refs[i].data == nil {
			s.bufLen = max(s.bufLen, refs[i].size)
		}
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker claims segment indexes from the reorder window, decodes them
// unlocked, and delivers the batches. Decode scratch (segment view,
// file handle, read buffer) is per-worker and reused across segments;
// the read buffer is sized once, to the snapshot's largest file-mode
// segment, so a scan allocates it once per worker whatever its length.
func (s *Scanner) worker() {
	defer s.wg.Done()
	var (
		seg   trace.Segment
		fbuf  = make([]byte, s.bufLen)
		f     *os.File
		fpath string
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for {
		i, ok := s.win.Claim()
		if !ok {
			return
		}
		batch, err := s.decode(&s.refs[i], &seg, fbuf, &f, &fpath)
		if !s.win.Put(i, scanResult{batch: batch, err: err}) {
			flow.PutBatch(batch)
			return
		}
	}
}

func (s *Scanner) decode(ref *segRef, seg *trace.Segment, fbuf []byte, f **os.File, fpath *string) (flow.Batch, error) {
	data := ref.data
	if data == nil {
		if *f == nil || *fpath != ref.path {
			if *f != nil {
				(*f).Close()
				*f = nil
			}
			nf, err := os.Open(ref.path)
			if err != nil {
				return nil, fmt.Errorf("storage: read %s: %w", ref.path, err)
			}
			*f, *fpath = nf, ref.path
		}
		data = fbuf[:ref.size]
		if _, err := (*f).ReadAt(data, ref.off); err != nil {
			return nil, fmt.Errorf("storage: read %s: %w", ref.path, err)
		}
	}
	if _, err := seg.Parse(data); err != nil {
		return nil, fmt.Errorf("storage: segment %s: %w", ref.path, err)
	}
	// Pushdown against the parsed footer. Tier scans already skipped
	// via the tier index; standalone-file scans have only this.
	switch s.filter.kind {
	case filterRange:
		if !seg.Overlaps(s.filter.minT, s.filter.maxT) {
			return nil, nil
		}
	case filterSource:
		if !seg.HasSource(s.filter.node) {
			return nil, nil
		}
	}
	batch := flow.GetBatch(seg.Count())
	batch, err := s.filter.appendSeg(seg, batch)
	if err != nil {
		flow.PutBatch(batch)
		return nil, fmt.Errorf("storage: segment %s: %w", ref.path, err)
	}
	return batch, nil
}

// Next returns the next non-empty batch of matching records in append
// order. The caller owns the batch and should recycle it with
// flow.PutBatch. io.EOF signals a clean end of stream; any other error
// is sticky. Close is still required after either.
func (s *Scanner) Next() (flow.Batch, error) {
	if s.closed {
		return nil, errScannerClosed
	}
	if s.err != nil {
		return nil, s.err
	}
	for {
		res, ok := s.win.Next()
		if !ok {
			break
		}
		if res.err != nil {
			s.err = res.err
			s.shutdown()
			return nil, res.err
		}
		if len(res.batch) == 0 {
			flow.PutBatch(res.batch)
			continue
		}
		return res.batch, nil
	}
	if h := s.hot; h != nil {
		s.hot = nil
		if len(h) > 0 {
			return h, nil
		}
		flow.PutBatch(h)
	}
	return nil, io.EOF
}

// Close stops the decode pool and recycles undelivered batches.
// Idempotent.
func (s *Scanner) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.shutdown()
}

func (s *Scanner) shutdown() {
	s.win.Close(func(r scanResult) { flow.PutBatch(r.batch) })
	s.wg.Wait()
	if s.hot != nil {
		flow.PutBatch(s.hot)
		s.hot = nil
	}
}

// Scan returns a streaming scanner over a consistent snapshot of the
// store: every segment present at call time plus a copy of the hot
// window, in append order (cold, warm, hot). The snapshot is taken
// under the lock; all decode work happens outside it, so appends and
// sealing proceed while the scan runs.
func (t *Tiered) Scan(f ScanFilter, opts ScanOptions) *Scanner {
	t.mu.Lock()
	refs := make([]segRef, 0, len(t.segs))
	for i := range t.segs {
		if ts := &t.segs[i]; !f.skipSeg(ts) {
			refs = append(refs, ts.segRef)
		}
	}
	hot := flow.GetBatch(len(t.hot))
	for i := range t.hot {
		if f.matches(&t.hot[i]) {
			hot = append(hot, t.hot[i])
		}
	}
	t.mu.Unlock()
	return newScanner(refs, hot, f, opts)
}

// ScanFiles streams the segments stored in the given files (each a
// concatenation of one or more trace.AppendSegment encodings, such as
// a Tiered directory's files) in argument order. Framing reads only the
// 16-byte header per segment; decode is deferred to the scan workers,
// so pushdown skips unmatching segments without reading their columns.
// A torn tail — stray bytes too short for a header, or a segment that
// runs past the end of its file — fails with trace.ErrBadSegment.
func ScanFiles(paths []string, f ScanFilter, opts ScanOptions) (*Scanner, error) {
	var refs []segRef
	var hdr [trace.SegmentHeaderSize]byte
	for _, path := range paths {
		fd, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("storage: scan %s: %w", path, err)
		}
		st, err := fd.Stat()
		if err != nil {
			fd.Close()
			return nil, fmt.Errorf("storage: scan %s: %w", path, err)
		}
		size := st.Size()
		var off int64
		for off < size {
			if size-off < trace.SegmentHeaderSize {
				fd.Close()
				return nil, fmt.Errorf("storage: scan %s at %d: %w: %d stray bytes, too few for a segment header",
					path, off, trace.ErrBadSegment, size-off)
			}
			if _, err := fd.ReadAt(hdr[:], off); err != nil {
				fd.Close()
				return nil, fmt.Errorf("storage: scan %s at %d: %w", path, off, err)
			}
			count, segLen, err := trace.ParseSegmentHeader(hdr[:])
			if err != nil {
				fd.Close()
				return nil, fmt.Errorf("storage: scan %s at %d: %w", path, off, err)
			}
			if off+int64(segLen) > size {
				fd.Close()
				return nil, fmt.Errorf("storage: scan %s at %d: %w: segment of %d bytes runs past end of file",
					path, off, trace.ErrBadSegment, segLen)
			}
			refs = append(refs, segRef{path: path, off: off, size: segLen, count: count})
			off += int64(segLen)
		}
		fd.Close()
	}
	return newScanner(refs, nil, f, opts), nil
}

// ScanDir streams every *.seg file under dir in tier append order.
func ScanDir(dir string, f ScanFilter, opts ScanOptions) (*Scanner, error) {
	paths, err := SegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	return ScanFiles(paths, f, opts)
}

// SegmentFiles lists dir's *.seg files in tier append order. The
// cold- and warm- files of stores that compacted (cold first, then
// warm) precede every other segment file, tier-NNNNNN.seg among them;
// each group sorts lexically, which the zero-padded sequence number
// embedded in tier names makes age order.
func SegmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: scan %s: %w", dir, err)
	}
	var cold, warm, other []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		switch {
		case strings.HasPrefix(name, "cold-"):
			cold = append(cold, name)
		case strings.HasPrefix(name, "warm-"):
			warm = append(warm, name)
		default:
			other = append(other, name)
		}
	}
	var paths []string
	for _, group := range [][]string{cold, warm, other} {
		sort.Strings(group)
		for _, n := range group {
			paths = append(paths, filepath.Join(dir, n))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("storage: no .seg files in %s", dir)
	}
	return paths, nil
}
