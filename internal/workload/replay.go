package workload

// Trace replay: captured traffic as a workload. A spool written by a
// previous run (or a Tiered segment directory) is re-emitted through
// whatever transport the caller wires into Emit, either with the
// original inter-record timing (scaled by Speed) or as a max-speed
// firehose. Replay preserves the exact global interleaving of the
// capture: records are emitted in stream order, chunked into maximal
// same-node runs so per-node LISes never reorder across sources, and
// (with Resequence) restamped with fresh per-source capture sequences
// so an ordered ISM reconstructs the identical merged trace. This is
// ROADMAP item 3's replay half and the paper's evaluate-under-known-
// load methodology: the same captured workload, byte for byte, run
// after run.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/storage"
	"prism/internal/trace"
)

// ErrReplayStopped is returned when a replay ends early because its
// Stop channel closed.
var ErrReplayStopped = errors.New("workload: replay stopped")

// ReplayConfig configures one Replay run.
type ReplayConfig struct {
	// Speed scales the capture's original timing: 1 replays in real
	// time, 2 twice as fast, 0.5 half speed. Zero (or negative) is the
	// firehose: no pacing at all, records go out as fast as Emit
	// accepts them.
	Speed float64
	// MaxBatch caps the records per Emit call. Zero means 256.
	MaxBatch int
	// Resequence restamps each record's Logical field with a fresh
	// per-(Node, Process) capture sequence counting from zero, in
	// stream order — what an ordered ISM expects from live sources.
	// Without it records carry their captured Logical values.
	Resequence bool
	// Emit delivers one maximal same-node run of at most MaxBatch
	// records. The batch is reused between calls; implementations must
	// not retain it after returning. A non-nil error aborts the
	// replay.
	Emit func(node int32, batch []trace.Record) error
	// Stop, when non-nil, aborts the replay (with ErrReplayStopped)
	// as soon as its close is observed.
	Stop <-chan struct{}
	// Now and Sleep override the real clock for tests; nil means
	// time.Now and time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// ReplayStats summarizes a replay run.
type ReplayStats struct {
	Records uint64
	Batches uint64        // Emit calls
	Sources int           // distinct (Node, Process) pairs seen
	Wall    time.Duration // total replay duration
	MaxLag  time.Duration // worst schedule slip while pacing (0 for firehose)
}

// Replay re-emits recs in stream order through cfg.Emit. Capture
// timestamps are nanoseconds (the runtime clock), so with Speed 1 the
// gap between two emitted runs matches the gap between their first
// records at capture time; a run is never split across a pacing wait.
func Replay(recs []trace.Record, cfg ReplayConfig) (st ReplayStats, err error) {
	if cfg.Emit == nil {
		return st, errors.New("workload: replay needs an Emit function")
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 256
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	stopped := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}

	var seqs map[trace.SourceKey]uint64
	if cfg.Resequence {
		seqs = make(map[trace.SourceKey]uint64)
	}
	sources := make(map[trace.SourceKey]struct{})
	batch := make([]trace.Record, 0, maxBatch)
	start := now()
	defer func() { st.Wall = now().Sub(start) }()

	var t0 int64
	if len(recs) > 0 {
		t0 = recs[0].Time
	}
	// When pacing, a run also breaks at a capture gap that maps to
	// more than a millisecond of wall time: pacing happens per run, so
	// the gap cap bounds each batch's schedule error. The firehose
	// never splits on time.
	maxGap := int64(math.MaxInt64)
	if cfg.Speed > 0 {
		if g := float64(time.Millisecond) * cfg.Speed; g < math.MaxInt64/2 {
			maxGap = int64(g)
		}
	}
	for i := 0; i < len(recs); {
		// The run: consecutive records from one node, capped at
		// maxBatch. Emitting runs whole preserves the capture's
		// cross-source interleaving through per-node transports.
		node := recs[i].Node
		j := i + 1
		for j < len(recs) && j-i < maxBatch && recs[j].Node == node &&
			recs[j].Time-recs[i].Time <= maxGap {
			j++
		}
		if cfg.Speed > 0 {
			target := time.Duration(float64(recs[i].Time-t0) / cfg.Speed)
			for {
				ahead := target - now().Sub(start)
				if ahead <= 0 {
					if lag := -ahead; lag > st.MaxLag {
						st.MaxLag = lag
					}
					break
				}
				if stopped() {
					return st, ErrReplayStopped
				}
				// Sleep in bounded slices so a close of Stop is
				// observed promptly even across long capture gaps.
				if ahead > 50*time.Millisecond {
					ahead = 50 * time.Millisecond
				}
				sleep(ahead)
			}
		} else if stopped() {
			return st, ErrReplayStopped
		}
		batch = batch[:0]
		for k := i; k < j; k++ {
			r := recs[k]
			key := trace.SourceKey{Node: r.Node, Process: r.Process}
			sources[key] = struct{}{}
			if cfg.Resequence {
				r.Logical = seqs[key]
				seqs[key]++
			}
			batch = append(batch, r)
		}
		if err := cfg.Emit(node, batch); err != nil {
			return st, fmt.Errorf("workload: replay emit: %w", err)
		}
		st.Records += uint64(j - i)
		st.Batches++
		st.Sources = len(sources)
		i = j
	}
	st.Sources = len(sources)
	return st, nil
}

// LoadCapture loads a captured trace for replay through the parallel
// scan plane: a directory as a Tiered segment directory (cold then
// warm, oldest first), a file as a segment stream — a manager's spool
// or any other concatenation of segments.
func LoadCapture(path string) ([]trace.Record, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("workload: load capture: %w", err)
	}
	var sc *storage.Scanner
	if fi.IsDir() {
		sc, err = storage.ScanDir(path, storage.FilterAll(), storage.ScanOptions{})
	} else {
		sc, err = storage.ScanFiles([]string{path}, storage.FilterAll(), storage.ScanOptions{})
	}
	if err != nil {
		return nil, fmt.Errorf("workload: load capture: %w", err)
	}
	return collectScan(sc)
}

func collectScan(sc *storage.Scanner) ([]trace.Record, error) {
	defer sc.Close()
	var out []trace.Record
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b...)
		flow.PutBatch(b)
	}
}
