package main

// Replay mode: -replay re-emits a captured trace (spool or segment
// file, or Tiered segment directory) through the node's buffered LIS
// over its real ISM session — the full LIS→TP→ISM wire path, not a
// shortcut — with the capture's original timing, scaled by -speed, or
// as a max-speed firehose at -speed 0. Captured production traffic
// becomes a deterministic, repeatable load test: an ordered ISM on the
// far side reconstructs the byte-identical merged trace.
//
// The replay is one node on the wire, the -node the session speaks
// for: the manager's session table sequences batches per wire node, so
// one session cannot carry several. Each record keeps the node it was
// captured on, which is what the ordering and the spool read.

import (
	"prism/internal/isruntime/lis"
	"prism/internal/trace"
	"prism/internal/workload"
)

// runReplay drives one full replay of recs through server, in batches
// of at most batchCap records, until the capture ends or stop closes.
// Each record's Logical field is restamped with a fresh per-source
// capture sequence, so the far ISM treats the replay exactly like live
// sources. Every emitted run is flushed at once: the pacing holds it
// back until its due time, so it must not wait in the buffer after.
func runReplay(server lis.LIS, batchCap int, recs []trace.Record, speed float64, stop <-chan struct{}) (workload.ReplayStats, error) {
	return workload.Replay(recs, workload.ReplayConfig{
		Speed:      speed,
		MaxBatch:   batchCap,
		Resequence: true,
		Emit: func(_ int32, batch []trace.Record) error {
			for _, r := range batch {
				server.Capture(r)
			}
			return server.Flush()
		},
		Stop: stop,
	})
}
