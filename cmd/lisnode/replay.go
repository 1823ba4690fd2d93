package main

// Replay mode: -replay re-emits a captured trace (spool or segment
// file, or Tiered segment directory) through per-node buffered LISes
// sharing the node's real ISM connection — the full LIS→TP→ISM wire
// path, not a shortcut — with the capture's original timing, scaled by
// -speed, or as a max-speed firehose at -speed 0. Captured production
// traffic becomes a deterministic, repeatable load test: an ordered
// ISM on the far side reconstructs the byte-identical merged trace.

import (
	"sync"

	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
	"prism/internal/workload"
)

// replaySession owns the per-node buffered LISes a replay emits
// through. It implements lis.LIS over the whole group so the standard
// ControlLoop can apply ISM control traffic (gang flush, shutdown) to
// every node the replay impersonates.
type replaySession struct {
	conn     tp.Conn
	batchCap int
	reg      *metrics.Registry

	mu      sync.Mutex
	servers map[int32]*lis.Buffered
	order   []*lis.Buffered // creation order, for deterministic flush/close
}

func newReplaySession(conn tp.Conn, batchCap int, reg *metrics.Registry) *replaySession {
	return &replaySession{
		conn:     conn,
		batchCap: batchCap,
		reg:      reg,
		servers:  make(map[int32]*lis.Buffered),
	}
}

// server returns the buffered LIS for node, creating it on first use.
func (rs *replaySession) server(node int32) (*lis.Buffered, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if srv, ok := rs.servers[node]; ok {
		return srv, nil
	}
	opts := []lis.Option{}
	if rs.reg != nil {
		opts = append(opts, lis.WithMetrics(rs.reg))
	}
	srv, err := lis.NewBuffered(node, rs.batchCap, rs.conn, opts...)
	if err != nil {
		return nil, err
	}
	rs.servers[node] = srv
	rs.order = append(rs.order, srv)
	return srv, nil
}

// emit is the workload.Replay hook: capture the run through the node's
// LIS, then flush so the next node's run cannot overtake it on the
// shared connection.
func (rs *replaySession) emit(node int32, batch []trace.Record) error {
	srv, err := rs.server(node)
	if err != nil {
		return err
	}
	for _, r := range batch {
		srv.Capture(r)
	}
	return srv.Flush()
}

// Capture implements event.Sink, routing by the record's own node id.
func (rs *replaySession) Capture(r trace.Record) {
	srv, err := rs.server(r.Node)
	if err != nil {
		return
	}
	srv.Capture(r)
}

// Flush implements lis.LIS across the group.
func (rs *replaySession) Flush() error {
	rs.mu.Lock()
	order := append([]*lis.Buffered(nil), rs.order...)
	rs.mu.Unlock()
	var first error
	for _, srv := range order {
		if err := srv.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats implements lis.LIS: the group totals.
func (rs *replaySession) Stats() lis.Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var sum lis.Stats
	for _, srv := range rs.order {
		st := srv.Stats()
		sum.Captured += st.Captured
		sum.Forwarded += st.Forwarded
		sum.Flushes += st.Flushes
		sum.Dropped += st.Dropped
		sum.Spilled += st.Spilled
	}
	return sum
}

// Close implements lis.LIS across the group. The shared connection is
// left open for the caller.
func (rs *replaySession) Close() error {
	rs.mu.Lock()
	order := append([]*lis.Buffered(nil), rs.order...)
	rs.mu.Unlock()
	var first error
	for _, srv := range order {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runReplay drives one full replay of recs through rs. Each record's
// Logical field is restamped with a fresh per-source capture sequence,
// so the far ISM treats the replay exactly like live sources.
func runReplay(rs *replaySession, recs []trace.Record, speed float64, stop <-chan struct{}) (workload.ReplayStats, error) {
	st, err := workload.Replay(recs, workload.ReplayConfig{
		Speed:      speed,
		MaxBatch:   rs.batchCap,
		Resequence: true,
		Emit:       rs.emit,
		Stop:       stop,
	})
	if cerr := rs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return st, err
}
