package lis

import (
	"errors"
	"sync"
	"time"

	"prism/internal/trace"

	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
)

// Daemon is the Paradyn-style LIS: "a separate process for each node
// of the concurrent system, which handles instrumentation data
// management independent of the application processes" (§2.2.1).
// Application processes deposit samples into bounded per-process pipes
// (Unix pipes in Paradyn, §3.2.2); a daemon goroutine drains the pipes
// and forwards samples to the ISM.
//
// The pipes are flow.Queue stages under the Block policy: when the
// daemon cannot keep up "the pipes become full and application
// processes, blocked" (§3.2.3); Capture on a full pipe blocks and the
// blocked time is accounted per pipe so the bottleneck effect is
// observable.
type Daemon struct {
	node    int32
	conn    tp.Conn
	pipeCap int
	batch   int
	ctr     lisCounters

	mu     sync.Mutex
	pipes  map[int32]*flow.Queue[trace.Record]
	paused bool

	wg   sync.WaitGroup
	once sync.Once
}

// NewDaemon creates a daemon LIS for node forwarding over conn.
// pipeCap is the bounded capacity of each application process's pipe;
// batch is the maximum number of records forwarded per data message.
func NewDaemon(node int32, conn tp.Conn, pipeCap, batch int, opts ...Option) (*Daemon, error) {
	if conn == nil {
		return nil, errors.New("lis: nil connection")
	}
	if pipeCap < 1 {
		return nil, errors.New("lis: pipe capacity must be >= 1")
	}
	if batch < 1 {
		return nil, errors.New("lis: batch must be >= 1")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Daemon{
		node:    node,
		conn:    conn,
		pipeCap: pipeCap,
		batch:   batch,
		ctr:     newLISCounters(node, o.registry),
		pipes:   map[int32]*flow.Queue[trace.Record]{},
	}, nil
}

// Metrics returns the registry this LIS reports through.
func (d *Daemon) Metrics() *metrics.Registry { return d.ctr.scope.Registry() }

// AttachProcess creates (or returns) the pipe for an application
// process and starts its drainer. Call before the process emits.
func (d *Daemon) AttachProcess(process int32) *flow.Queue[trace.Record] {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.pipes[process]; ok {
		return p
	}
	p, err := flow.NewQueue[trace.Record](d.pipeCap, flow.Block, nil)
	if err != nil {
		// The capacity was validated in NewDaemon.
		panic(err)
	}
	dropped := d.ctr.dropped
	p.OnDrop(func(trace.Record) { dropped.Inc() })
	d.pipes[process] = p
	d.wg.Add(1)
	go d.drain(p)
	return p
}

// Capture implements event.Sink: it deposits the record into its
// process's pipe. A full pipe blocks the capture (the §3.2.3 effect,
// accounted in BlockedTime). Records from processes never attached,
// or captured while paused or after Close, are dropped and counted.
func (d *Daemon) Capture(r trace.Record) {
	d.mu.Lock()
	if d.paused {
		d.mu.Unlock()
		d.ctr.dropped.Inc()
		return
	}
	p, ok := d.pipes[r.Process]
	d.mu.Unlock()
	if !ok {
		d.ctr.dropped.Inc()
		return
	}
	if p.Push(r) {
		d.ctr.captured.Inc()
	}
	// A push onto a closed pipe fails and is counted by OnDrop.
}

// drain forwards records from one pipe in pooled batches until the
// pipe is closed and empty.
func (d *Daemon) drain(p *flow.Queue[trace.Record]) {
	defer d.wg.Done()
	buf := flow.GetBatch(d.batch)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		n := uint64(len(buf))
		msg := tp.PooledDataMessage(d.node, buf)
		buf = flow.GetBatch(d.batch)
		if d.conn.Send(msg) == nil {
			d.ctr.forwarded.Add(n)
			d.ctr.flushes.Inc()
		}
	}
	for {
		r, ok := p.PopWait()
		if !ok {
			flush()
			flow.PutBatch(buf)
			return
		}
		buf = append(buf, r)
		// Opportunistically batch whatever is already queued.
		for len(buf) < d.batch {
			r, ok := p.TryPop()
			if !ok {
				break
			}
			buf = append(buf, r)
		}
		flush()
	}
}

// Flush implements LIS. The daemon drains continuously; Flush is a
// no-op provided for interface symmetry.
func (d *Daemon) Flush() error { return nil }

// Pause implements Pauser: while paused, captures are dropped and
// counted (the daemon keeps draining whatever is already piped).
func (d *Daemon) Pause(on bool) {
	d.mu.Lock()
	d.paused = on
	d.mu.Unlock()
}

// Stats implements LIS.
func (d *Daemon) Stats() Stats { return d.ctr.stats() }

// BlockedTime returns the cumulative time application processes spent
// blocked on full pipes, and how many captures blocked — the direct
// observable of the daemon-bottleneck effect.
func (d *Daemon) BlockedTime() (time.Duration, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ns int64
	var n uint64
	for _, p := range d.pipes {
		st := p.Stats()
		ns += st.BlockedNs
		n += st.Blocked
	}
	return time.Duration(ns), n
}

// Close stops the drainers after they empty their pipes.
func (d *Daemon) Close() error {
	d.once.Do(func() {
		d.mu.Lock()
		pipes := make([]*flow.Queue[trace.Record], 0, len(d.pipes))
		for _, p := range d.pipes {
			pipes = append(pipes, p)
		}
		d.mu.Unlock()
		for _, p := range pipes {
			p.Close()
		}
	})
	d.wg.Wait()
	return nil
}
