// Package cluster assembles the full Figure 2 deployment in one
// process: a simulated multicomputer whose nodes run instrumented
// application processes behind configurable Local Instrumentation
// Servers, forwarding over the channel transfer protocol to a single
// Instrumentation System Manager with causal ordering and trace
// spooling. It is the "target parallel/distributed system on the host
// system" substitute the PICL case study needs (DESIGN.md,
// substitution S9) and the harness behind the cluster-analysis
// example.
//
// Time is virtual: application steps advance a shared VirtualClock, so
// a given configuration and workload produce a deterministic set of
// records with deterministic timestamps. (The ISM's dispatch order
// across nodes — and hence the Lamport stamps — may vary between runs
// with goroutine interleaving; every such order is causally valid, and
// the canonical time-sorted trace is identical.)
package cluster

import (
	"bytes"
	"errors"

	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// PolicyKind selects the per-node LIS implementation.
type PolicyKind int

// LIS policies.
const (
	// BufferedFOF uses PICL-style local buffers, each flushing
	// independently when full.
	BufferedFOF PolicyKind = iota
	// BufferedFAOF gang-flushes every node's buffer when one fills.
	BufferedFAOF
	// Forwarding sends every event immediately (Vista-style).
	Forwarding
)

// String returns the policy name.
func (p PolicyKind) String() string {
	switch p {
	case BufferedFOF:
		return "buffered-FOF"
	case BufferedFAOF:
		return "buffered-FAOF"
	default:
		return "forwarding"
	}
}

// Config describes a cluster.
type Config struct {
	Nodes          int
	ProcsPerNode   int
	Policy         PolicyKind
	BufferCapacity int // local buffer capacity for the buffered policies
	MISO           bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.ProcsPerNode < 1 {
		return errors.New("cluster: need at least one node and one process")
	}
	if c.Policy != Forwarding && c.BufferCapacity < 1 {
		return errors.New("cluster: buffered policies need a buffer capacity")
	}
	return nil
}

// Cluster is a running instrumented multicomputer.
type Cluster struct {
	cfg     Config
	clock   *event.VirtualClock
	manager *ism.ISM
	envr    *env.Environment
	spool   bytes.Buffer
	servers []lis.LIS
	gang    *lis.Gang
	sensors [][]*event.Sensor
	closed  bool
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, clock: &event.VirtualClock{}}
	buffering := ism.SISO
	if cfg.MISO {
		buffering = ism.MISO
	}
	c.manager = ism.New(ism.Config{Buffering: buffering, Ordered: true, Spool: &c.spool}, c.clock)
	c.envr = env.New(c.manager)

	var buffered []*lis.Buffered
	for n := 0; n < cfg.Nodes; n++ {
		// 256 messages of channel buffer per direction is ample for the
		// batch-granular LIS→ISM traffic; the Block policy backpressures
		// correctly if a node ever outruns the ISM, so the size is a
		// throughput knob, not a correctness one.
		local, remote := tp.Pipe(256)
		c.manager.Serve(remote)
		var server lis.LIS
		switch cfg.Policy {
		case Forwarding:
			f, err := lis.NewForwarding(int32(n), local)
			if err != nil {
				return nil, err
			}
			server = f
		default:
			b, err := lis.NewBuffered(int32(n), cfg.BufferCapacity, local)
			if err != nil {
				return nil, err
			}
			buffered = append(buffered, b)
			server = b
		}
		c.servers = append(c.servers, server)
		procs := make([]*event.Sensor, cfg.ProcsPerNode)
		for p := 0; p < cfg.ProcsPerNode; p++ {
			procs[p] = event.NewSensor(int32(n), int32(p), c.clock, server)
		}
		c.sensors = append(c.sensors, procs)
	}
	if cfg.Policy == BufferedFAOF {
		c.gang = lis.NewGang(buffered...)
	}
	return c, nil
}

// Environment exposes the integrated tool environment for attaching
// tools before running a workload.
func (c *Cluster) Environment() *env.Environment { return c.envr }

// Manager exposes the ISM for statistics.
func (c *Cluster) Manager() *ism.ISM { return c.manager }

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *event.VirtualClock { return c.clock }

// Sensor returns the sensor of (node, process).
func (c *Cluster) Sensor(node, proc int) *event.Sensor {
	return c.sensors[node][proc]
}

// GangFlushes returns the number of FAOF gang sweeps (0 under other
// policies).
func (c *Cluster) GangFlushes() uint64 {
	if c.gang == nil {
		return 0
	}
	return c.gang.GangFlushes()
}

// RunRing executes a synthetic ring application for the given number
// of rounds: each round every process works for workNs inside an
// instrumented block, then process 0 of each node sends a token to the
// next node, which receives it. The virtual clock advances as the
// application "computes".
func (c *Cluster) RunRing(rounds int, workNs int64) error {
	if rounds < 1 || workNs < 0 {
		return errors.New("cluster: invalid ring parameters")
	}
	if c.closed {
		return errors.New("cluster: closed")
	}
	tag := uint16(0)
	for round := 0; round < rounds; round++ {
		for n := 0; n < c.cfg.Nodes; n++ {
			for p := 0; p < c.cfg.ProcsPerNode; p++ {
				s := c.sensors[n][p]
				s.BlockIn(1)
				c.clock.Advance(workNs)
				s.Sample(1, int64(round))
				s.BlockOut(1)
			}
		}
		// Token ring between node-level lead processes.
		for n := 0; n < c.cfg.Nodes; n++ {
			next := (n + 1) % c.cfg.Nodes
			c.sensors[n][0].Send(tag, int32(next))
			c.clock.Advance(workNs / 4)
			c.sensors[next][0].Recv(tag, int32(n))
			tag++
		}
		c.clock.Advance(workNs / 2)
	}
	return nil
}

// Trace shuts the cluster down and returns the merged, causally
// ordered trace the ISM spooled.
func (c *Cluster) Trace() ([]trace.Record, error) {
	if err := c.Close(); err != nil {
		return nil, err
	}
	recs, _, err := trace.DecodeSegments(nil, c.spool.Bytes())
	return recs, err
}

// Close tears the cluster down: the LISes close, their final flushes
// landing on the pipes, and then the manager, which dispatches
// everything the pipes still hold. Safe after Trace.
func (c *Cluster) Close() error {
	var first error
	for _, s := range c.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.manager.Close(); err != nil && first == nil {
		first = err
	}
	c.closed = true
	return first
}
