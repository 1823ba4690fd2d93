package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/flow"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/relay"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// Federation assembles the federated Figure 2 deployment in one
// process: the cluster's nodes are partitioned contiguously across
// leaf managers (SISO, ordered, deferred-causal), each leaf's merged
// output rides an uplink session into one root relay, and the relay's
// cross-manager causal merge spools the single root trace. It is the
// deterministic model behind the federation's acceptance property: a
// given configuration and workload produce a root trace that Predict
// reproduces exactly from the captured records alone, so any topology
// over the same capture — including the flat single-manager one — can
// be checked for byte identity.
//
// Determinism rests on two legs. First, unique capture Times: the
// federation workload advances the shared virtual clock before every
// sensor emission, so the (Time, Node, Process) order is total and the
// relay's watermark merge has no ties to break arbitrarily. (The flat
// Cluster's RunRing advances the clock only between phases, which is
// fine for causal validity but leaves cross-lane ties to goroutine
// interleaving.) Second, capture-order delivery into each leaf: every
// node runs a forwarding LIS and all of a leaf's nodes share one
// transport link, so the single-threaded workload serializes records
// onto the wire in capture order and the leaf's SISO stage injects
// them the same way — the Time-monotone dispatch the uplink watermark
// contract requires. Buffered per-node staging (the flat Cluster's
// FOF policy) would break both legs at once: a node's older records
// sit in its buffer while a neighbour's newer ones flush first, so
// the leaf stream interleaves out of Time order, the lane watermark
// overclaims, and — worse — a recv can reach the root before its
// matched send, which on a cyclic workload can park the causal merge
// into a circular wait it never exits. Federating buffered leaves
// needs per-node watermarks below the leaf, which is future work.
type Federation struct {
	cfg     FederationConfig
	clock   *event.VirtualClock
	root    *relay.Relay
	spool   bytes.Buffer
	leaves  []*ism.ISM
	uplinks []*relay.Uplink
	servers []lis.LIS
	sensors [][]*event.Sensor

	mu       sync.Mutex
	captured []trace.Record
	closed   bool
}

// FederationConfig describes a federated cluster.
type FederationConfig struct {
	// Leaves is the number of leaf managers; NodesPerLeaf nodes attach
	// to each, so the cluster spans Leaves*NodesPerLeaf nodes.
	Leaves       int
	NodesPerLeaf int
	ProcsPerNode int
}

// Validate checks the configuration.
func (c FederationConfig) Validate() error {
	if c.Leaves < 1 || c.NodesPerLeaf < 1 || c.ProcsPerNode < 1 {
		return errors.New("cluster: federation needs at least one leaf, node and process")
	}
	return nil
}

// tee duplicates every captured record into the federation's model
// input on its way to the real LIS.
type tee struct {
	f    *Federation
	next event.Sink
}

func (t tee) Capture(r trace.Record) {
	t.f.mu.Lock()
	t.f.captured = append(t.f.captured, r)
	t.f.mu.Unlock()
	t.next.Capture(r)
}

// NewFederation builds and starts a federated cluster.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Federation{cfg: cfg, clock: &event.VirtualClock{}}
	f.root = relay.New(relay.Config{
		Root:        true,
		Downstreams: cfg.Leaves,
		Spool:       &f.spool,
	})
	for l := 0; l < cfg.Leaves; l++ {
		leaf := ism.New(ism.Config{
			Buffering:   ism.SISO,
			Ordered:     true,
			DeferCausal: true,
			Overflow:    flow.Block,
		}, f.clock)
		f.leaves = append(f.leaves, leaf)
		up, down := tp.Pipe(256)
		f.root.Serve(down)
		u := relay.NewUplink(int32(1000+l), up, relay.UplinkConfig{BatchSize: 128})
		leaf.SubscribeBatch("uplink", u.Push)
		f.uplinks = append(f.uplinks, u)
		// One shared link per leaf: all of this leaf's node LISes forward
		// on it synchronously, so the wire carries the leaf's slice of
		// the capture in capture (= Time) order.
		local, remote := tp.Pipe(256)
		leaf.Serve(remote)
		for i := 0; i < cfg.NodesPerLeaf; i++ {
			n := l*cfg.NodesPerLeaf + i
			b, err := lis.NewForwarding(int32(n), local)
			if err != nil {
				return nil, err
			}
			f.servers = append(f.servers, b)
			procs := make([]*event.Sensor, cfg.ProcsPerNode)
			for p := 0; p < cfg.ProcsPerNode; p++ {
				procs[p] = event.NewSensor(int32(n), int32(p), f.clock, tee{f: f, next: b})
			}
			f.sensors = append(f.sensors, procs)
		}
	}
	return f, nil
}

// Root exposes the root relay for statistics.
func (f *Federation) Root() *relay.Relay { return f.root }

// Clock exposes the federation's virtual clock.
func (f *Federation) Clock() *event.VirtualClock { return f.clock }

// Sensor returns the sensor of (node, process).
func (f *Federation) Sensor(node, proc int) *event.Sensor {
	return f.sensors[node][proc]
}

// Nodes returns the cluster's total node count.
func (f *Federation) Nodes() int { return f.cfg.Leaves * f.cfg.NodesPerLeaf }

// step advances the virtual clock one tick — called before every
// sensor emission so capture Times are globally unique, the
// federation's determinism contract.
func (f *Federation) step() { f.clock.Advance(1) }

// RunRing executes the synthetic ring application across the whole
// federation: each round every process works inside an instrumented
// block, then the lead process of each node sends a token to the next
// node — crossing leaf boundaries at the partition edges, which is
// what gives the root relay cross-manager send/recv pairs to match.
func (f *Federation) RunRing(rounds int, workNs int64) error {
	if rounds < 1 || workNs < 0 {
		return errors.New("cluster: invalid ring parameters")
	}
	if f.closed {
		return errors.New("cluster: closed")
	}
	nodes := f.Nodes()
	tag := uint16(0)
	for round := 0; round < rounds; round++ {
		for n := 0; n < nodes; n++ {
			for p := 0; p < f.cfg.ProcsPerNode; p++ {
				s := f.sensors[n][p]
				f.step()
				s.BlockIn(1)
				f.clock.Advance(workNs)
				f.step()
				s.Sample(1, int64(round))
				f.step()
				s.BlockOut(1)
			}
		}
		for n := 0; n < nodes; n++ {
			next := (n + 1) % nodes
			f.step()
			f.sensors[n][0].Send(tag, int32(next))
			f.clock.Advance(workNs / 4)
			f.step()
			f.sensors[next][0].Recv(tag, int32(n))
			tag++
		}
		f.clock.Advance(workNs / 2)
	}
	return nil
}

// Trace stops the federation and returns the root relay's merged,
// causally ordered trace. An output ends when its inputs end: the LISes
// close, then each leaf, whose Close dispatches everything its link
// still holds and pushes the last records into its uplink; only then
// does each uplink Seal, so no record can follow a seal. The drain
// waits on every seal: the relay's acks are dispatch-gated, and its
// merge holds each lane until all lanes' watermarks pass, so an empty
// replay window means every captured record is merged and durable in
// the root spool. Its bound is for a root that never acks.
func (f *Federation) Trace() ([]trace.Record, error) {
	for _, s := range f.servers {
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
	for _, m := range f.leaves {
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	for _, u := range f.uplinks {
		u.Seal()
	}
	for _, u := range f.uplinks {
		if !u.Drain(10 * time.Second) {
			return nil, fmt.Errorf("cluster: %d uplink batches never acked", u.Pending())
		}
	}
	recs, _, err := trace.DecodeSegments(nil, f.spool.Bytes())
	return recs, err
}

// Predict computes the root trace the federation must emit, from the
// captured records alone: the capture set in global Time order, run
// through per-source sequence repair and the cross-source causal
// merge — the flat single-manager reference. Identity between Predict
// and Trace is the federation's merge-equivalence property.
func (f *Federation) Predict() []trace.Record {
	f.mu.Lock()
	all := append([]trace.Record(nil), f.captured...)
	f.mu.Unlock()
	trace.SortByTime(all)
	released, _ := trace.NewSequencer().AddBatch(all, func(n int) []trace.Record { return make([]trace.Record, 0, n) })
	return trace.NewCausalMerger().AddBatchTo(make([]trace.Record, 0, len(all)), released)
}

// Close tears the federation down.
func (f *Federation) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var first error
	for _, s := range f.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range f.leaves {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, u := range f.uplinks {
		_ = u.Close()
	}
	if err := f.root.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
