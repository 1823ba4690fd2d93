package fault

// Simulate: a deterministic lockstep chaos run. The availability
// experiment must replicate bit-for-bit under the replication engine
// (serial and parallel runs produce identical artifacts), which rules
// out wall-clock concurrency in the measured path. Simulate therefore
// drives a population of sender sessions and one receiver through a
// fault plan in a single goroutine: each step sends one batch per node
// through an injector-wrapped redial connection, then pumps the
// simulated links until quiet. Time does not pass — Delay/Stall faults
// are recorded in the trace but sleep through a no-op — so the result
// is a pure function of the config, including the full injection
// trace. The concurrent soak test (chaos_test.go) covers the
// real-goroutine, real-transport side of the same protocol.

import (
	"io"
	"time"

	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// SimConfig parameterizes one lockstep chaos run.
type SimConfig struct {
	Seed         uint64
	Nodes        int
	Batches      int // batches per node
	BatchRecords int // records per batch
	Plan         Plan
	Window       int  // session replay window (batches); 0 = default
	Replay       bool // true: session protocol; false: raw redial (counted loss)
}

// SimResult is the delivery accounting of one run.
type SimResult struct {
	Captured       int    // records generated at the nodes
	Delivered      int    // unique records accepted at the ISM
	DupRecords     int    // records accepted more than once (0 = exactly-once held)
	Lost           int    // Captured - Delivered - SpilledRecords
	Spilled        uint64 // batches demoted to the spill path
	SpilledRecords int
	DupBatches     uint64  // duplicate batches absorbed on the wire
	GapBatches     uint64  // sequence gaps observed by the receiver
	Redials        uint64  // connection re-establishments
	Faults         uint64  // injected faults, all kinds
	Trace          []Event // per-node injection traces, concatenated in node order
}

// simLink is one sender<->receiver connection instance: two in-order
// queues. A closed link refuses new sends; already-queued messages may
// still be drained (they were in flight when the link broke) or
// abandoned when the link is replaced (lost in flight).
type simLink struct {
	closed bool
	toRecv []tp.Message // sender -> receiver
	toSend []tp.Message // receiver -> sender (acks)
}

// simEnd is one end of a simLink as a tp.Conn.
type simEnd struct {
	link   *simLink
	sender bool
}

// Send implements tp.Conn by queueing onto the link.
func (e *simEnd) Send(m tp.Message) error {
	if e.link.closed {
		tp.Recycle(&m)
		return tp.ErrConnClosed
	}
	if e.sender {
		e.link.toRecv = append(e.link.toRecv, m)
	} else {
		e.link.toSend = append(e.link.toSend, m)
	}
	return nil
}

// Recv implements tp.Conn; the lockstep driver pumps queues directly,
// so Recv only reports termination.
func (e *simEnd) Recv() (tp.Message, error) { return tp.Message{}, io.EOF }

// Close implements tp.Conn.
func (e *simEnd) Close() error {
	e.link.closed = true
	return nil
}

// simNode is one simulated LIS node.
type simNode struct {
	id     int32
	inj    *Injector
	redial *tp.Redial
	sess   *Session // nil when Replay is off
	conn   tp.Conn  // sess when replaying, redial otherwise
	link   *simLink // latest dialed link
	ackEnd *simEnd  // receiver's end of the latest link

	lastAcked int64 // ack progress, for stall detection
	stall     int   // batches sent since the ack frontier last moved
}

// Simulate runs one chaos run and returns its delivery accounting.
// Identical configs produce identical results, including Trace.
func Simulate(cfg SimConfig) (SimResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	recv := NewReceiver(ReceiverConfig{})

	seen := make(map[int64]int) // payload id -> times accepted
	res := SimResult{Captured: cfg.Nodes * cfg.Batches * cfg.BatchRecords}

	// pump drains a node's current link: data to the receiver (acks
	// ride back on the link), then acks to the session.
	pump := func(n *simNode) {
		for len(n.link.toRecv) > 0 || len(n.link.toSend) > 0 {
			for len(n.link.toRecv) > 0 {
				m := n.link.toRecv[0]
				n.link.toRecv = n.link.toRecv[1:]
				if recv.Filter(n.ackEnd, m) {
					continue
				}
				if m.Type == tp.MsgData {
					for _, r := range m.Records {
						seen[r.Payload]++
					}
				}
			}
			for len(n.link.toSend) > 0 {
				m := n.link.toSend[0]
				n.link.toSend = n.link.toSend[1:]
				if n.sess != nil {
					n.sess.Deliver(m)
				}
			}
		}
	}

	nodes := make([]*simNode, cfg.Nodes)
	for i := range nodes {
		n := &simNode{id: int32(i)}
		// Per-node fault stream: a SplitMix-style spread of the run
		// seed keeps node schedules independent but jointly seeded.
		seed := cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		inj, err := NewInjector(seed, cfg.Plan, WithSleep(func(time.Duration) {}))
		if err != nil {
			return SimResult{}, err
		}
		n.inj = inj
		rd, err := tp.NewRedial(tp.RedialConfig{
			Dial: func() (tp.Conn, error) {
				link := &simLink{}
				n.link = link
				n.ackEnd = &simEnd{link: link, sender: false}
				return n.inj.WrapConn(&simEnd{link: link, sender: true}), nil
			},
			Sleep: func(time.Duration) {},
		})
		if err != nil {
			return SimResult{}, err
		}
		n.redial = rd
		if cfg.Replay {
			n.sess = NewSession(n.id, rd, SessionConfig{Window: cfg.Window})
			n.conn = n.sess
		} else {
			n.conn = rd
		}
		nodes[i] = n
	}

	// Main lockstep: one batch per node per step, pumping after each
	// send so acks trim the replay windows promptly.
	for batch := 0; batch < cfg.Batches; batch++ {
		for _, n := range nodes {
			rs := make([]trace.Record, cfg.BatchRecords)
			for i := range rs {
				id := int64(n.id)*1_000_000 + int64(batch)*1_000 + int64(i)
				rs[i] = trace.Record{
					Node: n.id, Kind: trace.KindUser,
					Time: id, Payload: id,
				}
			}
			// Raw-redial mode surfaces send faults as errors (the
			// batch is simply lost); session mode absorbs them.
			_ = n.conn.Send(tp.DataMessage(n.id, rs))
			pump(n)
			if n.sess == nil {
				continue
			}
			// Acks are contiguous, so a silently dropped batch stalls
			// the frontier while the window fills behind it. Resend on
			// stall — the sender's retransmit timer in lockstep form —
			// before overflow demotes the dropped batch to loss.
			if acked := n.sess.Acked(); acked > n.lastAcked {
				n.lastAcked, n.stall = acked, 0
			} else if n.sess.Pending() > 0 {
				if n.stall++; n.stall >= 8 {
					n.stall = 0
					_ = n.sess.Resend()
					pump(n)
				}
			}
		}
	}

	// Recovery: resend unacked windows until every batch is acked or
	// the round budget runs out (leftovers count as lost). Resends go
	// through the injector too, so a round can fail and retry.
	if cfg.Replay {
		for round := 0; round < 100; round++ {
			pending := false
			for _, n := range nodes {
				if n.sess.Pending() == 0 {
					continue
				}
				pending = true
				_ = n.sess.Resend()
				pump(n)
			}
			if !pending {
				break
			}
		}
	}

	dupRecords := 0
	for _, c := range seen {
		dupRecords += c - 1
	}
	res.Delivered = len(seen)
	res.DupRecords = dupRecords
	res.DupBatches = recv.TotalDups()
	res.GapBatches = recv.TotalGaps()
	for _, n := range nodes {
		res.Redials += n.redial.Redials()
		res.Faults += n.inj.Total()
		res.Trace = append(res.Trace, n.inj.Trace()...)
		if n.sess != nil {
			res.Spilled += n.sess.Spilled()
		}
		_ = n.redial.Close()
	}
	res.SpilledRecords = int(res.Spilled) * cfg.BatchRecords
	res.Lost = res.Captured - res.Delivered - res.SpilledRecords
	return res, nil
}
