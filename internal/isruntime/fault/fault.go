// Package fault is the instrumentation runtime's deterministic
// fault-injection and resilience subsystem. The paper's structured
// approach demands that an IS be *evaluated*, not just built (§2.1,
// Figure 1) — and an IS that feeds on-line tools must keep delivering
// data while the concurrent system it observes misbehaves. This
// package supplies both halves of that loop:
//
//   - Injection: an Injector wraps any tp.Conn and perturbs its
//     operations with connection drops, frame corruption/truncation,
//     latency spikes and consumer stalls. Decisions are drawn from a
//     seeded stream indexed by per-direction operation count, so a
//     fault plan replays bit-for-bit under the same seed — chaos runs
//     are experiments, not luck.
//
//   - Resilience: a Session (sender side) stamps every data batch with
//     a per-node monotonic sequence number, retains unacked batches in
//     a bounded replay window (demoting overflow to the flow spill
//     path), and replays them on every reconnect of a tp.Redial
//     connection; a Receiver (ISM side) keeps a per-node session
//     table that acknowledges, deduplicates replays and counts gaps —
//     at-least-once delivery on the wire, exactly-once accounting at
//     the manager — and flags nodes degraded on heartbeat silence.
//
// Simulate drives a whole sender/receiver population through a fault
// plan in deterministic lockstep, producing the delivered / duplicated
// / lost / redials table of the availability experiment (ext-avail).
package fault

import (
	"fmt"
	"sync"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/rng"
)

// Kind identifies an injected fault.
type Kind uint8

// Fault kinds. Drop, Disconnect, Corrupt, Truncate and Delay apply to
// the send direction of a wrapped connection; Stall and Delay apply to
// the receive direction.
const (
	None       Kind = iota
	Drop            // frame silently lost in transit
	Disconnect      // connection cut before the frame is sent
	Corrupt         // frame mangled: lost, and the stream desynchronizes
	Truncate        // frame cut short: lost, and the stream desynchronizes
	Delay           // frame delivery delayed (latency spike)
	Stall           // consumer stalls before reading (slow-consumer)
	numKinds
)

var kindNames = [...]string{
	None: "none", Drop: "drop", Disconnect: "disconnect",
	Corrupt: "corrupt", Truncate: "truncate", Delay: "delay", Stall: "stall",
}

// String returns the fault-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Dir is the connection direction an operation (and its fault)
// belongs to.
type Dir uint8

// Directions.
const (
	Send Dir = iota
	Recv
	numDirs
)

// String returns the direction name.
func (d Dir) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Plan is a fault schedule: per-operation probabilities and the
// magnitudes of the timing faults. The zero Plan injects nothing.
type Plan struct {
	// Send-direction frame faults.
	PDrop       float64 // silent loss
	PCorrupt    float64 // loss + stream desync (connection must be abandoned)
	PTruncate   float64 // loss + stream desync
	PDisconnect float64 // connection cut under the frame

	// Timing faults.
	PDelay float64       // latency spike on either direction
	Delay  time.Duration // spike magnitude
	PStall float64       // consumer stall before a receive
	Stall  time.Duration // stall magnitude
}

// total returns the summed probability mass of a direction, for
// validation.
func (p Plan) total(d Dir) float64 {
	if d == Send {
		return p.PDrop + p.PCorrupt + p.PTruncate + p.PDisconnect + p.PDelay
	}
	return p.PStall + p.PDelay
}

// Scale returns the plan with every probability multiplied by f —
// the availability experiment's fault-rate knob.
func (p Plan) Scale(f float64) Plan {
	p.PDrop *= f
	p.PCorrupt *= f
	p.PTruncate *= f
	p.PDisconnect *= f
	p.PDelay *= f
	p.PStall *= f
	return p
}

// Event is one injected fault in the deterministic trace.
type Event struct {
	Dir  Dir
	Op   uint64 // per-direction operation index the fault applied to
	Kind Kind
}

// String renders the event compactly (send#17:disconnect).
func (e Event) String() string { return fmt.Sprintf("%s#%d:%s", e.Dir, e.Op, e.Kind) }

// dirState is one direction's decision stream: its own rng and op
// counter, so concurrent send/recv goroutines draw deterministic,
// independent sequences.
type dirState struct {
	rng *rng.Stream
	op  uint64
}

// InjectorOption configures an Injector.
type InjectorOption func(*Injector)

// WithMetrics reports injected-fault counts through the registry as
// fault.injected.<kind> counters.
func WithMetrics(reg *metrics.Registry) InjectorOption {
	return func(in *Injector) {
		s := reg.Scope("fault").Scope("injected")
		for k := Kind(1); k < numKinds; k++ {
			in.ctr[k] = s.Counter(k.String())
		}
	}
}

// WithSleep replaces the injector's time.Sleep for Delay/Stall faults;
// deterministic drivers pass a no-op.
func WithSleep(fn func(time.Duration)) InjectorOption {
	return func(in *Injector) { in.sleep = fn }
}

// Injector draws per-operation fault decisions from a seeded plan and
// applies them to wrapped connections. One injector may wrap several
// connections in sequence (a Redial's successive connections share the
// injector, so the fault schedule spans reconnects); the decision
// streams are per-direction, keyed by operation index, which makes the
// injection trace a pure function of (seed, plan, per-direction op
// sequence).
type Injector struct {
	plan  Plan
	sleep func(time.Duration)
	ctr   [numKinds]*metrics.Counter

	mu     sync.Mutex
	dirs   [numDirs]dirState
	trace  []Event
	counts [numKinds]uint64
}

// NewInjector creates an injector for the given plan. Per-direction
// probability mass must not exceed 1.
func NewInjector(seed uint64, plan Plan, opts ...InjectorOption) (*Injector, error) {
	for _, d := range [...]Dir{Send, Recv} {
		if t := plan.total(d); t > 1 {
			return nil, fmt.Errorf("fault: %s probability mass %.3f exceeds 1", d, t)
		}
	}
	root := rng.New(seed)
	in := &Injector{plan: plan, sleep: time.Sleep}
	in.dirs[Send] = dirState{rng: root.Split()}
	in.dirs[Recv] = dirState{rng: root.Split()}
	for _, opt := range opts {
		opt(in)
	}
	return in, nil
}

// decide draws the fault for the next operation in the given
// direction. Exactly one uniform variate is consumed per operation, so
// the decision for op i never depends on the fate of earlier ops.
func (in *Injector) decide(d Dir) Kind {
	in.mu.Lock()
	st := &in.dirs[d]
	u := st.rng.Float64()
	op := st.op
	st.op++
	k := None
	if d == Send {
		switch {
		case u < in.plan.PDrop:
			k = Drop
		case u < in.plan.PDrop+in.plan.PCorrupt:
			k = Corrupt
		case u < in.plan.PDrop+in.plan.PCorrupt+in.plan.PTruncate:
			k = Truncate
		case u < in.plan.PDrop+in.plan.PCorrupt+in.plan.PTruncate+in.plan.PDisconnect:
			k = Disconnect
		case u < in.plan.total(Send):
			k = Delay
		}
	} else {
		switch {
		case u < in.plan.PStall:
			k = Stall
		case u < in.plan.total(Recv):
			k = Delay
		}
	}
	if k != None {
		in.trace = append(in.trace, Event{Dir: d, Op: op, Kind: k})
		in.counts[k]++
		if in.ctr[k] != nil {
			in.ctr[k].Inc()
		}
	}
	in.mu.Unlock()
	return k
}

// Trace returns a copy of the injection trace so far, in decision
// order per direction (interleaving across directions follows the
// wrapped connection's call order).
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, c := range in.counts {
		n += c
	}
	return n
}

// WrapConn interposes the injector on a connection. The wrapped
// connection applies send-direction faults to outgoing messages and
// recv-direction faults to incoming ones; Corrupt, Truncate and
// Disconnect additionally close the underlying connection, modeling a
// desynchronized byte stream that both ends must abandon.
func (in *Injector) WrapConn(c tp.Conn) tp.Conn { return &faultConn{in: in, c: c} }

// faultConn is a tp.Conn with an Injector interposed.
type faultConn struct {
	in *Injector
	c  tp.Conn
}

// Send implements tp.Conn, applying the injector's send-direction
// decision for this operation.
func (f *faultConn) Send(m tp.Message) error {
	switch f.in.decide(Send) {
	case Drop:
		// The frame vanishes in transit: the sender believes it sent.
		tp.Recycle(&m)
		return nil
	case Disconnect:
		tp.Recycle(&m)
		_ = f.c.Close()
		return fmt.Errorf("fault: injected disconnect: %w", tp.ErrConnClosed)
	case Corrupt:
		tp.Recycle(&m)
		_ = f.c.Close()
		return fmt.Errorf("fault: injected frame corruption: %w", tp.ErrCorruptFrame)
	case Truncate:
		tp.Recycle(&m)
		_ = f.c.Close()
		return fmt.Errorf("fault: injected frame truncation: %w", tp.ErrCorruptFrame)
	case Delay:
		f.in.sleep(f.in.plan.Delay)
	}
	return f.c.Send(m)
}

// Recv implements tp.Conn, applying the injector's recv-direction
// decision for this operation.
func (f *faultConn) Recv() (tp.Message, error) {
	switch f.in.decide(Recv) {
	case Stall:
		f.in.sleep(f.in.plan.Stall)
	case Delay:
		f.in.sleep(f.in.plan.Delay)
	}
	return f.c.Recv()
}

// Close implements tp.Conn.
func (f *faultConn) Close() error { return f.c.Close() }
