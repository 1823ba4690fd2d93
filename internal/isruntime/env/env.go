// Package env implements the integrated parallel tool environment of
// §2.3: "an integrated parallel tool environment supports the use of
// multiple, possibly heterogeneous, tools that cooperate for carrying
// out one or more analyses of the same parallel program."
//
// The Environment wires an ISM to a set of Tools and carries the
// control-signal traffic between them ("data transfer to the tools is
// typically accompanied by an exchange of control signals between the
// ISM and a tool", §2.2.3). The tool classes of Malony's taxonomy
// (§2.3) are covered by a statistics tool (profile-based), a
// bottleneck searcher (automated), an animation feed (visualization)
// and a steering tool; the trace-based class is the ISM's own spool
// (ism.Config.Spool), which writes the dispatched stream durably.
package env

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prism/internal/isruntime/ism"
	"prism/internal/trace"
)

// Tool is an analysis/visualization consumer of instrumentation data:
// a fold over the dispatched stream, one batch at a time.
type Tool interface {
	// Consume receives the next batch in dispatch order: batches arrive
	// one at a time, in the order the ISM dispatched them, and a
	// tool's result must not depend on where the stream was cut into
	// batches. It runs on the ISM's dispatch goroutine and must be
	// quick; heavyweight tools should queue internally. The slice is
	// valid only during the call.
	Consume([]trace.Record)
	// Finish tells the tool no more data will arrive.
	Finish() error
}

// Environment binds tools to an ISM.
type Environment struct {
	ism      *ism.ISM
	finished atomic.Bool

	mu    sync.Mutex
	tools map[string]Tool
}

// New creates an environment around a running ISM.
func New(m *ism.ISM) *Environment {
	return &Environment{ism: m, tools: map[string]Tool{}}
}

// Attach registers a tool under name and subscribes its Consume to the
// ISM's dispatched batches. Attaching two tools with one name is an
// error.
func (e *Environment) Attach(name string, t Tool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tools[name]; dup {
		return fmt.Errorf("env: duplicate tool %q", name)
	}
	e.tools[name] = t
	e.ism.SubscribeBatch(name, func(rs []trace.Record) {
		if !e.finished.Load() {
			t.Consume(rs)
		}
	})
	return nil
}

// Finish stops delivery to every tool, then finishes each one,
// collecting the first error. Batches the ISM dispatches afterwards
// reach no tool; one already being delivered when Finish is called may
// still finish its Consume, which is why AnimationFeed guards its
// channel itself.
func (e *Environment) Finish() error {
	e.finished.Store(true)
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, t := range e.tools {
		if err := t.Finish(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StatsTool is a profile-based tool: per (node, kind) event counts and
// per-metric sample summaries.
type StatsTool struct {
	mu      sync.Mutex
	counts  map[statKey]uint64
	samples map[uint16]*metricAgg
}

type statKey struct {
	Node int32
	Kind trace.Kind
}

type metricAgg struct {
	n          uint64
	sum        float64
	min, max   int64
	haveMinMax bool
}

// NewStatsTool creates a statistics tool.
func NewStatsTool() *StatsTool {
	return &StatsTool{counts: map[statKey]uint64{}, samples: map[uint16]*metricAgg{}}
}

// Consume implements Tool.
func (t *StatsTool) Consume(rs []trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range rs {
		r := &rs[i]
		t.counts[statKey{r.Node, r.Kind}]++
		if r.Kind != trace.KindSample {
			continue
		}
		a := t.samples[r.Tag]
		if a == nil {
			a = &metricAgg{}
			t.samples[r.Tag] = a
		}
		a.n++
		a.sum += float64(r.Payload)
		if !a.haveMinMax || r.Payload < a.min {
			a.min = r.Payload
		}
		if !a.haveMinMax || r.Payload > a.max {
			a.max = r.Payload
		}
		a.haveMinMax = true
	}
}

// Count returns the number of records of the given kind seen from the
// given node.
func (t *StatsTool) Count(node int32, kind trace.Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[statKey{node, kind}]
}

// MetricSummary returns (n, mean, min, max) for a sampled metric.
func (t *StatsTool) MetricSummary(metric uint16) (n uint64, mean float64, min, max int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.samples[metric]
	if a == nil || a.n == 0 {
		return 0, 0, 0, 0
	}
	return a.n, a.sum / float64(a.n), a.min, a.max
}

// Finish implements Tool.
func (t *StatsTool) Finish() error { return nil }

// BottleneckTool is a minimal automated-analysis tool in the spirit of
// Paradyn's W3 search (§3.2): it watches sampled metrics against
// thresholds and records hypotheses ("metric m on node n exceeds its
// threshold") with simple exponential smoothing.
type BottleneckTool struct {
	threshold map[uint16]float64
	alpha     float64

	mu   sync.Mutex
	ewma map[bnKey]float64
	hits map[bnKey]uint64
}

type bnKey struct {
	Node   int32
	Metric uint16
}

// Hypothesis is a bottleneck finding.
type Hypothesis struct {
	Node   int32
	Metric uint16
	Value  float64 // smoothed metric value at detection
	Hits   uint64  // consecutive confirmations
}

// NewBottleneckTool creates a bottleneck searcher. thresholds maps
// metric id to the smoothed-value threshold that flags a bottleneck;
// alpha in (0,1] is the EWMA smoothing weight.
func NewBottleneckTool(thresholds map[uint16]float64, alpha float64) (*BottleneckTool, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("env: alpha must be in (0,1]")
	}
	th := make(map[uint16]float64, len(thresholds))
	for k, v := range thresholds {
		th[k] = v
	}
	return &BottleneckTool{
		threshold: th, alpha: alpha,
		ewma: map[bnKey]float64{}, hits: map[bnKey]uint64{},
	}, nil
}

// Consume implements Tool.
func (t *BottleneckTool) Consume(rs []trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range rs {
		r := &rs[i]
		if r.Kind != trace.KindSample {
			continue
		}
		th, watched := t.threshold[r.Tag]
		if !watched {
			continue
		}
		key := bnKey{r.Node, r.Tag}
		prev, seen := t.ewma[key]
		v := float64(r.Payload)
		if !seen {
			prev = v
		}
		s := t.alpha*v + (1-t.alpha)*prev
		t.ewma[key] = s
		if s > th {
			t.hits[key]++
		} else {
			t.hits[key] = 0
		}
	}
}

// Hypotheses returns current findings with at least minHits
// consecutive confirmations, ordered by (node, metric).
func (t *BottleneckTool) Hypotheses(minHits uint64) []Hypothesis {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Hypothesis
	for key, hits := range t.hits {
		if hits >= minHits && minHits > 0 {
			out = append(out, Hypothesis{Node: key.Node, Metric: key.Metric, Value: t.ewma[key], Hits: hits})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Finish implements Tool.
func (t *BottleneckTool) Finish() error { return nil }

// AnimationFeed is a visualization-class tool: it forwards records to
// a bounded feed channel, dropping (and counting) when the consumer
// lags — the behaviour of a display that favors liveness over
// completeness.
type AnimationFeed struct {
	ch chan trace.Record

	mu      sync.Mutex
	dropped uint64
	closed  bool
}

// NewAnimationFeed creates a feed with the given channel capacity.
func NewAnimationFeed(capacity int) *AnimationFeed {
	if capacity < 1 {
		capacity = 1
	}
	return &AnimationFeed{ch: make(chan trace.Record, capacity)}
}

// Consume implements Tool. Records that arrive after Finish are
// dropped uncounted.
func (t *AnimationFeed) Consume(rs []trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for _, r := range rs {
		select {
		case t.ch <- r:
		default:
			t.dropped++
		}
	}
}

// Frames returns the consumer side of the feed.
func (t *AnimationFeed) Frames() <-chan trace.Record { return t.ch }

// Dropped returns how many frames were discarded because the consumer
// lagged.
func (t *AnimationFeed) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Finish implements Tool; it closes the feed.
func (t *AnimationFeed) Finish() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.ch)
	}
	return nil
}
