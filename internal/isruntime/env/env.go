// Package env implements the integrated parallel tool environment of
// §2.3: "an integrated parallel tool environment supports the use of
// multiple, possibly heterogeneous, tools that cooperate for carrying
// out one or more analyses of the same parallel program."
//
// The Environment wires an ISM to a set of Tools and carries the
// control-signal traffic between them ("data transfer to the tools is
// typically accompanied by an exchange of control signals between the
// ISM and a tool", §2.2.3). Four concrete tools cover the tool classes
// Malony's taxonomy lists (§2.3): a trace writer (trace-based), a
// statistics tool (profile-based), a bottleneck searcher (automated),
// and an animation feed (visualization).
package env

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// Tool is an analysis/visualization consumer of instrumentation data.
type Tool interface {
	// Name identifies the tool in the environment.
	Name() string
	// Consume receives one record in dispatch order. It runs on the
	// ISM processor goroutine and must be quick; heavyweight tools
	// should queue internally.
	Consume(trace.Record)
	// Finish tells the tool no more data will arrive.
	Finish() error
}

// Option configures an Environment at construction time.
type Option func(*Environment)

// WithMetrics counts per-tool consumption through the given registry:
// each attached tool gets an env.<name>.consumed counter.
func WithMetrics(reg *metrics.Registry) Option {
	return func(e *Environment) { e.reg = reg }
}

// Environment binds tools to an ISM.
type Environment struct {
	ism *ism.ISM
	reg *metrics.Registry

	mu    sync.Mutex
	tools map[string]Tool
}

// New creates an environment around a running ISM.
func New(m *ism.ISM, opts ...Option) *Environment {
	e := &Environment{ism: m, tools: map[string]Tool{}}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Attach registers a tool and subscribes it to the ISM stream.
// Attaching two tools with one name is an error.
func (e *Environment) Attach(t Tool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tools[t.Name()]; dup {
		return fmt.Errorf("env: duplicate tool %q", t.Name())
	}
	e.tools[t.Name()] = t
	consumed := new(metrics.Counter) // reported nowhere without WithMetrics
	if e.reg != nil {
		consumed = e.reg.Scope("env").Scope(t.Name()).Counter("consumed")
	}
	e.ism.SubscribeBatch(t.Name(), func(rs []trace.Record) {
		consumed.Add(uint64(len(rs)))
		for _, r := range rs {
			t.Consume(r)
		}
	})
	return nil
}

// Tools returns the attached tool names, sorted.
func (e *Environment) Tools() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.tools))
	for n := range e.tools {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Finish finishes every tool, collecting the first error.
func (e *Environment) Finish() error {
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

// TraceWriter is a trace-based off-line tool: it spools every record
// to a binary trace stream (the ParaGraph-feeding path of §3.1).
type TraceWriter struct {
	name string
	mu   sync.Mutex
	w    *trace.Writer
	n    int
}

// NewTraceWriter creates a trace writer tool writing to w.
func NewTraceWriter(name string, w io.Writer) *TraceWriter {
	return &TraceWriter{name: name, w: trace.NewWriter(w)}
}

// Name implements Tool.
func (t *TraceWriter) Name() string { return t.name }

// Consume implements Tool.
func (t *TraceWriter) Consume(r trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.w.Write(r)
	t.n++
}

// Records returns the number of records written.
func (t *TraceWriter) Records() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Finish implements Tool.
func (t *TraceWriter) Finish() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// StatsTool is a profile-based tool: per (node, kind) event counts and
// per-metric sample summaries.
type StatsTool struct {
	name string

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
func NewStatsTool(name string) *StatsTool {
	return &StatsTool{name: name, counts: map[statKey]uint64{}, samples: map[uint16]*metricAgg{}}
}

// Name implements Tool.
func (t *StatsTool) Name() string { return t.name }

// Consume implements Tool.
func (t *StatsTool) Consume(r trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[statKey{r.Node, r.Kind}]++
	if r.Kind == trace.KindSample {
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
	name      string
	threshold map[uint16]float64
	alpha     float64

	mu    sync.Mutex
	ewma  map[bnKey]float64
	hits  map[bnKey]uint64
	total uint64
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
func NewBottleneckTool(name string, thresholds map[uint16]float64, alpha float64) (*BottleneckTool, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("env: alpha must be in (0,1]")
	}
	th := make(map[uint16]float64, len(thresholds))
	for k, v := range thresholds {
		th[k] = v
	}
	return &BottleneckTool{
		name: name, threshold: th, alpha: alpha,
		ewma: map[bnKey]float64{}, hits: map[bnKey]uint64{},
	}, nil
}

// Name implements Tool.
func (t *BottleneckTool) Name() string { return t.name }

// Consume implements Tool.
func (t *BottleneckTool) Consume(r trace.Record) {
	if r.Kind != trace.KindSample {
		return
	}
	th, watched := t.threshold[r.Tag]
	if !watched {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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
		t.total++
	} else {
		t.hits[key] = 0
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
	name string
	ch   chan trace.Record

	mu      sync.Mutex
	dropped uint64
}

// NewAnimationFeed creates a feed with the given channel capacity.
func NewAnimationFeed(name string, capacity int) *AnimationFeed {
	if capacity < 1 {
		capacity = 1
	}
	return &AnimationFeed{name: name, ch: make(chan trace.Record, capacity)}
}

// Name implements Tool.
func (t *AnimationFeed) Name() string { return t.name }

// Consume implements Tool.
func (t *AnimationFeed) Consume(r trace.Record) {
	select {
	case t.ch <- r:
	default:
		t.mu.Lock()
		t.dropped++
		t.mu.Unlock()
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
	close(t.ch)
	return nil
}
