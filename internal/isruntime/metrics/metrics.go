// Package metrics is the instrumentation system's runtime metrics
// registry: atomic counters, gauges and histograms with named
// per-component scopes (lis.node3.captured, ism.out_of_order,
// tp.bytes_tx). The paper's central argument is that an IS is itself
// a system to be measured — its models are parameterized by buffer
// occupancy, flush counts, drops and transfer latency (§3, Figs. 4–6).
// This package makes those signals first-class: every runtime layer
// reports through a Registry, Snapshot exports the current values for
// analysis and reporting, and Publisher closes the feedback loop by
// emitting the IS's own metrics as trace records — instrumenting the
// instrumentation.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/trace"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable point-in-time metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket
// i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). Negative observations land in bucket 0.
const histBuckets = 64

// Histogram records a distribution of int64 observations (typically
// latencies in nanoseconds) in power-of-two buckets, lock-free.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (zero when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observation (zero when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from
// the power-of-two buckets — coarse, but allocation-free and monotone.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return int64(1) << uint(i) // exclusive upper bound of bucket
		}
	}
	return h.max.Load()
}

// Kind discriminates metric types in a snapshot.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// MarshalText renders the kind by name, so a snapshot encodes as JSON
// with "counter", "gauge" and "histogram" kinds.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "metric"
}

// Metric is one exported sample in a Snapshot.
type Metric struct {
	Name  string
	Kind  Kind
	Value float64 // counter/gauge value; histogram mean
	Count uint64  // histogram observation count
	Sum   int64   // histogram sum
	Max   int64   // histogram max
}

// Snapshot is a point-in-time export of a registry, sorted by name.
type Snapshot []Metric

// Get returns the metric with the given name.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Metric{}, false
}

// Value returns the named metric's value, or zero if absent.
func (s Snapshot) Value(name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// Registry holds named metrics. Handles returned by Counter, Gauge and
// Histogram are get-or-create and stable: components look them up once
// and update them atomically on the hot path with no further registry
// involvement. A GaugeFunc costs its owner nothing between snapshots.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	gaugeFuncs map[string][]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		gaugeFuncs: map[string][]func() int64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a gauge read at snapshot time: Snapshot calls f
// and exports its result under name. Registrations under one name sum,
// as components sharing a counter do, so several buffers of one node
// report one occupancy. f runs outside the registry lock and may take
// its owner's locks; a name is either a Gauge or a GaugeFunc, not both.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = append(r.gaugeFuncs[name], f)
}

// Scope returns a view of the registry that prefixes every metric name
// with prefix + ".". Scopes nest: reg.Scope("lis").Scope("node3")
// names metrics lis.node3.<name>.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Snapshot exports every metric, sorted by name. GaugeFuncs are
// evaluated after every stored value has been read, so a buffer's
// occupancy is never older than the counter its flushes feed: records
// moved from the buffer to the counter in between are not counted
// twice.
func (r *Registry) Snapshot() Snapshot {
	type gaugeFunc struct {
		name string
		fs   []func() int64
	}
	r.mu.Lock()
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.gaugeFuncs))
	funcs := make([]gaugeFunc, 0, len(r.gaugeFuncs))
	for name, fs := range r.gaugeFuncs {
		funcs = append(funcs, gaugeFunc{name, fs})
	}
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: float64(g.Value())})
	}
	for name, h := range r.histograms {
		out = append(out, Metric{
			Name: name, Kind: KindHistogram,
			Value: h.Mean(), Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
		})
	}
	r.mu.Unlock()
	for _, g := range funcs {
		var v int64
		for _, f := range g.fs {
			v += f()
		}
		out = append(out, Metric{Name: g.name, Kind: KindGauge, Value: float64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Scope is a named prefix over a registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter returns the scoped counter <prefix>.<name>.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + "." + name) }

// Gauge returns the scoped gauge <prefix>.<name>.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + "." + name) }

// GaugeFunc registers the scoped read-time gauge <prefix>.<name>.
func (s Scope) GaugeFunc(name string, f func() int64) { s.r.GaugeFunc(s.prefix+"."+name, f) }

// Histogram returns the scoped histogram <prefix>.<name>.
func (s Scope) Histogram(name string) *Histogram { return s.r.Histogram(s.prefix + "." + name) }

// Scope returns a nested scope <prefix>.<sub>.
func (s Scope) Scope(sub string) Scope { return Scope{r: s.r, prefix: s.prefix + "." + sub} }

// Registry returns the underlying registry.
func (s Scope) Registry() *Registry { return s.r }

// Prefix returns the scope's name prefix.
func (s Scope) Prefix() string { return s.prefix }

// --- self-publishing ------------------------------------------------

// Clock supplies timestamps; event.Clock satisfies it.
type Clock interface {
	Now() int64
}

// Sink consumes published records; event.Sink and the LIS
// implementations satisfy it.
type Sink interface {
	Capture(trace.Record)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(trace.Record)

// Capture implements Sink.
func (f SinkFunc) Capture(r trace.Record) { f(r) }

// Publisher periodically emits a registry's metrics as trace records —
// the IS instrumenting itself, so its own buffer occupancies, drop
// counts and latencies flow through the same pipeline as application
// data and reach the same tools. Each metric name is assigned a stable
// uint16 tag on first publication; records carry Kind=KindSample,
// Tag=<assigned tag>, Payload=<value>.
type Publisher struct {
	reg   *Registry
	node  int32
	clock Clock
	sink  Sink

	mu    sync.Mutex
	tags  map[string]uint16
	names []string // index = tag
	seq   uint64
}

// NewPublisher creates a publisher emitting reg's metrics as records
// attributed to the given (synthetic) node through sink.
func NewPublisher(reg *Registry, node int32, clock Clock, sink Sink) *Publisher {
	return &Publisher{reg: reg, node: node, clock: clock, sink: sink, tags: map[string]uint16{}}
}

// Tag returns the record tag assigned to a metric name, allocating one
// on first use.
func (p *Publisher) Tag(name string) uint16 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tagLocked(name)
}

func (p *Publisher) tagLocked(name string) uint16 {
	if t, ok := p.tags[name]; ok {
		return t
	}
	t := uint16(len(p.names))
	p.tags[name] = t
	p.names = append(p.names, name)
	return t
}

// TagNames returns the tag-to-name mapping for decoding published
// records.
func (p *Publisher) TagNames() map[uint16]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint16]string, len(p.names))
	for i, n := range p.names {
		out[uint16(i)] = n
	}
	return out
}

// PublishOnce emits one sample record per metric and returns the
// number emitted. Histograms publish their mean.
func (p *Publisher) PublishOnce() int {
	snap := p.reg.Snapshot()
	now := p.clock.Now()
	p.mu.Lock()
	type pub struct {
		tag uint16
		val int64
		seq uint64
	}
	pubs := make([]pub, len(snap))
	for i, m := range snap {
		pubs[i] = pub{tag: p.tagLocked(m.Name), val: int64(m.Value), seq: p.seq}
		p.seq++
	}
	p.mu.Unlock()
	for _, u := range pubs {
		p.sink.Capture(trace.Record{
			Node:    p.node,
			Process: -1, // the IS itself, not an application process
			Kind:    trace.KindSample,
			Tag:     u.tag,
			Time:    now,
			Logical: u.seq,
			Payload: u.val,
		})
	}
	return len(pubs)
}

// Run publishes every interval until stop is closed.
func (p *Publisher) Run(stop <-chan struct{}, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.PublishOnce()
		}
	}
}
