// Package analyze provides ParaGraph-style off-line analysis of
// merged instrumentation traces. PICL's instrumentation exists to feed
// exactly this kind of consumer: "when combined with a tool such as
// ParaGraph, it supports program performance analysis and animation"
// (§3.1). The analyses here are the classic ones: per-node activity
// profiles from block nesting, message statistics from matched
// send/receive pairs, and a space-time (Gantt) diagram of the
// execution.
package analyze

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"prism/internal/trace"
)

// NodeProfile summarizes one node's activity over the trace span.
type NodeProfile struct {
	Node     int32
	Events   int
	Sends    int
	Recvs    int
	Samples  int
	BusyNs   int64   // time inside instrumented blocks
	Busy     float64 // BusyNs / trace span
	MaxDepth int     // deepest block nesting observed
}

// MessageStat aggregates the messages on one (source, destination)
// edge.
type MessageStat struct {
	From, To  int32
	Count     int
	MeanLatNs float64
	MaxLatNs  int64
	Unmatched int // sends with no matching receive in the trace
}

// Report is the result of analyzing a merged trace.
type Report struct {
	SpanNs   int64
	Nodes    []NodeProfile
	Messages []MessageStat
	// Retained for the timeline renderer.
	startNs, endNs int64
	strokes        []stroke
}

// stroke is one outermost busy block ('#') or one send ('s') or
// receive ('r', from == to) on a node's timeline, in trace order.
type stroke struct {
	node     int32
	from, to int64
	sym      byte
}

type procKey struct {
	node, proc int32
}

// Analyzer folds a merged trace into a Report, one batch at a time.
// The input must be time-sorted across the whole stream: it is checked
// as trace.Validate checks a slice, with record indices counted from
// the stream's first record, and the result does not depend on where
// the stream was cut into batches. Block in/out events define busy
// intervals per (node, process); send/recv pairs are matched FIFO per
// (from, to, tag).
type Analyzer struct {
	n          int   // records consumed
	start, end int64 // first and last record times
	err        error // first structural error; sticky, ends the fold
	matchErr   error // first receive with no matching send

	profiles map[int32]*NodeProfile
	depth    map[procKey]int
	open     map[procKey]int64    // start of the outermost open block
	pending  map[[3]int32][]int64 // send times per (from, to, tag), FIFO
	edges    map[[2]int32]*MessageStat
	strokes  []stroke
}

// New returns an empty Analyzer.
func New() *Analyzer {
	return &Analyzer{profiles: map[int32]*NodeProfile{}, depth: map[procKey]int{}, open: map[procKey]int64{},
		pending: map[[3]int32][]int64{}, edges: map[[2]int32]*MessageStat{}}
}

// Analyze computes a Report from a time-sorted merged trace.
func Analyze(rs []trace.Record) (*Report, error) {
	a := New()
	a.Consume(rs)
	return a.Report()
}

// Consume folds the next batch of the stream.
func (a *Analyzer) Consume(rs []trace.Record) {
	for i := range rs {
		r := &rs[i]
		switch {
		case a.err != nil:
			return
		case !r.Kind.Valid():
			a.err = fmt.Errorf("trace: record %d has invalid kind %d", a.n, r.Kind)
			return
		case r.Time < a.end:
			a.err = fmt.Errorf("trace: record %d goes back in time (%d < %d)", a.n, r.Time, a.end)
			return
		case a.n == 0:
			a.start = r.Time
		}
		a.end = r.Time
		a.n++
		p := a.profiles[r.Node]
		if p == nil {
			p = &NodeProfile{Node: r.Node}
			a.profiles[r.Node] = p
		}
		p.Events++
		key := procKey{r.Node, r.Process}
		switch r.Kind {
		case trace.KindBlockIn:
			if a.depth[key] == 0 {
				a.open[key] = r.Time
			}
			a.depth[key]++
			p.MaxDepth = max(p.MaxDepth, a.depth[key])
		case trace.KindBlockOut:
			a.depth[key]--
			switch d := a.depth[key]; {
			case d < 0:
				a.err = fmt.Errorf("trace: record %d closes unopened block on node %d process %d", a.n-1, r.Node, r.Process)
			case d == 0:
				p.BusyNs += r.Time - a.open[key]
				a.strokes = append(a.strokes, stroke{r.Node, a.open[key], r.Time, '#'})
			}
		case trace.KindSend:
			p.Sends++
			a.strokes = append(a.strokes, stroke{r.Node, r.Time, r.Time, 's'})
			mk := [3]int32{r.Node, int32(r.Payload), int32(r.Tag)}
			a.pending[mk] = append(a.pending[mk], r.Time)
			a.edge(r.Node, int32(r.Payload)).Unmatched++
		case trace.KindRecv:
			p.Recvs++
			a.strokes = append(a.strokes, stroke{r.Node, r.Time, r.Time, 'r'})
			mk := [3]int32{int32(r.Payload), r.Node, int32(r.Tag)}
			q := a.pending[mk]
			if len(q) == 0 {
				if a.matchErr == nil {
					a.matchErr = fmt.Errorf("analyze: receive at t=%d on node %d has no matching send", r.Time, r.Node)
				}
				continue
			}
			a.pending[mk] = q[1:]
			m := a.edge(mk[0], mk[1])
			lat := r.Time - q[0]
			m.Count++
			m.Unmatched--
			m.MeanLatNs += (float64(lat) - m.MeanLatNs) / float64(m.Count)
			m.MaxLatNs = max(m.MaxLatNs, lat)
		case trace.KindSample:
			p.Samples++
		}
	}
}

// edge returns the message statistics of one (from, to) edge.
func (a *Analyzer) edge(from, to int32) *MessageStat {
	k := [2]int32{from, to}
	m := a.edges[k]
	if m == nil {
		m = &MessageStat{From: from, To: to}
		a.edges[k] = m
	}
	return m
}

// Report returns the analysis of the stream consumed so far. It does
// not change the Analyzer, so it may be called again, with or without
// more batches in between.
func (a *Analyzer) Report() (*Report, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.n == 0 {
		return nil, errors.New("analyze: empty trace")
	}
	for key, d := range a.depth {
		if d != 0 {
			return nil, fmt.Errorf("trace: node %d process %d ends with %d unclosed blocks", key.node, key.proc, d)
		}
	}
	if a.matchErr != nil {
		return nil, a.matchErr
	}
	span := max(a.end-a.start, 1)
	rep := &Report{SpanNs: a.end - a.start, startNs: a.start, endNs: a.end, strokes: a.strokes}
	for _, p := range a.profiles {
		np := *p
		np.Busy = float64(p.BusyNs) / float64(span)
		rep.Nodes = append(rep.Nodes, np)
	}
	sort.Slice(rep.Nodes, func(i, j int) bool { return rep.Nodes[i].Node < rep.Nodes[j].Node })
	for _, m := range a.edges {
		rep.Messages = append(rep.Messages, *m)
	}
	sort.Slice(rep.Messages, func(i, j int) bool {
		if rep.Messages[i].From != rep.Messages[j].From {
			return rep.Messages[i].From < rep.Messages[j].From
		}
		return rep.Messages[i].To < rep.Messages[j].To
	})
	return rep, nil
}

// Node returns the profile for one node.
func (r *Report) Node(node int32) (NodeProfile, bool) {
	for _, p := range r.Nodes {
		if p.Node == node {
			return p, true
		}
	}
	return NodeProfile{}, false
}

// BusiestNode returns the node with the highest busy fraction.
func (r *Report) BusiestNode() NodeProfile {
	best := r.Nodes[0]
	for _, p := range r.Nodes[1:] {
		if p.Busy > best.Busy {
			best = p
		}
	}
	return best
}

// LoadImbalance returns max busy / mean busy across nodes (1 = perfect
// balance); 0 when no node was ever busy.
func (r *Report) LoadImbalance() float64 {
	var sum, max float64
	for _, p := range r.Nodes {
		sum += p.Busy
		if p.Busy > max {
			max = p.Busy
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(r.Nodes))
	return max / mean
}

// Timeline renders a space-time diagram: one row per node, buckets
// columns wide; '#' marks buckets where the node was inside an
// instrumented block, 's'/'r' mark sends/receives, '.' is idle.
func (r *Report) Timeline(buckets int) string {
	if buckets < 1 {
		buckets = 60
	}
	span := r.endNs - r.startNs
	if span == 0 {
		span = 1
	}
	bucketOf := func(t int64) int {
		b := int(float64(t-r.startNs) / float64(span) * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		return b
	}
	rows := map[int32][]byte{}
	for _, p := range r.Nodes {
		rows[p.Node] = []byte(strings.Repeat(".", buckets))
	}
	// A busy block fills only idle buckets; a send or receive marks its
	// bucket over anything painted before it.
	for _, st := range r.strokes {
		row := rows[st.node]
		for b := bucketOf(st.from); b <= bucketOf(st.to); b++ {
			if st.sym != '#' || row[b] == '.' {
				row[b] = st.sym
			}
		}
	}
	var nodes []int32
	for n := range rows {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "space-time diagram (%d buckets over %.3f ms)\n", buckets, float64(span)/1e6)
	for _, n := range nodes {
		fmt.Fprintf(&b, "node %2d |%s|\n", n, rows[n])
	}
	b.WriteString("legend: # busy  s send  r recv  . idle\n")
	return b.String()
}

// Summary renders the report as text.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace span: %.3f ms, %d nodes\n", float64(r.SpanNs)/1e6, len(r.Nodes))
	for _, p := range r.Nodes {
		fmt.Fprintf(&b, "node %2d: %5d events, busy %5.1f%%, %d sends, %d recvs, %d samples\n",
			p.Node, p.Events, p.Busy*100, p.Sends, p.Recvs, p.Samples)
	}
	for _, m := range r.Messages {
		fmt.Fprintf(&b, "edge %d->%d: %d messages, mean latency %.3f ms (max %.3f), %d unmatched\n",
			m.From, m.To, m.Count, m.MeanLatNs/1e6, float64(m.MaxLatNs)/1e6, m.Unmatched)
	}
	fmt.Fprintf(&b, "load imbalance (max/mean busy): %.2f\n", r.LoadImbalance())
	return b.String()
}
