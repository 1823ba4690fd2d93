package env

import (
	"errors"
	"sync"

	"prism/internal/trace"
)

// SteeringTool is a program-steering consumer in the Falcon mould
// ("on-line monitoring and steering system for parallel programs",
// §4): it watches one sampled metric with exponential smoothing and
// drives an actuator when the smoothed value crosses a high watermark,
// releasing it again below a low watermark (hysteresis, so the
// actuator does not flap). The actuator typically tightens an
// application knob or sends a control message back through the ISM —
// the §2.2.3 control path "to control program execution as dictated by
// debugging and steering tools".
type SteeringTool struct {
	metric uint16
	high   float64
	low    float64
	alpha  float64
	onHigh func(node int32, smoothed float64)
	onLow  func(node int32, smoothed float64)

	mu      sync.Mutex
	ewma    map[int32]float64
	seen    map[int32]bool
	engaged map[int32]bool
	actions uint64
}

// NewSteeringTool creates a steering tool. onHigh fires when a node's
// smoothed metric rises above high; onLow fires when an engaged node
// falls back below low. Either callback may be nil.
func NewSteeringTool(metric uint16, high, low, alpha float64,
	onHigh, onLow func(node int32, smoothed float64)) (*SteeringTool, error) {
	if high <= low {
		return nil, errors.New("env: steering needs high > low watermark")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("env: alpha must be in (0,1]")
	}
	return &SteeringTool{
		metric: metric, high: high, low: low, alpha: alpha,
		onHigh: onHigh, onLow: onLow,
		ewma: map[int32]float64{}, seen: map[int32]bool{}, engaged: map[int32]bool{},
	}, nil
}

// Consume implements Tool. The actuator callbacks run after the batch
// is folded, outside the tool's lock, in the order their transitions
// fired.
func (t *SteeringTool) Consume(rs []trace.Record) {
	var fired []func()
	t.mu.Lock()
	for i := range rs {
		r := &rs[i]
		if r.Kind != trace.KindSample || r.Tag != t.metric {
			continue
		}
		prev := t.ewma[r.Node]
		if !t.seen[r.Node] {
			prev = float64(r.Payload)
			t.seen[r.Node] = true
		}
		s := t.alpha*float64(r.Payload) + (1-t.alpha)*prev
		t.ewma[r.Node] = s
		var fire func(int32, float64)
		switch {
		case !t.engaged[r.Node] && s > t.high:
			fire = t.onHigh
		case t.engaged[r.Node] && s < t.low:
			fire = t.onLow
		default:
			continue
		}
		t.engaged[r.Node] = !t.engaged[r.Node]
		t.actions++
		if node := r.Node; fire != nil {
			fired = append(fired, func() { fire(node, s) })
		}
	}
	t.mu.Unlock()
	for _, f := range fired {
		f()
	}
}

// Engaged reports whether the actuator is currently engaged for node.
func (t *SteeringTool) Engaged(node int32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.engaged[node]
}

// Smoothed returns the current smoothed metric value for node.
func (t *SteeringTool) Smoothed(node int32) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ewma[node]
}

// Actions returns the total number of steering transitions fired.
func (t *SteeringTool) Actions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.actions
}

// Finish implements Tool.
func (t *SteeringTool) Finish() error { return nil }
