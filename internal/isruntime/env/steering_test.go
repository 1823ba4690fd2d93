package env

import (
	"slices"
	"sync"
	"testing"

	"prism/internal/trace"
)

func sample(node int32, metric uint16, v int64) trace.Record {
	return trace.Record{Node: node, Kind: trace.KindSample, Tag: metric, Payload: v}
}

func TestSteeringValidation(t *testing.T) {
	if _, err := NewSteeringTool(1, 5, 10, 0.5, nil, nil); err == nil {
		t.Fatal("high <= low accepted")
	}
	if _, err := NewSteeringTool(1, 10, 5, 0, nil, nil); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestSteeringHysteresis(t *testing.T) {
	var mu sync.Mutex
	var events []string
	onHigh := func(node int32, v float64) {
		mu.Lock()
		events = append(events, "high")
		mu.Unlock()
	}
	onLow := func(node int32, v float64) {
		mu.Lock()
		events = append(events, "low")
		mu.Unlock()
	}
	st, err := NewSteeringTool(7, 50, 20, 1.0, onHigh, onLow)
	if err != nil {
		t.Fatal(err)
	}
	// Rise above high: engage once.
	st.Consume([]trace.Record{sample(0, 7, 60), sample(0, 7, 70)}) // still high: no second fire
	if !st.Engaged(0) {
		t.Fatal("not engaged")
	}
	// In the dead band (between low and high): stays engaged.
	st.Consume([]trace.Record{sample(0, 7, 30)})
	if !st.Engaged(0) {
		t.Fatal("disengaged in dead band")
	}
	// Below low: release once.
	st.Consume([]trace.Record{sample(0, 7, 10), sample(0, 7, 5)})
	if st.Engaged(0) {
		t.Fatal("still engaged")
	}
	if st.Actions() != 2 {
		t.Fatalf("actions %d", st.Actions())
	}
	// One batch holding the whole cycle fires both transitions, in
	// order, once the batch is folded.
	whole, _ := NewSteeringTool(7, 50, 20, 1.0, onHigh, onLow)
	whole.Consume([]trace.Record{sample(0, 7, 60), sample(0, 7, 30), sample(0, 7, 10)})
	if whole.Engaged(0) || whole.Actions() != 2 {
		t.Fatalf("one batch: engaged %v, %d actions", whole.Engaged(0), whole.Actions())
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"high", "low", "high", "low"}; !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

func TestSteeringPerNodeState(t *testing.T) {
	st, err := NewSteeringTool(1, 50, 20, 1.0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Consume([]trace.Record{sample(0, 1, 100), sample(1, 1, 10)})
	if !st.Engaged(0) || st.Engaged(1) {
		t.Fatal("per-node state crossed")
	}
	if st.Smoothed(0) != 100 || st.Smoothed(1) != 10 {
		t.Fatalf("smoothed %v %v", st.Smoothed(0), st.Smoothed(1))
	}
}

func TestSteeringIgnoresOtherRecords(t *testing.T) {
	st, _ := NewSteeringTool(1, 50, 20, 1.0, nil, nil)
	st.Consume([]trace.Record{
		{Node: 0, Kind: trace.KindUser, Tag: 1, Payload: 1000},
		sample(0, 2, 1000), // wrong metric
	})
	if st.Engaged(0) || st.Actions() != 0 {
		t.Fatal("reacted to irrelevant records")
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSteeringSmoothingDamps(t *testing.T) {
	// With small alpha, one spike must not engage.
	st, _ := NewSteeringTool(1, 50, 20, 0.1, nil, nil)
	st.Consume([]trace.Record{sample(0, 1, 10)}) // seed EWMA at 10
	st.Consume([]trace.Record{sample(0, 1, 350)})
	if st.Engaged(0) {
		t.Fatalf("single spike engaged actuator (smoothed %v)", st.Smoothed(0))
	}
	// Persistent load eventually engages.
	for i := 0; i < 50; i++ {
		st.Consume([]trace.Record{sample(0, 1, 350)})
	}
	if !st.Engaged(0) {
		t.Fatal("persistent load never engaged")
	}
}

// TestSteeringClosedLoopWithISM wires the steering tool into a live
// environment: the actuator throttles the synthetic "application",
// whose metric then falls, releasing the actuator — one full steering
// cycle through the IS.
func TestSteeringClosedLoopWithISM(t *testing.T) {
	m := newISM(t)
	e := New(m)
	var mu sync.Mutex
	throttled := false
	st, err := NewSteeringTool(3, 40, 15, 1.0,
		func(int32, float64) { mu.Lock(); throttled = true; mu.Unlock() },
		func(int32, float64) { mu.Lock(); throttled = false; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("steer", st); err != nil {
		t.Fatal(err)
	}
	load := int64(10)
	for step := 0; step < 100; step++ {
		mu.Lock()
		isThrottled := throttled
		mu.Unlock()
		if isThrottled {
			load -= 5 // the steering action works
		} else {
			load += 3 // unthrottled load climbs
		}
		if load < 0 {
			load = 0
		}
		inject(m, sample(0, 3, load))
	}
	if st.Actions() < 2 {
		t.Fatalf("closed loop never cycled: %d actions", st.Actions())
	}
}
