// Online bottleneck search: the Paradyn case study as a runnable
// program.
//
// Application processes on two nodes are sampled by per-node daemon
// LISes (bounded pipes, a drainer goroutine — §3.2's local Paradyn
// daemon). Samples flow to an on-line ISM; a bottleneck tool in the
// integrated environment watches the metrics W3-style and isolates the
// node whose synthetic "CPU queue" metric is pathological. An adaptive
// cost model then backs off the sampling rate, trading detail for
// overhead as Paradyn's cost model does.
//
// Run with: go run ./examples/online-bottleneck
package main

import (
	"fmt"
	"log"
	"time"

	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/tp"
	"prism/internal/paradyn"
)

const (
	metricCPUQueue = 1
	nodes          = 2
	procsPerNode   = 3
)

func main() {
	clock := event.NewRealClock()
	manager := ism.New(ism.Config{Buffering: ism.MISO}, clock)
	environment := env.New(manager)

	// The automated-analysis tool: flag any node whose smoothed CPU
	// queue exceeds 8.
	finder, err := env.NewBottleneckTool(map[uint16]float64{metricCPUQueue: 8}, 0.4)
	if err != nil {
		log.Fatal(err)
	}
	if err := environment.Attach("w3-search", finder); err != nil {
		log.Fatal(err)
	}

	// Daemon LIS per node, served over channel pipes.
	daemons := make([]*lis.Daemon, nodes)
	for n := 0; n < nodes; n++ {
		local, remote := tp.Pipe(128)
		manager.Serve(remote)
		d, err := lis.NewDaemon(int32(n), local, 32, 8)
		if err != nil {
			log.Fatal(err)
		}
		daemons[n] = d
	}

	// Synthetic load: node 1 is the troubled one — its CPU queue
	// grows; node 0 stays healthy. Probes sample each process's view
	// of the queue.
	queues := make([]*event.Gauge, nodes)
	var probes []*event.Probe
	for n := 0; n < nodes; n++ {
		queues[n] = &event.Gauge{}
		for p := 0; p < procsPerNode; p++ {
			daemons[n].AttachProcess(int32(p))
			sensor := event.NewSensor(int32(n), int32(p), clock, daemons[n])
			g := queues[n]
			probes = append(probes, event.NewProbe(metricCPUQueue, g.Value, sensor, 2*time.Millisecond))
		}
	}

	fmt.Println("== online W3-style bottleneck search ==")
	for step := 0; step < 60; step++ {
		// Node 1's queue climbs; node 0 hovers low.
		queues[0].Set(int64(2 + step%3))
		queues[1].Set(int64(step / 3))
		for _, p := range probes {
			p.SampleOnce()
		}
		time.Sleep(500 * time.Microsecond)
	}
	manager.Drain()

	hyps := finder.Hypotheses(5)
	if len(hyps) == 0 {
		log.Fatal("bottleneck not found")
	}
	for _, h := range hyps {
		fmt.Printf("hypothesis: node %d metric %d is a bottleneck (smoothed %.1f, %d confirmations)\n",
			h.Node, h.Metric, h.Value, h.Hits)
	}
	if hyps[0].Node != 1 {
		log.Fatalf("wrong node flagged: %d", hyps[0].Node)
	}
	fmt.Println("=> search isolated node 1, the instrumented hypothesis Paradyn's W3 model refines (§3.2).")

	// Adaptive back-off: the observed daemon overhead feeds the cost
	// model, which lengthens the sampling period.
	fmt.Println("\n== adaptive cost model back-off ==")
	model, err := paradyn.NewCostModel(2.0) // target: 2% overhead
	if err != nil {
		log.Fatal(err)
	}
	period := 2.0 // ms
	observed := []float64{9, 7, 4, 2.5, 2.2, 2.0}
	for i, pct := range observed {
		next := model.Observe(period, pct)
		fmt.Printf("segment %d: overhead %.1f%% -> period %.2f ms -> %.2f ms\n", i, pct, period, next)
		period = next
	}
	for _, p := range probes {
		p.SetInterval(time.Duration(period * float64(time.Millisecond)))
	}
	fmt.Printf("=> probes retuned to %.2f ms; overhead converges on the target (Paradyn's adaptive cost model, §4).\n", period)

	for n, d := range daemons {
		if err := d.Close(); err != nil {
			log.Fatal(err)
		}
		blocked, count := d.BlockedTime()
		st := d.Stats()
		fmt.Printf("daemon %d: forwarded %d samples, %d captures blocked for %s total\n",
			n, st.Forwarded, count, blocked)
	}
	if err := manager.Close(); err != nil {
		log.Fatal(err)
	}
}
