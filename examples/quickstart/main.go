// Quickstart: instrument a small parallel computation with the PRISM
// instrumentation system and collect an off-line trace.
//
// Four worker goroutines ("nodes") cooperatively sum a vector; each is
// instrumented with a Sensor feeding a buffered LIS, the LISes forward
// to an in-process ISM over the channel transfer protocol, and the ISM
// writes a merged, causally ordered trace that the example then reads
// back and summarizes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

const (
	nodes     = 4
	chunk     = 25_000
	blockMain = 1 // instrumented block ids
)

func main() {
	// 1. The manager: causal ordering on, spooling to a buffer (a
	// real deployment would hand it a file). One shared metrics
	// registry observes every runtime layer.
	var spool bytes.Buffer
	clock := event.NewRealClock()
	registry := metrics.NewRegistry()
	manager := ism.New(ism.Config{
		Buffering: ism.SISO, Ordered: true, Spool: &spool, Metrics: registry,
	}, clock)

	// 2. A statistics tool subscribed through the environment.
	environment := env.New(manager)
	statsTool := env.NewStatsTool()
	if err := environment.Attach("stats", statsTool); err != nil {
		log.Fatal(err)
	}

	// 3. One buffered LIS per node, connected over channel pipes.
	servers := make([]*lis.Buffered, nodes)
	for n := 0; n < nodes; n++ {
		local, remote := tp.Pipe(64)
		manager.Serve(remote)
		server, err := lis.NewBuffered(int32(n), 32, local, lis.WithMetrics(registry))
		if err != nil {
			log.Fatal(err)
		}
		servers[n] = server
	}

	// 4. The instrumented application: each node sums its chunk,
	// emitting block-in/out and a progress sample.
	var wg sync.WaitGroup
	partial := make([]int64, nodes)
	for n := 0; n < nodes; n++ {
		sensor := event.NewSensor(int32(n), 0, clock, servers[n])
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sensor.BlockIn(blockMain)
			var sum int64
			for i := 0; i < chunk; i++ {
				sum += int64(n*chunk + i)
				if i%5000 == 0 {
					sensor.Sample(1, sum)
				}
			}
			partial[n] = sum
			sensor.BlockOut(blockMain)
		}(n)
	}
	wg.Wait()

	// 5. Shut down: flush LIS buffers, then close the manager, which
	// closes the pipes and dispatches every record they still hold.
	var total int64
	for n, s := range servers {
		if err := s.Close(); err != nil {
			log.Fatal(err)
		}
		total += partial[n]
	}
	if err := manager.Close(); err != nil {
		log.Fatal(err)
	}

	// 6. Report: application result, IS statistics, and the trace.
	fmt.Printf("application result: sum = %d\n", total)
	st := manager.Stats()
	fmt.Printf("ISM: %d records arrived, %d dispatched, hold-back ratio %.3f\n",
		st.Arrived, st.Dispatched, st.HoldBackRatio)
	for n := 0; n < nodes; n++ {
		fmt.Printf("node %d: %d samples, %d block entries\n",
			n, statsTool.Count(int32(n), trace.KindSample), statsTool.Count(int32(n), trace.KindBlockIn))
	}

	spoolBytes := spool.Len()
	records, _, err := trace.DecodeSegments(nil, spool.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.CheckCausal(records); err != nil {
		log.Fatalf("trace not causally ordered: %v", err)
	}
	fmt.Printf("trace: %d records, causally ordered, %d bytes spooled\n",
		len(records), spoolBytes)

	// 7. The IS measured itself along the way: every layer reported
	// into the shared registry, and a Snapshot exports it.
	fmt.Println("runtime metrics:")
	for _, m := range registry.Snapshot() {
		fmt.Printf("  %-24s %g\n", m.Name, m.Value)
	}
}
