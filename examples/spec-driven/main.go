// Spec-driven instrumentation: the application-specific synthesis path
// of §1 ("a customizable application-specific module") made concrete.
// A sensor-specification text — in the spirit of Falcon's sensor
// specification language and SPI's event specification language (§4)
// — is compiled into live probes, an ISM configuration and an
// automated bottleneck watcher, then run against a synthetic workload
// in which one node develops a deep CPU queue.
//
// Run with: go run ./examples/spec-driven
package main

import (
	"fmt"
	"log"
	"strings"

	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/spec"
	"prism/internal/isruntime/tp"
)

const isSpec = `
# Instrumentation specification for the "solver" application.
# Two metrics: the CPU ready-queue depth and the message backlog.
sensor cpu_queue   metric=1 every=10ms
sensor msg_backlog metric=2 every=40ms

# Automated analysis: flag a node when its smoothed CPU queue stays
# above 40 for 4 consecutive samples; backlog above 500 immediately.
threshold cpu_queue   above=40  alpha=0.5 hits=4
threshold msg_backlog above=500

# IS configuration.
buffer capacity=64 policy=fof
ism input=miso ordered=false
`

func main() {
	parsed, err := spec.Parse(strings.NewReader(isSpec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("specification: %d sensors, %d thresholds, %s buffer of %d, %s ISM\n",
		len(parsed.Sensors), len(parsed.Thresholds),
		parsed.Buffer.Policy, parsed.Buffer.Capacity, parsed.ISM.Input)

	// Synthesize the IS the specification describes.
	clock := event.NewRealClock()
	manager := ism.New(parsed.ISMConfig(), clock)
	environment := env.New(manager)
	watcher, minHits, err := parsed.BottleneckTool()
	if err != nil {
		log.Fatal(err)
	}
	if err := environment.Attach("auto-analysis", watcher); err != nil {
		log.Fatal(err)
	}

	// Two instrumented nodes, each with the spec's buffered LIS and
	// its compiled probes reading live gauges.
	const nodes = 2
	type nodeState struct {
		queue   event.Gauge
		backlog event.Gauge
		server  *lis.Buffered
		probes  []*event.Probe
	}
	states := make([]*nodeState, nodes)
	for n := 0; n < nodes; n++ {
		st := &nodeState{}
		local, remote := tp.Pipe(256)
		manager.Serve(remote)
		server, err := lis.NewBuffered(int32(n), parsed.Buffer.Capacity, local)
		if err != nil {
			log.Fatal(err)
		}
		st.server = server
		sensor := event.NewSensor(int32(n), 0, clock, server)
		st.probes, err = parsed.Probes(sensor, map[string]func() int64{
			"cpu_queue":   st.queue.Value,
			"msg_backlog": st.backlog.Value,
		})
		if err != nil {
			log.Fatal(err)
		}
		states[n] = st
	}

	// Drive the workload: node 0 healthy, node 1's queue climbs.
	for step := 0; step < 40; step++ {
		states[0].queue.Set(int64(3 + step%4))
		states[0].backlog.Set(20)
		states[1].queue.Set(int64(step * 4))
		states[1].backlog.Set(int64(step))
		for _, st := range states {
			for _, p := range st.probes {
				p.SampleOnce()
			}
		}
	}
	for _, st := range states {
		if err := st.server.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := manager.Close(); err != nil {
		log.Fatal(err)
	}

	findings := watcher.Hypotheses(minHits)
	if len(findings) == 0 {
		log.Fatal("specification's analysis found nothing")
	}
	for _, h := range findings {
		fmt.Printf("finding: node %d metric %d above threshold (smoothed %.1f, %d confirmations)\n",
			h.Node, h.Metric, h.Value, h.Hits)
	}
	if findings[0].Node != 1 {
		log.Fatalf("wrong node flagged: %d", findings[0].Node)
	}
	st := manager.Stats()
	fmt.Printf("IS activity: %d samples collected through the synthesized %s pipeline\n",
		st.Dispatched, parsed.ISM.Input)
	fmt.Println("=> the IS was synthesized entirely from the specification text (§1's application-specific path).")
}
