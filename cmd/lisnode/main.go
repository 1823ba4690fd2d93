// Command lisnode runs one instrumented application node: a synthetic
// workload of processes emitting instrumentation events through a
// configurable Local Instrumentation Server that forwards to a remote
// ISM (cmd/ismd) over TCP.
//
// Usage:
//
//	lisnode [-ism 127.0.0.1:7311] [-node 0] [-procs 4] [-rate 200]
//	        [-policy buffered|forwarding|daemon] [-buffer 64]
//	        [-duration 10s] [-seed 1] [-dial-timeout 5s] [-io-timeout 0]
//	        [-resilient] [-redial-backoff 50ms] [-redial-giveup 30s]
//	        [-window 256] [-heartbeat 1s]
//	        [-replay <spool|segfile|segdir>] [-speed 1]
//	        [-debug-addr host:port]
//
// With -replay the synthetic workload is skipped entirely: the named
// capture (a spool or other columnar segment file, or a Tiered
// segment directory) is re-emitted through per-node buffered LISes
// over the same wire path, with original timing scaled by -speed
// (0 = max-speed firehose). The run ends when the capture is
// exhausted; -duration, -procs, -rate, and -policy are ignored.
//
// With -resilient the node survives ISM connection faults: the
// connection redials with exponential backoff (bounded by
// -redial-giveup), every data batch is sequenced and retained in a
// -window-sized replay buffer until the ISM acknowledges it, and
// reconnects replay the unacked suffix. Every ismd runs the session
// protocol, so it acknowledges the batches and deduplicates the
// replays. Heartbeats let the ISM flag this node degraded when it
// falls silent. A nonzero -redial-giveup needs a nonzero
// -redial-backoff: the budget is spent in backoff sleeps.
//
// -debug-addr (off by default) serves net/http/pprof under
// /debug/pprof/ and the node's live metrics registry as JSON at
// /debug/metrics while the node runs.
//
// In a federated deployment, lisnodes keep pointing -ism at their
// leaf manager; it is the leaf that changes role (`ismd leaf -uplink
// <relay>`), forwarding its merged output up the tree to an
// `ismd relay` root. Nodes never talk to the relay directly.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/isruntime/debugsrv"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/fault"
	"prism/internal/isruntime/lis"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/rng"
	"prism/internal/workload"
)

func main() {
	ismAddr := flag.String("ism", "127.0.0.1:7311", "ISM address")
	node := flag.Int("node", 0, "node id")
	procs := flag.Int("procs", 4, "application processes on this node")
	rate := flag.Float64("rate", 200, "events per second per process")
	policy := flag.String("policy", "buffered", "LIS policy: buffered, forwarding or daemon")
	buffer := flag.Int("buffer", 64, "local buffer capacity (buffered) / pipe depth (daemon)")
	duration := flag.Duration("duration", 10*time.Second, "run time")
	seed := flag.Uint64("seed", 1, "workload seed")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "give up connecting to the ISM after this long")
	ioTimeout := flag.Duration("io-timeout", 0, "per-operation read/write deadline on the ISM connection (0 = none)")
	resilient := flag.Bool("resilient", false, "redial on connection faults and replay unacked batches")
	redialBackoff := flag.Duration("redial-backoff", 50*time.Millisecond, "with -resilient, initial reconnect backoff")
	redialGiveup := flag.Duration("redial-giveup", 30*time.Second, "with -resilient, give up after this much cumulative downtime in one outage (0 = retry forever)")
	window := flag.Int("window", 256, "with -resilient, unacked batches retained for replay")
	heartbeat := flag.Duration("heartbeat", time.Second, "with -resilient, liveness beacon interval (0 disables)")
	replayPath := flag.String("replay", "", "replay a captured trace (spool or segment file, or tier segment directory) instead of running the synthetic workload")
	speed := flag.Float64("speed", 1, "with -replay, timing scale: 1 = original pacing, 2 = twice as fast, 0 = max-speed firehose")
	debugAddr := flag.String("debug-addr", "", "serve pprof under /debug/pprof/ and the metrics snapshot at /debug/metrics on this address (off when empty)")
	flag.Parse()

	if err := validateSpeed(*speed); err != nil {
		log.Fatalf("lisnode: %v", err)
	}

	reg := metrics.NewRegistry()
	if *debugAddr != "" {
		dbg, err := debugsrv.Start(*debugAddr, reg)
		if err != nil {
			log.Fatalf("lisnode: -debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("lisnode: debug endpoint on http://%s/debug/", dbg.Addr())
	}
	connOpts := []tp.ConnOption{tp.WithConnMetrics(reg)}
	if *ioTimeout > 0 {
		connOpts = append(connOpts,
			tp.WithReadTimeout(*ioTimeout), tp.WithWriteTimeout(*ioTimeout))
	}

	var conn tp.Conn
	var sess *fault.Session
	if *resilient {
		redial, err := tp.NewRedial(tp.RedialConfig{
			Dial: func() (tp.Conn, error) {
				return tp.DialTimeout(*ismAddr, *dialTimeout, connOpts...)
			},
			Backoff:    *redialBackoff,
			MaxBackoff: 2 * time.Second,
			Jitter:     0.2,
			Seed:       *seed,
			GiveUp:     *redialGiveup,
			Metrics:    reg,
		})
		if err != nil {
			log.Fatalf("lisnode: -redial-giveup %v, -redial-backoff %v: %v", *redialGiveup, *redialBackoff, err)
		}
		sess = fault.NewSession(int32(*node), redial, fault.SessionConfig{
			Window: *window, Metrics: reg,
		})
		conn = sess
	} else {
		c, err := tp.DialTimeout(*ismAddr, *dialTimeout, connOpts...)
		if err != nil {
			log.Fatalf("lisnode: %v", err)
		}
		conn = c
	}
	defer conn.Close()

	if *replayPath != "" {
		recs, err := workload.LoadCapture(*replayPath)
		if err != nil {
			log.Fatalf("lisnode: %v", err)
		}
		rs := newReplaySession(conn, *buffer, reg)
		var shuttingDown atomic.Bool
		go func() {
			if err := lis.ControlLoop(conn, rs); err != nil && !shuttingDown.Load() {
				log.Printf("lisnode: control loop: %v", err)
			}
		}()
		stop := make(chan struct{})
		if sess != nil && *heartbeat > 0 {
			go heartbeatLoop(sess, *heartbeat, stop)
		}
		log.Printf("lisnode: replaying %d records from %s at speed %g -> %s",
			len(recs), *replayPath, *speed, *ismAddr)
		st, err := runReplay(rs, recs, *speed, nil)
		close(stop)
		if err != nil {
			log.Fatalf("lisnode: replay: %v", err)
		}
		// Whatever the ISM has not acknowledged goes out again (it dedupes),
		// bounded by the redial give-up budget.
		if sess != nil && !sess.Drain(*redialGiveup+5*time.Second) {
			log.Printf("lisnode: %d batches never acknowledged", sess.Pending())
		}
		shuttingDown.Store(true)
		lst := rs.Stats()
		fmt.Printf("replay done: records=%d batches=%d sources=%d wall=%s maxlag=%s\n",
			st.Records, st.Batches, st.Sources, st.Wall, st.MaxLag)
		fmt.Printf("lis: captured=%d forwarded=%d flushes=%d dropped=%d\n",
			lst.Captured, lst.Forwarded, lst.Flushes, lst.Dropped)
		return
	}

	var server lis.LIS
	var err error
	switch *policy {
	case "buffered":
		server, err = lis.NewBuffered(int32(*node), *buffer, conn, lis.WithMetrics(reg))
	case "forwarding":
		server, err = lis.NewForwarding(int32(*node), conn, lis.WithMetrics(reg))
	case "daemon":
		var d *lis.Daemon
		d, err = lis.NewDaemon(int32(*node), conn, *buffer, 16, lis.WithMetrics(reg))
		if err == nil {
			for p := 0; p < *procs; p++ {
				d.AttachProcess(int32(p))
			}
			server = d
		}
	default:
		log.Fatalf("lisnode: unknown policy %q", *policy)
	}
	if err != nil {
		log.Fatalf("lisnode: %v", err)
	}

	clock := event.NewRealClock()
	root := rng.New(*seed)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Obey ISM control signals (gang flush, pause/resume, shutdown).
	// In resilient mode conn is the session, so acks are consumed here
	// (trimming the replay window) before control traffic reaches the
	// dispatcher.
	var shuttingDown atomic.Bool
	go func() {
		if err := lis.ControlLoop(conn, server); err != nil && !shuttingDown.Load() {
			log.Printf("lisnode: control loop: %v", err)
		}
	}()
	if sess != nil && *heartbeat > 0 {
		go heartbeatLoop(sess, *heartbeat, stop)
	}
	for p := 0; p < *procs; p++ {
		sensor := event.NewSensor(int32(*node), int32(p), clock, server)
		stream := root.Split()
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			tag := uint16(0)
			for {
				gap := time.Duration(stream.ExpMean(1000 / *rate)) * time.Millisecond
				select {
				case <-stop:
					return
				case <-time.After(gap):
				}
				switch stream.Intn(4) {
				case 0:
					sensor.User(tag, int64(proc))
				case 1:
					sensor.Sample(1, int64(stream.Intn(100)))
				case 2:
					sensor.BlockIn(tag)
				default:
					sensor.BlockOut(tag)
				}
				tag++
			}
		}(p)
	}

	log.Printf("lisnode: node %d, %d processes, %s LIS -> %s", *node, *procs, *policy, *ismAddr)
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	if err := server.Flush(); err != nil {
		log.Printf("lisnode: final flush: %v", err)
	}
	if sess != nil && !sess.Drain(*redialGiveup+5*time.Second) {
		log.Printf("lisnode: %d batches never acknowledged", sess.Pending())
	}
	shuttingDown.Store(true)
	if err := server.Close(); err != nil {
		log.Printf("lisnode: close: %v", err)
	}
	st := server.Stats()
	fmt.Printf("node %d done: captured=%d forwarded=%d flushes=%d dropped=%d\n",
		*node, st.Captured, st.Forwarded, st.Flushes, st.Dropped)
	snap := reg.Snapshot()
	fmt.Printf("transport: msgs=%g bytes=%g errors=%g\n",
		snap.Value("tp.msgs_sent"), snap.Value("tp.bytes_tx"), snap.Value("tp.send_errors"))
	if recs := snap.Value("tp.recs_tx"); recs > 0 {
		fmt.Printf("wire: %.2f B/rec over %g records\n", snap.Value("tp.bytes_tx")/recs, recs)
	}
	if sess != nil {
		fmt.Printf("session: acked=%d redials=%g spilled=%d\n",
			sess.Acked(), snap.Value("tp.redials"), sess.Spilled())
	}
}

// validateSpeed rejects replay pacings the scaler cannot honor, before
// any connection is made. Zero is the documented max-speed firehose;
// negative and non-finite values used to fall through to the firehose
// path silently, so a typo'd "-speed -2" looked like a deliberate
// unpaced replay instead of the mistake it was.
func validateSpeed(speed float64) error {
	if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return fmt.Errorf("-speed must be a finite value >= 0 (0 = max-speed firehose), got %v", speed)
	}
	return nil
}

// heartbeatLoop emits session liveness beacons until stop closes.
func heartbeatLoop(sess *fault.Session, interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			_ = sess.Heartbeat()
		}
	}
}
