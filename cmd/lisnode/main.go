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
//	        [-redial-backoff 50ms] [-redial-giveup 30s]
//	        [-window 256] [-heartbeat 1s] [-debug-addr host:port]
//	lisnode -replay <spool|segfile|segdir> [-speed 1] [the flags above
//	        but -procs, -rate, -policy and -duration]
//
// With -replay the named capture (a spool or other columnar segment
// file, or a Tiered segment directory) replaces the synthetic workload:
// it is re-emitted through a buffered LIS over the same wire path, with
// original timing scaled by -speed (0 = max-speed firehose). A flag
// that only the other mode reads is rejected.
//
// The node survives ISM connection faults: every data batch is
// sequenced and retained in a -window-sized replay buffer until the ISM
// acknowledges it, and the connection redials with exponential backoff
// (bounded by -redial-giveup; a nonzero budget needs a nonzero
// -redial-backoff) and replays the unacked suffix, which the ISM
// deduplicates. Heartbeats let the ISM flag a silent node degraded. The
// first connection is dialed before the run, so an unreachable -ism
// fails within -dial-timeout. -io-timeout bounds each write; reads take
// no deadline, as acks and control traffic are sporadic.
//
// The run ends at -duration, at the end of the capture, or at the
// manager's shutdown, whichever comes first. The node then stops its
// workload, flushes its LIS, waits for the ISM to acknowledge every
// batch, hangs up and reports; a manager that is shutting down closes
// once its nodes have hung up.
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
	"io"
	"log"
	"math"
	"os"
	"strings"
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
	"prism/internal/trace"
	"prism/internal/workload"
)

// settings holds the command line.
type settings struct {
	ism, policy, replay, debugAddr         string
	node, procs, buffer, window            int
	rate, speed                            float64
	duration, dialTimeout, ioTimeout       time.Duration
	redialBackoff, redialGiveup, heartbeat time.Duration
	seed                                   uint64
}

// parseArgs reads the command line. handling and out go to the
// flag.FlagSet.
func parseArgs(args []string, handling flag.ErrorHandling, out io.Writer) (*settings, error) {
	s := &settings{}
	fs := flag.NewFlagSet("lisnode", handling)
	fs.SetOutput(out)
	fs.StringVar(&s.ism, "ism", "127.0.0.1:7311", "ISM address")
	fs.IntVar(&s.node, "node", 0, "node id")
	fs.IntVar(&s.procs, "procs", 4, "application processes on this node")
	fs.Float64Var(&s.rate, "rate", 200, "events per second per process")
	fs.StringVar(&s.policy, "policy", "buffered", "LIS policy: buffered, forwarding or daemon")
	fs.IntVar(&s.buffer, "buffer", 64, "local buffer capacity (buffered, replay) / pipe depth (daemon)")
	fs.DurationVar(&s.duration, "duration", 10*time.Second, "run time")
	fs.Uint64Var(&s.seed, "seed", 1, "workload and redial jitter seed")
	fs.DurationVar(&s.dialTimeout, "dial-timeout", 5*time.Second, "give up connecting to the ISM after this long")
	fs.DurationVar(&s.ioTimeout, "io-timeout", 0, "per-write deadline on the ISM connection (0 = none)")
	fs.DurationVar(&s.redialBackoff, "redial-backoff", 50*time.Millisecond, "initial reconnect backoff")
	fs.DurationVar(&s.redialGiveup, "redial-giveup", 30*time.Second, "give up after this much cumulative downtime in one outage (0 = retry forever)")
	fs.IntVar(&s.window, "window", 256, "unacked batches retained for replay")
	fs.DurationVar(&s.heartbeat, "heartbeat", time.Second, "liveness beacon interval (0 disables)")
	fs.StringVar(&s.replay, "replay", "", "replay a captured trace (spool or segment file, or tier segment directory) instead of running the synthetic workload")
	fs.Float64Var(&s.speed, "speed", 1, "with -replay, timing scale: 1 = original pacing, 2 = twice as fast, 0 = max-speed firehose")
	fs.StringVar(&s.debugAddr, "debug-addr", "", "serve pprof under /debug/pprof/ and the metrics snapshot at /debug/metrics on this address (off when empty)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := validateModeFlags(fs, s.replay != ""); err != nil {
		return nil, err
	}
	if err := validateSpeed(s.speed); err != nil {
		return nil, err
	}
	switch s.policy {
	case "buffered", "forwarding", "daemon":
		return s, nil
	}
	return nil, fmt.Errorf("unknown policy %q", s.policy)
}

// validateModeFlags rejects flags that were explicitly set but that the
// mode does not read: the synthetic workload's with -replay, -speed
// without it. Accepting them silently would let a run that typo'd its
// mode look configured as asked.
func validateModeFlags(fs *flag.FlagSet, replay bool) error {
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "procs", "rate", "policy", "duration":
			if replay {
				stray = append(stray, "-"+f.Name)
			}
		case "speed":
			if !replay {
				stray = append(stray, "-"+f.Name)
			}
		}
	})
	if len(stray) == 0 {
		return nil
	}
	if replay {
		return fmt.Errorf("%s: not valid with -replay, which replaces the synthetic workload", strings.Join(stray, ", "))
	}
	return fmt.Errorf("-speed: valid only with -replay")
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

// dial connects to the manager and wraps the connection in the session
// every batch travels through. The Redial takes the connection dialed
// here as its first and redials later outages. Once shutdown has
// closed, the manager has announced its stop, so a lost connection is
// the manager leaving: the Redial gives up at once.
func dial(s *settings, reg *metrics.Registry, shutdown <-chan struct{}) (*fault.Session, error) {
	opts := []tp.ConnOption{tp.WithConnMetrics(reg)}
	if s.ioTimeout > 0 {
		opts = append(opts, tp.WithWriteTimeout(s.ioTimeout))
	}
	first := make(chan tp.Conn, 1)
	redial, err := tp.NewRedial(tp.RedialConfig{
		Dial: func() (tp.Conn, error) {
			select {
			case c := <-first:
				return c, nil
			case <-shutdown:
				return nil, fmt.Errorf("%w: the manager has shut down", tp.ErrGiveUp)
			default:
				return tp.DialTimeout(s.ism, s.dialTimeout, opts...)
			}
		},
		Backoff:    s.redialBackoff,
		MaxBackoff: 2 * time.Second,
		Jitter:     0.2,
		Seed:       s.seed,
		GiveUp:     s.redialGiveup,
		Metrics:    reg,
	})
	if err != nil {
		return nil, fmt.Errorf("-redial-giveup %v, -redial-backoff %v: %w", s.redialGiveup, s.redialBackoff, err)
	}
	c, err := tp.DialTimeout(s.ism, s.dialTimeout, opts...)
	if err != nil {
		return nil, err
	}
	first <- c
	sess := fault.NewSession(int32(s.node), redial, fault.SessionConfig{Window: s.window, Metrics: reg})
	// A first heartbeat sends the hello now: a hello that raced the
	// run's first batch would replay it.
	return sess, sess.Heartbeat()
}

// newLIS builds the -policy LIS, forwarding on conn.
func newLIS(s *settings, conn tp.Conn, reg *metrics.Registry) (lis.LIS, error) {
	switch s.policy {
	case "forwarding":
		return lis.NewForwarding(int32(s.node), conn, lis.WithMetrics(reg))
	case "daemon":
		d, err := lis.NewDaemon(int32(s.node), conn, s.buffer, 16, lis.WithMetrics(reg))
		if err != nil {
			return nil, err
		}
		for p := 0; p < s.procs; p++ {
			d.AttachProcess(int32(p))
		}
		return d, nil
	}
	return lis.NewBuffered(int32(s.node), s.buffer, conn, lis.WithMetrics(reg))
}

// synthesize runs the synthetic workload: -procs processes emitting
// events at -rate each into server, for -duration or until stop closes.
func synthesize(s *settings, server lis.LIS, stop <-chan struct{}) {
	clock := event.NewRealClock()
	root := rng.New(s.seed)
	end := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < s.procs; p++ {
		sensor := event.NewSensor(int32(s.node), int32(p), clock, server)
		stream := root.Split()
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			tag := uint16(0)
			for {
				gap := time.Duration(stream.ExpMean(1000/s.rate)) * time.Millisecond
				select {
				case <-end:
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
	select {
	case <-time.After(s.duration):
	case <-stop:
	}
	close(end)
	wg.Wait()
}

// managed is the node's LIS as lis.ControlLoop drives it: the manager's
// CtlShutdown calls end instead of closing the LIS under a workload
// that is still capturing. Flush and Pause reach the LIS.
type managed struct {
	lis.LIS
	end func()
}

func (m managed) Close() error { m.end(); return nil }

func (m managed) Pause(on bool) {
	if p, ok := m.LIS.(lis.Pauser); ok {
		p.Pause(on)
	}
}

// run is the lifecycle both workloads share. One reader serves the
// session until it closes: the manager's control traffic, and then,
// once the manager's shutdown has ended the control loop and closed
// shutdown, the acks that still trim the replay window. The run ends
// when feed returns (the workload ended) or at that shutdown, whichever
// comes first; feed stops then, so nothing is captured into a closed
// LIS. Closing the LIS is the final flush, and the replay window drains
// before the report.
func run(s *settings, sess *fault.Session, server lis.LIS, feed func(stop <-chan struct{}) error,
	shutdown chan struct{}, reg *metrics.Registry, out io.Writer) error {
	var once sync.Once
	var ending atomic.Bool
	go func() {
		ctl := managed{server, func() { once.Do(func() { close(shutdown) }) }}
		if err := lis.ControlLoop(sess, ctl); err != nil && !ending.Load() {
			log.Printf("lisnode: control loop: %v", err)
		}
		for {
			m, err := sess.Recv()
			if err != nil {
				return
			}
			tp.Recycle(&m)
		}
	}()
	stop := make(chan struct{})
	var beats sync.WaitGroup
	if s.heartbeat > 0 {
		beats.Add(1)
		go func() {
			defer beats.Done()
			tick := time.NewTicker(s.heartbeat)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = sess.Heartbeat()
				}
			}
		}()
	}
	fed := make(chan error, 1)
	go func() { fed <- feed(stop) }()

	var err error
	select {
	case err = <-fed:
		close(stop)
	case <-shutdown:
		log.Printf("lisnode: the manager is shutting down; ending the run")
		close(stop)
		err = <-fed
	}
	beats.Wait()
	if cerr := server.Close(); cerr != nil {
		log.Printf("lisnode: final flush: %v", cerr)
	}
	// Whatever the ISM has not acknowledged goes out again (it dedupes).
	// A manager that shut down and hung up ends the drain at once; the
	// bound is for one that is gone without a word.
	if !sess.Drain(s.redialGiveup + 5*time.Second) {
		log.Printf("lisnode: %d batches never acknowledged", sess.Pending())
	}
	// Closing the session hangs up, which a stopping manager waits for,
	// and ends the reader; a redial in progress may hold it up to
	// -dial-timeout, so it is not awaited.
	ending.Store(true)
	_ = sess.Close()

	st := server.Stats()
	fmt.Fprintf(out, "node %d done: captured=%d forwarded=%d flushes=%d dropped=%d\n",
		s.node, st.Captured, st.Forwarded, st.Flushes, st.Dropped)
	snap := reg.Snapshot()
	fmt.Fprintf(out, "transport: msgs=%g bytes=%g errors=%g\n",
		snap.Value("tp.msgs_sent"), snap.Value("tp.bytes_tx"), snap.Value("tp.send_errors"))
	if recs := snap.Value("tp.recs_tx"); recs > 0 {
		fmt.Fprintf(out, "wire: %.2f B/rec over %g records\n", snap.Value("tp.bytes_tx")/recs, recs)
	}
	fmt.Fprintf(out, "session: acked=%d redials=%g spilled=%d\n",
		sess.Acked(), snap.Value("tp.redials"), sess.Spilled())
	return err
}

func main() {
	s, err := parseArgs(os.Args[1:], flag.ExitOnError, os.Stderr)
	if err != nil {
		log.Fatalf("lisnode: %v", err)
	}
	var recs []trace.Record
	if s.replay != "" {
		if recs, err = workload.LoadCapture(s.replay); err != nil {
			log.Fatalf("lisnode: %v", err)
		}
	}
	reg := metrics.NewRegistry()
	if s.debugAddr != "" {
		dbg, err := debugsrv.Start(s.debugAddr, reg)
		if err != nil {
			log.Fatalf("lisnode: -debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("lisnode: debug endpoint on http://%s/debug/", dbg.Addr())
	}
	shutdown := make(chan struct{})
	sess, err := dial(s, reg, shutdown)
	if err != nil {
		log.Fatalf("lisnode: %v", err)
	}
	var server lis.LIS
	var feed func(stop <-chan struct{}) error
	if s.replay == "" {
		server, err = newLIS(s, sess, reg)
		feed = func(stop <-chan struct{}) error {
			synthesize(s, server, stop)
			return nil
		}
		log.Printf("lisnode: node %d, %d processes, %s LIS -> %s", s.node, s.procs, s.policy, s.ism)
	} else {
		server, err = lis.NewBuffered(int32(s.node), s.buffer, sess, lis.WithMetrics(reg))
		feed = func(stop <-chan struct{}) error {
			st, err := runReplay(server, s.buffer, recs, s.speed, stop)
			fmt.Printf("replay done: records=%d batches=%d sources=%d wall=%s maxlag=%s\n",
				st.Records, st.Batches, st.Sources, st.Wall, st.MaxLag)
			return err
		}
		log.Printf("lisnode: replaying %d records from %s at speed %g -> %s", len(recs), s.replay, s.speed, s.ism)
	}
	if err != nil {
		log.Fatalf("lisnode: %v", err)
	}
	if err := run(s, sess, server, feed, shutdown, reg, os.Stdout); err != nil {
		log.Fatalf("lisnode: %v", err)
	}
}
