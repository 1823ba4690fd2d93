package tp

// Redial: a self-healing Conn. The paper's runtime layers assume the
// transfer protocol is "reliable" (§2.2.3), but a TCP conn dies with
// its peer; Redial restores the abstraction by re-establishing the
// underlying connection with exponential backoff whenever an operation
// fails retryably. It deliberately does NOT retransmit the failed
// message — Send may have handed a pooled batch to the wire encoder
// already — recovery of in-flight data is the session layer's job
// (internal/isruntime/fault), driven by the hook (SetOnConnect) that
// runs on every fresh connection before traffic resumes.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"prism/internal/isruntime/metrics"
	"prism/internal/rng"
)

// RedialConfig parameterizes a reconnecting connection.
type RedialConfig struct {
	// Dial establishes one underlying connection. Required. An error
	// that wraps ErrGiveUp ends the outage at once, as a spent GiveUp
	// budget does: the dialer knows the peer is not coming back.
	Dial func() (Conn, error)
	// Backoff is the delay before the second connection attempt of an
	// outage (the first is immediate); it doubles with every further
	// attempt. Zero keeps retries back-to-back (useful for in-process
	// transports and deterministic drivers).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 1s.
	MaxBackoff time.Duration
	// Jitter is the fraction of each backoff randomized symmetrically
	// around its nominal value, in [0,1). Zero disables jitter.
	Jitter float64
	// Seed drives the jitter stream, so backoff schedules replay
	// deterministically under a fixed seed.
	Seed uint64
	// GiveUp bounds the cumulative downtime of one outage: when an
	// outage's backoff sleeps have consumed this budget, the Redial
	// fails permanently with ErrGiveUp. Zero retries forever. Downtime
	// is counted in nominal sleeps, so a positive GiveUp needs a
	// positive Backoff.
	GiveUp time.Duration
	// Metrics, when non-nil, reports tp.redials, tp.dial_failures and
	// tp.redial_giveups through the registry.
	Metrics *metrics.Registry
	// Sleep replaces time.Sleep between attempts (deterministic
	// drivers pass a no-op). Nil means time.Sleep.
	Sleep func(time.Duration)
}

// Redial is a Conn that transparently re-establishes its underlying
// connection when operations fail retryably (Retryable). The failed
// operation itself still returns its error — callers that need
// delivery guarantees layer a replay session on top — but the next
// operation finds a fresh connection. Safe for one sender and one
// receiver goroutine, the usual LIS arrangement.
type Redial struct {
	cfg    RedialConfig
	jitter *rng.Stream

	redials      *metrics.Counter
	dialFailures *metrics.Counter
	giveups      *metrics.Counter

	mu        sync.Mutex
	cond      sync.Cond
	conn      Conn
	gen       uint64 // bumped on every established connection
	dials     uint64 // successful dials (first + redials)
	dialing   bool
	closed    bool
	gaveUp    bool
	onConnect func(Conn) error
}

// NewRedial creates a reconnecting connection. No connection is
// attempted until the first operation.
func NewRedial(cfg RedialConfig) (*Redial, error) {
	if cfg.Dial == nil {
		return nil, errors.New("tp: redial needs a Dial function")
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.GiveUp > 0 && cfg.Backoff <= 0 {
		return nil, fmt.Errorf("tp: redial give-up budget %v needs a positive backoff: with none, no downtime is ever counted against it", cfg.GiveUp)
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	r := &Redial{cfg: cfg, jitter: rng.New(cfg.Seed)}
	r.cond.L = &r.mu
	if cfg.Metrics != nil {
		s := cfg.Metrics.Scope("tp")
		r.redials = s.Counter("redials")
		r.dialFailures = s.Counter("dial_failures")
		r.giveups = s.Counter("redial_giveups")
	}
	return r, nil
}

// SetOnConnect installs the hook run on every established connection
// (including the first) before it carries traffic — the session
// layer's replay hook. An error discards the connection and counts as
// a failed attempt. It must be called before the first operation.
func (r *Redial) SetOnConnect(fn func(Conn) error) {
	r.mu.Lock()
	r.onConnect = fn
	r.mu.Unlock()
}

// Redials returns the number of successful re-establishments (the
// first connection is not counted).
func (r *Redial) Redials() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dials == 0 {
		return 0
	}
	return r.dials - 1
}

// current returns the live connection and its generation, dialing (or
// waiting for a concurrent dial) if necessary.
func (r *Redial) current() (Conn, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.closed:
			return nil, 0, ErrConnClosed
		case r.gaveUp:
			return nil, 0, ErrGiveUp
		case r.conn != nil:
			return r.conn, r.gen, nil
		case r.dialing:
			r.cond.Wait()
		default:
			r.dialing = true
			r.mu.Unlock()
			c, err := r.dialLoop()
			r.mu.Lock()
			r.dialing = false
			r.cond.Broadcast()
			if r.closed {
				if c != nil {
					_ = c.Close()
				}
				return nil, 0, ErrConnClosed
			}
			if err != nil {
				r.gaveUp = true
				return nil, 0, err
			}
			r.conn = c
			r.gen++
			r.dials++
			if r.dials > 1 && r.redials != nil {
				r.redials.Inc()
			}
			return r.conn, r.gen, nil
		}
	}
}

// dialLoop runs one outage's reconnection attempts: immediate first
// try, then exponential backoff with jitter, bounded by the GiveUp
// budget. Runs without the lock; only one goroutine is in here at a
// time (single-flight via r.dialing).
func (r *Redial) dialLoop() (Conn, error) {
	backoff := r.cfg.Backoff
	var downtime time.Duration
	for {
		c, err := r.cfg.Dial()
		if errors.Is(err, ErrGiveUp) {
			return nil, r.giveUp(err)
		}
		if err == nil {
			hook := r.hook()
			if hook == nil {
				return c, nil
			}
			if err = hook(c); err == nil {
				return c, nil
			}
			_ = c.Close()
		}
		if r.dialFailures != nil {
			r.dialFailures.Inc()
		}
		if r.isClosed() {
			return nil, ErrConnClosed
		}
		sleep := r.withJitter(backoff)
		downtime += sleep
		if r.cfg.GiveUp > 0 && downtime > r.cfg.GiveUp {
			return nil, r.giveUp(fmt.Errorf("%w after %v down: %v", ErrGiveUp, r.cfg.GiveUp, err))
		}
		if sleep > 0 {
			r.cfg.Sleep(sleep)
		}
		backoff = min(2*backoff, r.cfg.MaxBackoff)
	}
}

func (r *Redial) giveUp(err error) error {
	if r.giveups != nil {
		r.giveups.Inc()
	}
	return err
}

func (r *Redial) hook() func(Conn) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.onConnect
}

func (r *Redial) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// withJitter perturbs a backoff by ±Jitter fraction, deterministically
// under the configured seed.
func (r *Redial) withJitter(d time.Duration) time.Duration {
	if r.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + r.cfg.Jitter*(2*r.jitter.Float64()-1)
	return time.Duration(float64(d) * f)
}

// ColumnarActive implements ColumnarSender by deferring to the live
// underlying connection. Between connections (an outage, or before the
// first dial) it reports false: the next connection Dial returns may be
// of another kind.
func (r *Redial) ColumnarActive() bool {
	r.mu.Lock()
	c := r.conn
	r.mu.Unlock()
	if c == nil {
		return false
	}
	return ColumnarActive(c)
}

// markBroken discards the connection of the given generation so the
// next operation redials. A stale generation (another goroutine
// already replaced the conn) is a no-op.
func (r *Redial) markBroken(gen uint64) {
	r.mu.Lock()
	if r.gen == gen && r.conn != nil {
		_ = r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
}

// Send implements Conn. On a retryable failure the connection is torn
// down (the next operation redials) and the error is returned: the
// message is NOT retransmitted, because ownership of pooled records
// passed to the failed connection. Layer a fault.Session on top for
// replay.
func (r *Redial) Send(m Message) error {
	c, gen, err := r.current()
	if err != nil {
		Recycle(&m)
		return err
	}
	if err = c.Send(m); err != nil && Retryable(err) {
		r.markBroken(gen)
	}
	return err
}

// Recv implements Conn. Retryable receive failures (peer death,
// timeouts, corrupt frames) tear the connection down and transparently
// continue on the re-established one; Recv only returns an error once
// the Redial is closed or has given up.
func (r *Redial) Recv() (Message, error) {
	for {
		c, gen, err := r.current()
		if err != nil {
			if errors.Is(err, ErrConnClosed) {
				return Message{}, io.EOF
			}
			return Message{}, err
		}
		m, err := c.Recv()
		if err == nil {
			return m, nil
		}
		if !Retryable(err) {
			return Message{}, err
		}
		r.markBroken(gen)
		if r.isClosed() {
			return Message{}, io.EOF
		}
	}
}

// Close implements Conn: closes the underlying connection and stops
// all future redials.
func (r *Redial) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.conn
	r.conn = nil
	r.cond.Broadcast()
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
