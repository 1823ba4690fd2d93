package flow

import (
	"fmt"
	"io"
	"sync"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// Tail is the dispatch end the flat ISM and the relay share (§2.2.2):
// Emit stamps a merged batch (causal ordering, when configured),
// appends it to the spool, hands it whole to every subscriber and
// counts it. The first spool failure is sticky: counted once, later
// batches skip the spool but still reach subscribers, and Flush and Err
// return it. Only Subscribe may race the dispatching goroutine, which
// holds no manager lock across a spool write.
type Tail struct {
	cm    *trace.CausalMerger // nil: records pass through unstamped
	out   []trace.Record      // the causal merger's release buffer
	spool *trace.Writer       // nil: no spool
	err   error

	subMu sync.Mutex
	subs  []func([]trace.Record)

	delivered, spoolErrs *metrics.Counter
}

// NewTail returns a tail that stamps when causal and appends to spool
// when it is non-nil. It counts released records in delivered and the
// first spool failure in spoolErrs, both under the caller's names.
func NewTail(causal bool, spool io.Writer, delivered, spoolErrs *metrics.Counter) *Tail {
	t := &Tail{delivered: delivered, spoolErrs: spoolErrs}
	if causal {
		t.cm = trace.NewCausalMerger()
	}
	if spool != nil {
		t.spool = trace.NewWriter(spool)
	}
	return t
}

// Subscribe registers fn for every batch released from now on, called
// after the subscribers registered before it. The slice is valid only
// for the duration of the call.
func (t *Tail) Subscribe(fn func([]trace.Record)) {
	t.subMu.Lock()
	t.subs = append(t.subs, fn)
	t.subMu.Unlock()
}

// Observe replays a record an earlier incarnation emitted into the
// causal merger's state (trace.CausalMerger.Observe), emitting nothing.
func (t *Tail) Observe(rec trace.Record) {
	if t.cm != nil {
		t.cm.Observe(rec)
	}
}

// Emit runs one batch, program-ordered per source, through the tail and
// returns what it released: rs itself when not causal, else the stamped
// releases, valid until the next Emit.
func (t *Tail) Emit(rs []trace.Record) []trace.Record {
	if t.cm != nil {
		rs = t.cm.AddBatchTo(t.out[:0], rs)
		t.out = rs
	}
	if len(rs) == 0 {
		return rs
	}
	if t.spool != nil && t.err == nil {
		t.fail(t.spool.WriteAll(rs))
	}
	t.subMu.Lock()
	subs := t.subs
	t.subMu.Unlock()
	for _, fn := range subs {
		fn(rs)
	}
	t.delivered.Add(uint64(len(rs)))
	return rs
}

// Flush seals what was emitted into the spool and returns the first
// spool failure, if any.
func (t *Tail) Flush() error {
	if t.spool != nil && t.err == nil {
		t.fail(t.spool.Flush())
	}
	return t.err
}

// Err returns the first spool failure, if any.
func (t *Tail) Err() error { return t.err }

// Holding reports the records the causal merger holds back and its
// out-of-order total: zero when not causal.
func (t *Tail) Holding() (held int, outOfOrder uint64) {
	if t.cm == nil {
		return 0, 0
	}
	return t.cm.Held(), t.cm.OutOfOrder()
}

func (t *Tail) fail(err error) {
	if err != nil {
		t.err = fmt.Errorf("flow: spool write: %w", err)
		t.spoolErrs.Inc()
	}
}
