package relay

// Kill is the tests' crash hook: it shuts the relay down
// crash-consistently. Records admitted but not yet emitted are
// abandoned (drained from the rings and discarded, never dispatched or
// acked), exactly as a real crash would lose them, and the spool
// flushes only what was emitted — the durable state a successor
// rebuilds from via Config.Resume. Every abandoned record is still
// covered by its downstream's replay window, because the dispatch gate
// never acknowledged it. It is the crash half of the crash-restart
// equivalence tests; Close is the orderly shutdown.
func (r *Relay) Kill() error {
	r.killed.Store(true)
	return r.Close()
}
