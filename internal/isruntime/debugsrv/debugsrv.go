// Package debugsrv is the live half of a running command's
// instrumentation: an opt-in HTTP endpoint (the -debug-addr flag of
// ismd and lisnode) that serves the Go runtime's profiles under
// /debug/pprof/ and the command's metrics registry as a JSON snapshot
// at /debug/metrics, so a manager or node can be asked where its time
// and records go without a restart or waiting for the shutdown table.
// Nothing listens unless a command is given an address.
package debugsrv

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"prism/internal/isruntime/metrics"
)

// Server is a listening debug endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start listens on addr and serves reg's endpoints until Close.
func Start(addr string, reg *metrics.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Its own mux: importing net/http/pprof also registers the
	// handlers on http.DefaultServeMux, which nothing here serves.
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the address the endpoint listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close closes the listener and every open connection, a profile in
// progress included, and returns once the serve loop has exited.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
