package debugsrv

import (
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"prism/internal/isruntime/metrics"
)

// TestServerEndpoints: the pprof index answers, the metrics snapshot
// is JSON with kinds by name and live values, and Close takes the
// listener down.
func TestServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("ism.arrived").Add(3)
	reg.Histogram("ism.latency_ns").Observe(10)
	s, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ answered %s", resp.Status)
	}
	reg.Counter("ism.arrived").Inc()
	resp, err = http.Get("http://" + s.Addr() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap []struct {
		Name, Kind string
		Value      float64
		Count      uint64
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 || snap[0].Name != "ism.arrived" || snap[0].Kind != "counter" || snap[0].Value != 4 ||
		snap[1].Kind != "histogram" || snap[1].Count != 1 {
		t.Fatalf("/debug/metrics served %+v", snap)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("the endpoint still accepts connections after Close")
	}
}
