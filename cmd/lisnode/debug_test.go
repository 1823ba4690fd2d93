package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when a test starts the test binary
// as a lisnode, with the command line in LISNODE_ARGS.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LISNODE_ARGS"); ok {
		os.Args = append([]string{"lisnode"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDebugAddr runs a lisnode with -debug-addr against a manager
// (one that acks its session, so the node's drain ends at once): while
// it runs, the pprof index answers and the metrics snapshot names
// metrics of the catalogue (testdata/metric_names.golden); once it
// exits, nothing listens.
func TestDebugAddr(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "metric_names.golden"))
	if err != nil {
		t.Fatal(err)
	}
	catalogued := map[string]bool{}
	for _, name := range strings.Fields(string(golden)) {
		catalogued[name] = true
	}
	m := startISM(t)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "LISNODE_ARGS=-ism "+m.addr+
		" -node 0 -procs 1 -rate 2000 -duration 2s -debug-addr 127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrs := make(chan string, 1)
	go func() {
		const logged = "debug endpoint on http://"
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			if _, rest, ok := strings.Cut(sc.Text(), logged); ok {
				addrs <- strings.TrimSuffix(rest, "/debug/")
			}
		}
		close(addrs)
	}()
	addr, ok := <-addrs
	if !ok {
		t.Fatalf("lisnode exited without a debug endpoint: %v", cmd.Wait())
	}

	base := "http://" + addr + "/debug/"
	resp, err := http.Get(base + "pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ answered %s", resp.Status)
	}
	// The LIS registers its metrics once it has dialed, just after the
	// endpoint opens.
	var snap []struct{ Name string }
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(base + "metrics")
		if err != nil {
			t.Fatal(err)
		}
		snap = snap[:0]
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/metrics: %v", err)
		}
		if slices.ContainsFunc(snap, func(m struct{ Name string }) bool { return catalogued[m.Name] }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/metrics names no catalogued metric: %v", snap)
		}
	}

	for range addrs { // stderr reaches EOF before Wait may close it
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("lisnode: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "node 0 done:") {
		t.Fatalf("lisnode did not finish its run:\n%s", stdout.String())
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("the debug endpoint outlived the node")
	}
}
