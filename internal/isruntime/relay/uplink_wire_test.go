package relay

import (
	"io"
	"net"
	"testing"

	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
)

// uplinkWireBytesPerRec is the wire cost bound of
// TestUplinkFramesShipBases, in bytes per record. The stream it sends
// costs 7.45 B/rec with the logical column in the base form, which a
// DeferCausal leaf's restamped uplink sequence earns in every frame,
// and 8.81 with the delta column every frame carried before the base
// form existed: a change that breaks the sequence's contiguity within
// a frame crosses the bound.
const uplinkWireBytesPerRec = 7.8

// TestUplinkFramesShipBases drives a DeferCausal leaf's dispatch
// through its Uplink onto a stream conn and pins what each record costs
// on the wire: the leaf restamps every record with its source's uplink
// sequence, contiguous from 0, so each 512-record frame carries one
// base per source in place of a Logical column.
func TestUplinkFramesShipBases(t *testing.T) {
	client, server := net.Pipe()
	drained := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, server)
		close(drained)
	}()
	reg := metrics.NewRegistry()
	lf := newFedLeaf(1, tp.NewStreamConn(client, tp.WithConnMetrics(reg)), 512, nil)
	const n = 64 * 512
	lf.feed(genExecution(8, n, 49), 0)
	lf.finish()
	lf.close(t)
	<-drained
	bytes, recs := reg.Counter("tp.bytes_tx").Value(), reg.Counter("tp.recs_tx").Value()
	if recs != n+1 {
		t.Fatalf("sent %d records, want %d and the seal's mark", recs, n)
	}
	perRec := float64(bytes) / n
	t.Logf("%d bytes for %d records: %.2f B/rec", bytes, recs, perRec)
	if perRec > uplinkWireBytesPerRec {
		t.Fatalf("uplink frames cost %.2f B/rec, above the bound %.2f: has the uplink sequence stopped counting up by one per source within a frame?", perRec, uplinkWireBytesPerRec)
	}
}
