package lis

import (
	"io"
	"math/rand"
	"net"
	"testing"

	"prism/internal/isruntime/event"
	"prism/internal/isruntime/metrics"
	"prism/internal/isruntime/tp"
	"prism/internal/trace"
)

// captureWireBytesPerRec is the wire cost bound of
// TestCaptureFramesShipBases, in bytes per record. The stream it sends
// costs 7.31 B/rec with the logical column in the base form, which a
// sensor's per-source capture sequence earns in every frame, and 8.42
// with the delta column every frame carried before the base form
// existed: a change that breaks the sequence's contiguity within a
// frame crosses the bound.
const captureWireBytesPerRec = 7.6

// TestCaptureFramesShipBases drives the capture path as a node runs it
// (event.Sensor → Buffered → stream conn) and pins what each record
// costs on the wire: four processes' sensors capture into one buffered
// LIS of 256 records, whose frames go out columnar, each carrying its
// sources' capture sequences as one base per source.
func TestCaptureFramesShipBases(t *testing.T) {
	client, server := net.Pipe()
	drained := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, server)
		close(drained)
	}()
	reg := metrics.NewRegistry()
	conn := tp.NewStreamConn(client, tp.WithConnMetrics(reg))
	b, err := NewBuffered(3, 256, conn)
	if err != nil {
		t.Fatal(err)
	}
	var clock event.VirtualClock
	sensors := make([]*event.Sensor, 4)
	for p := range sensors {
		sensors[p] = event.NewSensor(3, int32(p), &clock, b)
	}
	rng := rand.New(rand.NewSource(49))
	for range 64 * 256 {
		clock.Advance(100 + rng.Int63n(400))
		s := sensors[rng.Intn(len(sensors))]
		switch rng.Intn(4) {
		case 0:
			s.Send(uint16(rng.Intn(64)), int32(rng.Intn(8)))
		case 1:
			s.Recv(uint16(rng.Intn(64)), int32(rng.Intn(8)))
		default:
			s.Emit(trace.KindUser, uint16(rng.Intn(16)), rng.Int63n(1000))
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	bytes, recs := reg.Counter("tp.bytes_tx").Value(), reg.Counter("tp.recs_tx").Value()
	if recs != 64*256 {
		t.Fatalf("sent %d records, want %d", recs, 64*256)
	}
	perRec := float64(bytes) / float64(recs)
	t.Logf("%d bytes for %d records: %.2f B/rec", bytes, recs, perRec)
	if perRec > captureWireBytesPerRec {
		t.Fatalf("capture frames cost %.2f B/rec, above the bound %.2f: has a source's capture sequence stopped counting up by one within a frame?", perRec, captureWireBytesPerRec)
	}
}
