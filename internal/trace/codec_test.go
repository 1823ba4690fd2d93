package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"prism/internal/rng"
)

func sampleRecords() []Record {
	return []Record{
		{Node: 0, Process: 0, Kind: KindMark, Tag: 1, Time: 10, Payload: 0},
		{Node: 1, Process: 2, Kind: KindSend, Tag: 7, Time: 20, Payload: 3},
		{Node: 3, Process: 0, Kind: KindRecv, Tag: 7, Time: 25, Logical: 9, Payload: 1},
		{Node: 2, Process: 1, Kind: KindSample, Tag: 400, Time: 30, Payload: -12345},
		{Node: 0, Process: 0, Kind: KindFlush, Tag: 0, Time: 99, Payload: 5_000_000},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rs := sampleRecords()
	if err := w.WriteAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(rs) {
		t.Fatalf("count %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], rs[i])
		}
	}
}

// TestAppendWriterContinuesStream covers the restart path: a second
// Writer appending to a stream the first one started must not emit a
// second header mid-file (a reader would misparse it as record bytes),
// and the combined stream must read back as one trace.
func TestAppendWriterContinuesStream(t *testing.T) {
	var buf bytes.Buffer
	rs := sampleRecords()
	w := NewWriter(&buf)
	if err := w.WriteAll(rs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	aw := NewAppendWriter(&buf)
	if err := aw.WriteAll(rs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 8 + len(rs)*RecordSize; buf.Len() != want {
		t.Fatalf("stream is %d bytes, want %d (one header)", buf.Len(), want)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("read %d records, want %d", len(got), len(rs))
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], rs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	st := rng.New(55)
	check := func() bool {
		n := st.Intn(50) + 1
		rs := make([]Record, n)
		for i := range rs {
			rs[i] = Record{
				Node:    int32(st.Intn(1024)),
				Process: int32(st.Intn(64)),
				Kind:    Kind(st.Intn(int(numKinds))),
				Tag:     uint16(st.Intn(65536)),
				Time:    int64(st.Uint64() >> 2),
				Logical: st.Uint64() >> 1,
				Payload: int64(st.Uint64()),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.WriteAll(rs) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range rs {
			if got[i] != rs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTraceHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("header-only trace is %d bytes", buf.Len())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace read: %v %v", got, err)
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("XXXXYYYY")
	_, err := NewReader(buf).Read()
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	buf := bytes.NewBufferString("PR")
	if _, err := NewReader(buf).Read(); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(sampleRecords()[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record should read: %v", err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated tail gave %v", err)
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := sampleRecords()[0]
	r.Kind = Kind(77)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).Read(); err == nil {
		t.Fatal("invalid kind accepted on read")
	}
}

func TestEncodeDecodeRecordDirect(t *testing.T) {
	r := Record{Node: -1, Process: -2, Kind: KindRecv, Tag: 65535,
		Time: -9999, Logical: 1 << 60, Payload: -1}
	var buf [RecordSize]byte
	EncodeRecord(&buf, r)
	if got := DecodeRecord(&buf); got != r {
		t.Fatalf("direct round trip: %+v != %+v", got, r)
	}
}
