package trace

// Batch-column codec: the one encoder and the decoders shared by the
// columnar segment format (segment.go) and the transfer protocol's
// columnar wire frames (internal/isruntime/tp). Both encode a record
// run as seven concatenated columns:
//
//	0 time     delta-of-delta zigzag varints
//	1 logical  form byte, then a source count and one uvarint base per
//	           source, or delta-of-delta zigzag varints
//	2 node     run-length (len uvarint, value zigzag varint)
//	3 process  run-length (len uvarint, value zigzag varint)
//	4 kind     dictionary (size uvarint, kinds) + RLE indexes
//	5 tag      delta zigzag varints
//	6 payload  delta zigzag varints
//
// Segments wrap the columns with a footer index (per-column offsets,
// time ranges, per-source spans) for query skipping; wire frames ship
// them bare behind a short header, since a frame is decoded whole or
// not at all. One encoder writes both, so a record stream costs the
// same bytes per record on the wire as it does at rest.
//
// Logical holds a per-source sequence in every frame the runtime
// sends: an event.Sensor's capture sequence in a LIS frame, a
// DeferCausal leaf's restamped uplink sequence in an uplink frame, and
// either at rest in a capture stream. A causal merger's spool holds
// Lamport stamps instead, one per record across sources. When every
// source's Logical counts up by exactly one (wrapping) from its first
// record in the run, the column takes the base form: the number of
// sources, then each source's first Logical (its base) in the order the
// sources first appear, and a record's Logical is its source's base
// plus the number of its source's records before it. Otherwise, or
// when the bases would take more bytes, it takes the delta form, coded
// as the time column. The form byte says which; the data alone chooses
// (putLogicalCol). Logical column bytes per record and whole encodings'
// bytes per record, on the runtime benchmark's seed-1 block (before:
// the delta column every run carried, without a form byte):
//
//	                                 logical         whole run
//	                              before  after   before   after
//	uplink frame, 512 rec (leaf)   1.77   0.047    11.92   10.19
//	LIS frame, 256 rec (one node)  1.57   0.029    10.62    9.08
//	LIS frame, 32 rec (one node)   1.64   0.23     11.05    9.64
//	segment, 8192 rec (16 sources) 1.78   0.005    11.97   10.19
//
// A Lamport spool keeps its delta column, about a byte a record, and
// pays the form byte once per run.
//
// The decoders. A segment's footer supplies every column's start
// (decodeColumnsAt); a wire frame carries none, so DecodeColumns finds
// them first: the time and tag columns end at their len(out)-th
// terminator byte (skipVarints), the logical column past its form byte
// at its len(out)-th or its source count's (skipLogical), node, process
// and kind where their run loops stop, and payload at the end of buf.
// Both entries then share the column decoders:
//
//	column              decoder
//	node, process       decodeRunsCol
//	kind                decodeKindsCol
//	logical, bases      readBases reads the bases and numbers the
//	                    sources in a smallTable on the stack;
//	                    decodeVarintCols rebuilds each record's
//	                    Logical from it (varintCols.fast)
//	time, tag, payload  decodeVarintCols: side by side, in one pass,
//	  and logical,      with the delta form's logical as a fourth
//	  delta             column (varintCols.fastDelta)
//
// A smallTable indexes sources of small ids directly (node below 32,
// process below 8, at most 32 sources, which covers the runtime
// benchmark and a default lisnode): a record's lookup is two loads. A
// hashed table cost 4–8 ns/rec in an earlier prototype, against about
// 2.5 for the delta column's chain it replaces. A frame with any other
// source keeps the delta form: so does one holding an ISM's
// self-published metrics (node -1, or -1-N on a leaf), and a decoder
// refuses a base form whose sources do not fit the table. The rebuild
// runs inside decodeVarintCols's inner loop, where its lookups overlap
// the varint columns' chains; a separate rebuild loop measured 2.6–2.9
// ns/rec.
//
// The inner loops are shaped for the about 13 registers the compiler
// allocates: a cursor per varint column into one buf instead of column
// slices, the running deltas, the rebuild's table and the loop's index
// and bounds. A record's fields are its deltas added to the previous
// record's, read back from out rather than carried, and a stretch of
// records bounded once replaces a per-record counter. A fast record
// advances each cursor by at most four bytes, so a stretch ends where
// the payload cursor, the last in buf, could load past the end of buf;
// the other columns' loads may run past their column's end into the
// next one, which a well-formed column never reaches (decodeVarintCols
// redoes a stretch that did within every column's end, to name the
// column that fails). A varint longer than four bytes, the first record
// and a wire frame's last record leave the loop for binary.Uvarint,
// one record at a time. Bounding each stretch by every column's end at
// four bytes a record instead cut stretches short toward each column's
// end, the tag column's most, at about 1.4 bytes a record. Records out
// of line per frame, over 64 fresh frames of BenchmarkColumnsDecode's
// shapes (counted by a temporary counter in decodeVarintCols):
//
//	                  before   after
//	shuffled 32        3.27     2.16
//	flat 32            3.45     2.16
//	shuffled 256       3.25     2.06
//	flat 256           3.41     2.06
//
// The delta form decodes in the same pass with a fourth cursor
// (varintCols.fastDelta), its stretches bounded the same way: a Lamport
// run's 32- and 256-record frames send 4.00 records each out of line
// before and 2.16 and 2.11 after.
//
// What remains is the first record and the payload column's last: a
// wire frame ends with it, and a load there would pass the end of buf.
//
// Decode and encode ns/rec on fresh frames and 8192-record segments
// (BenchmarkColumnsDecode, BenchmarkColumnsEncode, BenchmarkSegmentDecode;
// the minimum of 12 runs, each change run alternating with one of the
// encoder and decoder before the base form, on a shared 2-vCPU x86-64
// host whose run-to-run spread is ±10 % and more):
//
//	                      decode         encode
//	                   before  after  before  after
//	wire shuffled 32    24.3   27.4    22.2   22.5
//	wire shuffled 256   16.9   17.3    18.6   17.4
//	wire shuffled 512   16.7   16.9    18.2   16.6
//	wire shuffled 8192  17.1   16.1    22.3   20.8
//	wire flat 32        23.5   22.9    20.6   17.8
//	wire flat 256       16.0   15.5    16.8   16.1
//	wire flat 512       15.6   14.5    16.4   15.8
//	wire flat 8192      15.6   14.9    19.8   17.8
//	wire lamport 32     25.5   25.0    22.0   20.4
//	wire lamport 256    17.2   17.5    17.9   17.9
//	wire lamport 512    16.7   17.2    17.5   17.4
//	wire lamport 8192   16.7   17.1    20.8   19.9
//	segment shuffled    16.4   16.3
//	segment flat        15.4   14.8
//	segment lamport     16.4   17.3
//
// Per-node frames (flat) and frames of a few sources gain: the base
// form skips the delta column's varints on both ends. A 32-record frame
// of 14 sources on average (shuffled 32, a shape the runtime does not
// send by default: a LIS frame holds one node's records) decodes
// slower: its 14 bases are read one after another, the sources
// numbered over nearly every record, and each base serves two records.
// Its encode holds only because the kind column's table now starts
// zeroed (putKindCol): filling it with -1, 256 stores a frame, cost
// each record of a 32-record frame about as much as the scan does.
// Lamport runs differ by less than the spread.
//
// Measured varint lengths in 8192-record segments of the runtime
// benchmark's seed-1 stream (1 / 2 / 3 bytes), the logical column's in
// the delta form:
//
//	time     2.4 % / 82.5 % / 15.0 %
//	logical 21.7 % / 78.3 %
//	tag     66.5 % / 28.4 % /  5.1 %
//	payload 22.2 % / 14.4 % / 63.4 %
//
// So no single length dominates; the interleaved decoder resolves any
// varint of up to four bytes without a branch on its length.
//
// Measured mean run lengths, in records, of the same segments and of
// the per-node frames a LIS flushes (256 records):
//
//	          segment   frame
//	node       1.14      256 (one run)
//	process    2.00      1.99
//	kind       1.32      1.30
//
// A segment pays about 2.1 runs per record, a frame about 1.3. So the
// run loops read a one-byte (length, value) pair inline and fill ahead:
// each run writes its value into fillAhead slots from its start,
// whenever that many remain in out, before its length is looked at,
// and loops only past them. Slots past the run's end belong to later
// runs, which overwrite them, so a run of up to fillAhead records costs
// no loop and no branch on its length.
//
// The encoder does not branch per record on a run's end or a varint's
// length either. With such branches it cost 57–64 ns/rec inside the
// runtime but 23–36 in a benchmark that encoded one batch over and
// over: a branch predictor learns a batch it sees repeatedly, the
// runtime never encodes a batch twice, and so each of those branches
// mispredicts at the rate the data varies. Instead:
//
//   - putIDCol (node, process) and putKindCol store, at every record,
//     the one-byte (length, value) pair of the run ending just before
//     it, and move the cursor past it only when the record starts a
//     new run, which compiles to a conditional move. One OR over the
//     column shows whether any pair needed more than a byte; such a
//     column is re-encoded by a loop over its runs. A node column whose
//     first and last ids match goes to that loop at once: a per-node
//     frame's is one run as long as the frame, which the loop writes
//     without a misprediction and no one-byte pair can hold.
//   - put4 writes a varint below 1<<28 as one 4-byte store, its length
//     and continuation bits looked up by the value's bit length.
//   - putLogicalCol's scan (baseScan.scan) branches per record only on
//     what a qualifying frame never holds (a source that does not count
//     up, too many sources); a source's first record takes conditional
//     moves. With a branch there, whole 32-record frames of 14 sources
//     encoded 38 % slower than before the base form, with the moves
//     28 %, and with the moves and the kind table zeroed at parity.
//
// Per column, ns/rec on 256-record per-node frames, 64 fresh batches /
// one batch repeated, measured before the base form existed, with
// logical in the delta form (BenchmarkColumnEncode, medians of 5 runs
// on a 2-vCPU x86-64 host; branchy: the plain per-column loops, timed
// by the same benchmark):
//
//	          branchy       this encoder
//	time      6.8 / 4.9     6.0 / 5.4
//	logical   7.5 / 4.3     5.1 / 5.1
//	node      1.2 / 1.2     0.9 / 0.8   (one run: the loop over runs)
//	process   8.4 / 2.9     3.4 / 3.8
//	kind      8.5 / 5.4     5.2 / 4.8
//	tag       8.8 / 4.3     4.9 / 4.6
//	payload  10.3 / 6.0     5.4 / 5.2
//
// A time-ordered multi-node batch's node column costs 6.0 / 4.3
// branchy and 4.2 / 3.5 here. Whole fresh frames of 256 records
// (BenchmarkColumnsEncode): 63 ns/rec branchy, 35 here.
//
// Delta arithmetic is two's-complement wrapping in both directions, so
// every int64/uint64 bit pattern round-trips exactly. Decoders never
// panic on hostile input; structural failures wrap ErrBadSegment and
// name the column.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

const numColumns = 7

var colNames = [numColumns]string{"time", "logical", "node", "process", "kind", "tag", "payload"}

// zigzag maps signed values to unsigned so small-magnitude deltas of
// either sign encode in few varint bytes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// MaxColumnsSize bounds the encoded size of AppendColumns for n
// records: the worst case per record is two 10-byte delta-of-delta
// varints, two singleton RLE runs (1+5 bytes each), a 2-byte kind run,
// a 3-byte tag delta and a 10-byte payload delta, plus the kind
// dictionary and slack. Decoders use it to reject absurd length claims
// before buffering.
func MaxColumnsSize(n int) int { return 48*n + 320 }

// wideStoreSlack is how far past the end of an encoding the encoder
// may store: put4 writes any varint of up to four bytes as one 4-byte
// store. MaxColumnsSize stays at least this far above the largest
// encoding of n records (TestMaxColumnsSizeBound), so appendColumns
// grows dst by the bound alone.
const wideStoreSlack = 3

// ColumnCodec encodes record batches as concatenated columns, reusing
// its scratch across calls so steady-state encoding performs no
// allocation beyond output growth. The zero value is ready. It is not
// safe for concurrent use; give each goroutine its own.
type ColumnCodec struct {
	kinds []byte
	scan  baseScan
}

// AppendColumns appends the seven-column encoding of rs to dst and
// returns the extended slice. Decode with DecodeColumns and the same
// record count.
func (cc *ColumnCodec) AppendColumns(dst []byte, rs []Record) []byte {
	var off [numColumns]int
	return cc.appendColumns(dst, rs, &off)
}

// appendColumns is the one column encoder, behind wire frames and
// segments alike. It records in off where each column starts in dst,
// which a segment's footer keeps. dst is grown once, to the size bound,
// and every column writes by cursor into its capacity; the loops are
// specialized per field, with no indirect call per record per column.
func (cc *ColumnCodec) appendColumns(dst []byte, rs []Record, off *[numColumns]int) []byte {
	dst = slices.Grow(dst, MaxColumnsSize(len(rs)))
	b := dst[:cap(dst)]
	p := len(dst)
	off[0] = p
	p = putTimeCol(b, p, rs)
	off[1] = p
	p = putLogicalCol(b, p, rs, &cc.scan)
	off[2] = p
	p = putIDCol(b, p, rs, 2)
	off[3] = p
	p = putIDCol(b, p, rs, 3)
	off[4] = p
	p, cc.kinds = putKindCol(b, p, rs, cc.kinds)
	off[5] = p
	p = putTagCol(b, p, rs)
	off[6] = p
	p = putPayloadCol(b, p, rs)
	return b[:p]
}

// putTimeCol writes the time column of rs at b[p:] and returns the
// cursor past it; the other put*Col functions do the same for theirs.
// A varint column writes each value below 1<<28 with put4, and larger
// ones, which the measured streams hardly hold, byte by byte.
func putTimeCol(b []byte, p int, rs []Record) int {
	var prev, prevDelta int64
	for i := range rs {
		v := rs[i].Time
		delta := v - prev
		u := zigzag(delta - prevDelta)
		prev, prevDelta = v, delta
		if u >= 1<<28 {
			p += binary.PutUvarint(b[p:], u)
			continue
		}
		p = put4(b, p, u)
	}
	return p
}

// Logical column forms: the column's first byte.
const (
	// logicalDelta: one delta-of-delta zigzag varint per record, as the
	// time column.
	logicalDelta = 0
	// logicalBases: a source count, then one base per source in the
	// order the sources first appear; a record's Logical is its
	// source's base plus the number of that source's records before it.
	logicalBases = 1
)

// putLogicalCol writes the logical column. When every source's Logical
// counts up by exactly one (wrapping) from its first record in rs, the
// sources fit a smallTable, and the source count and bases take no more
// bytes than the delta form would, the column is in the base form;
// otherwise in the delta form. A delta column spends at least a byte a
// record, so bases within len(rs) bytes need no delta pass to compare
// against; larger ones are written over the delta column when they are
// no larger than it. t is the codec's scratch table.
func putLogicalCol(b []byte, p int, rs []Record, t *baseScan) int {
	n, ok := t.scan(rs)
	size := 0
	if ok {
		size = uvarintLen(uint64(n))
		for _, u := range t.first[:n] {
			size += uvarintLen(u)
		}
		if size <= len(rs) {
			return putBaseForm(b, p, t.first[:n])
		}
	}
	b[p] = logicalDelta
	e := putDeltaCol(b, p+1, rs)
	if ok && size <= e-p-1 {
		return putBaseForm(b, p, t.first[:n])
	}
	return e
}

// putBaseForm writes the base form of a logical column with the given
// bases at b[p:], each below 1<<28 by one put4.
func putBaseForm(b []byte, p int, bases []uint64) int {
	b[p] = logicalBases
	p++
	p += binary.PutUvarint(b[p:], uint64(len(bases)))
	for _, u := range bases {
		if u >= 1<<28 {
			p += binary.PutUvarint(b[p:], u)
			continue
		}
		p = put4(b, p, u)
	}
	return p
}

// uvarintLen is the length of u's varint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// putDeltaCol writes the delta form's varints of rs's Logical fields.
func putDeltaCol(b []byte, p int, rs []Record) int {
	var prev, prevDelta int64
	for i := range rs {
		v := int64(rs[i].Logical)
		delta := v - prev
		u := zigzag(delta - prevDelta)
		prev, prevDelta = v, delta
		if u >= 1<<28 {
			p += binary.PutUvarint(b[p:], u)
			continue
		}
		p = put4(b, p, u)
	}
	return p
}

// Small source ids index a smallTable directly: a node below smallNodes
// and a process below smallProcs, which every source of the runtime
// benchmark and of a default lisnode has. A frame with another source,
// or with more than smallSources sources, keeps the delta form.
const (
	smallNodes   = 32
	smallProcs   = 8
	smallSources = 32
)

// smallTable is a frame-local source table: each small (node, process)
// id's slot holds its source's index plus one, sources indexed from 0
// in the order they first appear, 0 while unseen; next holds by index
// the source's next Logical. A record's lookup is two loads, into a
// table on the decoder's stack or in the encoder's ColumnCodec. Index
// smallSources of next is the encoder's, for a record past a full
// table.
type smallTable struct {
	slot [smallNodes * smallProcs]uint8
	next [smallSources + 1]uint64
	// sources is the number of bases a decoder read.
	sources int
}

// smallIDs reports whether a node id and a process id, or the ORs of
// several, fit a smallTable. It divides rather than multiplies: a
// product can wrap a large id round to a small one.
func smallIDs(node, proc uint32) bool { return node/smallNodes|proc/smallProcs == 0 }

// smallKey returns the slot of r's source in a smallTable, where its
// ids fit one (smallIDs); the slot of some other source otherwise.
func smallKey(r *Record) uint32 {
	return (uint32(r.Node)*smallProcs + uint32(r.Process)) & (smallNodes*smallProcs - 1)
}

// srcIndex returns the index of a source from its slot's value j > 0.
func srcIndex(j uint8) uint8 { return (j - 1) & (smallSources - 1) }

// take returns the next Logical of the source whose slot holds j > 0,
// and counts it.
func (t *smallTable) take(j uint8) uint64 {
	v := t.next[srcIndex(j)]
	t.next[srcIndex(j)] = v + 1
	return v
}

// baseScan is the encoder's smallTable, with each source's first
// Logical by index. A scan clears the slots alone: it uses no first or
// next entry it has not written.
type baseScan struct {
	smallTable
	first [smallSources + 1]uint64
}

// scan returns the number of sources in rs, and whether rs can take the
// base form: every source fits the table and counts up by one from its
// first Logical. It stops at the first record that does not count up,
// so a stream that does not qualify, such as a Lamport-stamped one,
// costs a few records; in one that does, no branch in the loop is
// taken. A source's first record takes no branch either, since such
// records come at a rate the data sets: each record stores its Logical
// as the first, and its successor as the next, of the source it would
// start (index n), and where its slot still reads 0, conditional moves
// number the source n+1 and expect the record's own Logical. The expected Logical is loaded by
// the slot's value before those moves, since the compiler keeps a
// branch for a value that addresses a load. Ids past the table's alias
// others' slots; their OR, checked at the end, rejects the frame.
func (t *baseScan) scan(rs []Record) (int, bool) {
	clear(t.slot[:])
	n := 0
	var nodes, procs uint32
	for i := range rs {
		r := &rs[i]
		nodes, procs = nodes|uint32(r.Node), procs|uint32(r.Process)
		k, v := smallKey(r), r.Logical
		t.first[n], t.next[n] = v, v+1
		j := int(t.slot[k])
		e := t.next[(j-1)&(smallSources-1)]
		t.next[(j-1)&(smallSources-1)] = v + 1
		if j == 0 {
			e = v
		}
		if j == 0 {
			j = n + 1
		}
		t.slot[k] = uint8(j)
		n = max(n, j)
		if e != v || n > smallSources {
			return n, false
		}
	}
	return n, smallIDs(nodes, procs)
}

func putTagCol(b []byte, p int, rs []Record) int {
	var prev int64
	for i := range rs {
		v := int64(rs[i].Tag)
		// A tag delta is below 1<<17 either way: its zigzag form takes
		// at most three bytes.
		p = put4(b, p, zigzag(v-prev))
		prev = v
	}
	return p
}

func putPayloadCol(b []byte, p int, rs []Record) int {
	var prev int64
	for i := range rs {
		v := rs[i].Payload
		u := zigzag(v - prev)
		prev = v
		if u >= 1<<28 {
			p += binary.PutUvarint(b[p:], u)
			continue
		}
		p = put4(b, p, u)
	}
	return p
}

// put4 writes the varint of u < 1<<28 at b[p:] and returns the cursor
// past it. It spreads u's 7-bit groups over one 4-byte store and sets
// each byte's continuation bit when a later byte is non-zero, so no
// branch depends on the varint's length (header). The bytes stored
// past the varint are overwritten by the next one or lie in the
// wideStoreSlack capacity.
func put4(b []byte, p int, u uint64) int {
	x := u&0x3fff | u<<2&0x3fff0000
	w := uint32(x&0x007f007f | x<<1&0x7f007f00)
	e := varint4Tab[bits.Len32(uint32(u))&31]
	binary.LittleEndian.PutUint32(b[p:], w|uint32(e))
	return p + int(e>>32)
}

// varint4Tab holds, by the bit length of a value below 1<<28, its
// varint's continuation bits (low word) and length (high word).
var varint4Tab = func() (t [32]uint64) {
	for l := range t {
		n := min(max(1, (l+6)/7), 4)
		t[l] = uint64(n)<<32 | uint64(0x808080>>(8*(4-n)))
	}
	return t
}()

// putIDCol writes the node (ci 2) or process (ci 3) column as
// run-length pairs. Every record stores the one-byte (length, value)
// pair of the run ending just before it, at the cursor, and the cursor
// moves past the pair only when the record starts a new run; the last
// run's pair is stored after the loop. So no branch depends on where
// runs end (header). If any run length or value needs more than one
// byte, which the OR of all of them shows once per column, the column
// is re-encoded by putRuns. A node column whose first and last ids
// match, as a per-node frame's does, goes to putRuns at once: it is
// most likely one run, which putRuns writes with one predictable loop.
func putIDCol(b []byte, p int, rs []Record, ci int) int {
	id := func(i int) int32 {
		if ci == 2 {
			return rs[i].Node
		}
		return rs[i].Process
	}
	if len(rs) == 0 || ci == 2 && id(0) == id(len(rs)-1) {
		return putRuns(b, p, rs, ci)
	}
	start, s, v := p, 0, id(0)
	var wide uint64
	for i := 1; i < len(rs); i++ {
		z := zigzag(int64(v))
		wide |= uint64(i-s) | z
		b[p], b[p+1] = byte(i-s), byte(z)
		next := id(i)
		if next != v {
			p += 2
			s = i
		}
		v = next
	}
	z := zigzag(int64(v))
	if wide|uint64(len(rs)-s)|z >= 0x80 {
		return putRuns(b, start, rs, ci)
	}
	b[p], b[p+1] = byte(len(rs)-s), byte(z)
	return p + 2
}

// putRuns writes the node (ci 2) or process (ci 3) column as
// run-length pairs, one varint each, looping over every run: the
// general form of putIDCol.
func putRuns(b []byte, p int, rs []Record, ci int) int {
	for i := 0; i < len(rs); {
		j := i + 1
		var v int32
		if ci == 2 {
			v = rs[i].Node
			for j < len(rs) && rs[j].Node == v {
				j++
			}
		} else {
			v = rs[i].Process
			for j < len(rs) && rs[j].Process == v {
				j++
			}
		}
		p += binary.PutUvarint(b[p:], uint64(j-i))
		p += binary.PutUvarint(b[p:], zigzag(int64(v)))
		i = j
	}
	return p
}

// putKindCol writes the kind column as a first-appearance dictionary
// followed by run-length encoded dictionary indexes, each a length
// varint and a one-byte index. The runs are written as putIDCol
// writes its pairs, and re-encoded by a loop over every run when one is
// longer than 127 records. The scratch slice is the caller's reusable
// dictionary buffer; the (possibly grown) slice is returned for reuse.
func putKindCol(b []byte, p int, rs []Record, scratch []byte) (int, []byte) {
	// idx holds a seen kind's dictionary index with bit 8 set, and 0 for
	// a kind not seen, so the table starts zeroed rather than filled;
	// byte(idx[k]) is the index.
	var idx [256]uint16
	scratch = scratch[:0]
	for i := range rs {
		k := byte(rs[i].Kind)
		if idx[k] == 0 {
			idx[k] = uint16(len(scratch)) | 0x100
			scratch = append(scratch, k)
		}
	}
	p += binary.PutUvarint(b[p:], uint64(len(scratch)))
	p += copy(b[p:], scratch)
	if len(rs) == 0 {
		return p, scratch
	}
	start, s, k := p, 0, rs[0].Kind
	var wide int
	for i := 1; i < len(rs); i++ {
		wide |= i - s
		b[p], b[p+1] = byte(i-s), byte(idx[k])
		next := rs[i].Kind
		if next != k {
			p += 2
			s = i
		}
		k = next
	}
	if wide|(len(rs)-s) < 0x80 {
		b[p], b[p+1] = byte(len(rs)-s), byte(idx[k])
		return p + 2, scratch
	}
	p = start
	for i := 0; i < len(rs); {
		k := rs[i].Kind
		j := i + 1
		for j < len(rs) && rs[j].Kind == k {
			j++
		}
		p += binary.PutUvarint(b[p:], uint64(j-i))
		b[p] = byte(idx[k])
		p++
		i = j
	}
	return p, scratch
}

// DecodeColumns decodes exactly len(out) records from the concatenated
// column encoding in buf. The whole buffer must be consumed; trailing
// bytes, truncation, and malformed runs all fail with an error wrapping
// ErrBadSegment, and out is left in an unspecified state on failure.
// With out sized by the caller the decode performs no allocation.
//
// A wire frame carries no column offsets, so DecodeColumns finds them
// before decoding: the time and tag columns each end at their
// len(out)-th terminator byte (high bit clear), counted eight bytes at
// a time, and the logical column at its own count of varints after its
// form byte; node, process and kind end where their run loops stop; and
// payload runs to the end of buf. The logical column and the varint
// columns then decode in decodeLogicalCol, as a segment's do.
func DecodeColumns(buf []byte, out []Record) error {
	var off [numColumns + 1]int
	var ids [numColumns]uint32
	for ci := range numColumns - 1 {
		col := buf[off[ci]:]
		var err error
		switch ci {
		case 1:
			col, err = skipLogical(col, len(out))
		case 2, 3:
			col, ids[ci], err = decodeRunsCol(col, ci, out)
		case 4:
			col, err = decodeKindsCol(col, out)
		default:
			col, err = skipVarints(col, len(out), ci)
		}
		if err != nil {
			return err
		}
		off[ci+1] = len(buf) - len(col)
	}
	off[numColumns] = len(buf)
	return decodeLogicalCol(buf, &off, out, smallIDs(ids[2], ids[3]))
}

// skipVarints returns what follows the first n varints of column ci at
// the front of col: the bytes past its n-th terminator. Whole 8-byte
// words are counted until the one holding that terminator, which a
// byte loop then finds. The varints themselves are left for the column
// decoders to check.
func skipVarints(col []byte, n, ci int) ([]byte, error) {
	p := 0
	for ; p+8 <= len(col); p += 8 {
		c := bits.OnesCount64(^binary.LittleEndian.Uint64(col[p:]) & 0x8080808080808080)
		if c >= n {
			break
		}
		n -= c
	}
	for ; n > 0 && p < len(col); p++ {
		if col[p] < 0x80 {
			n--
		}
	}
	if n > 0 {
		return nil, fmt.Errorf("%w: %s column truncated, %d varints short", ErrBadSegment, colNames[ci], n)
	}
	return col[p:], nil
}

// skipLogical returns what follows a logical column of n records at the
// front of col: its form byte, then n delta varints, or a source count
// and that many bases.
func skipLogical(col []byte, n int) ([]byte, error) {
	_, varints, rest, err := logicalHead(col, n)
	if err != nil {
		return nil, err
	}
	return skipVarints(rest, varints, 1)
}

// logicalHead reads the head of a logical column of n records at the
// front of col: its form, and for the delta form n, for the base form
// its source count, which must not exceed n. It returns that count of
// varints that follow, and the bytes that hold them.
func logicalHead(col []byte, n int) (byte, int, []byte, error) {
	if len(col) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: logical column missing its form byte", ErrBadSegment)
	}
	switch col[0] {
	case logicalDelta:
		return logicalDelta, n, col[1:], nil
	case logicalBases:
		sources, rest, err := uvarintSlow(col[1:], "logical")
		if err != nil {
			return 0, 0, nil, err
		}
		if sources > uint64(n) {
			return 0, 0, nil, fmt.Errorf("%w: logical column claims %d bases for %d records", ErrBadSegment, sources, n)
		}
		return logicalBases, int(sources), rest, nil
	}
	return 0, 0, nil, fmt.Errorf("%w: logical column of unknown form %d", ErrBadSegment, col[0])
}

// decodeColumnsAt decodes exactly len(out) records from the seven
// columns of buf, column ci spanning buf[off[ci]:off[ci+1]]. Every
// column must be consumed exactly. The node, process and kind columns
// go through the run loops DecodeColumns uses, the logical and varint
// columns through decodeLogicalCol.
// out is left in an unspecified state on failure. The decode performs
// no allocation.
func decodeColumnsAt(buf []byte, off *[numColumns + 1]int, out []Record) error {
	var ids [numColumns]uint32
	for _, ci := range [...]int{2, 3, 4} {
		col := buf[off[ci]:off[ci+1]]
		var err error
		if ci == 4 {
			col, err = decodeKindsCol(col, out)
		} else {
			col, ids[ci], err = decodeRunsCol(col, ci, out)
		}
		if err != nil {
			return err
		}
		if len(col) != 0 {
			return trailing(len(col), ci)
		}
	}
	return decodeLogicalCol(buf, off, out, smallIDs(ids[2], ids[3]))
}

// decodeLogicalCol decodes the logical column of buf and, through
// decodeVarintCols, the other varint columns; it needs out's node and
// process fields decoded. small says whether every record's source has
// a slot in a smallTable. decodeVarintCols decodes the delta form's
// varints with the other columns; for the base form, readBases first
// reads the bases and numbers the sources in a table on the stack,
// which only this form zeroes. A base form whose sources do not fit
// the table, which the encoder never writes, fails.
func decodeLogicalCol(buf []byte, off *[numColumns + 1]int, out []Record, small bool) error {
	form, sources, rest, err := logicalHead(buf[off[1]:off[2]], len(out))
	switch {
	case err != nil:
		return err
	case form == logicalDelta:
		return decodeVarintCols(buf, off, out, nil)
	case !small || sources > smallSources:
		return fmt.Errorf("%w: logical column has bases for %d sources outside the source table", ErrBadSegment, sources)
	}
	var t smallTable
	if err := t.readBases(rest, sources, out); err != nil {
		return err
	}
	return decodeVarintCols(buf, off, out, &t)
}

// readBases reads the sources bases in col, which must hold nothing
// else, into t, and numbers the sources in the order they first appear
// in out: the bases' order. It reads records only until every source
// has its number, and fails if fewer sources appear. A record's
// Logical is its source's base plus the number of the source's records
// before it in out, which decodeVarintCols sets with the other fields
// (rebuild); a record of a source past the bases finds no number there.
// Every record's source must have a slot in t, and sources is at most
// smallSources. A source's first record takes a conditional move, as
// in baseScan.scan, rather than a branch.
func (t *smallTable) readBases(col []byte, sources int, out []Record) error {
	p := 0
	for j := range sources {
		// A base of up to four bytes, the common case, decodes from one
		// 4-byte load.
		if p+4 <= len(col) {
			if w := word(col, p); ^w&0x80808080 != 0 {
				m := ^w & 0x80808080
				t.next[j&(smallSources-1)] = uvarint4(w, m)
				p += varintLen(m)
				continue
			}
		}
		u, n := binary.Uvarint(col[p:])
		if n <= 0 {
			return fmt.Errorf("%w: truncated or overlong base of source %d in logical column", ErrBadSegment, j)
		}
		t.next[j&(smallSources-1)], p = u, p+n
	}
	if p != len(col) {
		return trailing(len(col)-p, 1)
	}
	n := 0
	for i := 0; i < len(out) && n < sources; i++ {
		k := smallKey(&out[i])
		j := int(t.slot[k])
		if j == 0 {
			j = n + 1
		}
		t.slot[k] = uint8(j)
		n = max(n, j)
	}
	t.sources = sources
	if n != sources {
		return fmt.Errorf("%w: logical column has %d bases for %d sources", ErrBadSegment, sources, n)
	}
	return nil
}

// decodeVarintCols decodes the time, tag and payload fields of len(out)
// records from those columns of buf, column ci spanning
// buf[off[ci]:off[ci+1]], and requires each to be consumed exactly.
// Without t it decodes Logical from the delta form's varints, past the
// logical column's form byte, with them. With t, a base-form logical
// column's table (readBases), it sets each record's Logical from its
// source's entry instead, and fails at a record whose source has none.
// The columns are decoded together, one record at a time, each by a
// cursor into buf: stretches of records whose varints fit in 4 bytes
// go through fast (or fastDelta), and the first record, and each one a
// longer varint or the end of buf stops a stretch at, through
// binary.Uvarint out of line.
func decodeVarintCols(buf []byte, off *[numColumns + 1]int, out []Record, t *smallTable) error {
	c := varintCols{pt: off[0], pl: off[1] + 1, pg: off[5], pp: off[6], t: t}
	et, el, eg, ep := off[1], off[2], off[6], off[7]
	if t != nil {
		// No logical cursor: one at its column's end never moves.
		c.pl = el
	}
	var prev Record // the record before out[i]; zero before the first
	for i := 0; i < len(out); i++ {
		// A fast record advances each cursor by at most 4 bytes, and the
		// payload cursor is the last in buf, so a stretch of records
		// out[i:end] loads 4 bytes in every column without passing the
		// end of buf. The loads may run past a column's end: a column
		// holding its records' varints and no fewer still ends each one
		// within itself, so only a malformed column leaves a cursor past
		// its end. Its stretch is then decoded again within every
		// column's end, which leaves the record that fails to
		// binary.Uvarint to name. The first attempt has counted the
		// stretch's records in t, so the second rebuilds wrong Logical
		// values; none is returned, since the decode fails: a column
		// whose varints run past its end before len(out) of them cannot
		// hold len(out) within it. A stretch decoded to its end is
		// followed by the next one; an empty stretch, or one cut short
		// by a longer varint, leaves out[i] to binary.Uvarint.
		for i > 0 && i < len(out) {
			end := min(len(out), i+(len(buf)-c.pp)>>2)
			from := c
			n := c.stretch(buf, out[i-1:end])
			if c.pt > et || c.pl > el || c.pg > eg || c.pp > ep {
				c = from
				room := min(et-c.pt, eg-c.pg, ep-c.pp)
				if t == nil {
					room = min(room, el-c.pl)
				}
				end = min(len(out), i+room>>2)
				n = c.stretch(buf, out[i-1:end])
			}
			i += n
			if n == 0 || i < end {
				break
			}
		}
		if i == len(out) {
			break
		}
		if i > 0 {
			prev = out[i-1]
		}
		// A varint longer than four bytes, or one near the end of buf:
		// this record takes binary.Uvarint in every column.
		var ut, ug, up uint64
		var err error
		if ut, c.pt, err = uvarintAt(buf[:et], c.pt, 0, i); err != nil {
			return err
		}
		r := &out[i]
		if t == nil {
			var ul uint64
			if ul, c.pl, err = uvarintAt(buf[:el], c.pl, 1, i); err != nil {
				return err
			}
			c.deltaL += unzigzag(ul)
			r.Logical = prev.Logical + uint64(c.deltaL)
		}
		if ug, c.pg, err = uvarintAt(buf[:eg], c.pg, 5, i); err != nil {
			return err
		}
		if up, c.pp, err = uvarintAt(buf[:ep], c.pp, 6, i); err != nil {
			return err
		}
		c.deltaT += unzigzag(ut)
		r.Time = prev.Time + c.deltaT
		r.Tag = prev.Tag + uint16(unzigzag(ug))
		r.Payload = prev.Payload + unzigzag(up)
		if t != nil {
			j := t.slot[smallKey(r)]
			if j == 0 {
				return fmt.Errorf("%w: logical column has %d bases for more sources", ErrBadSegment, t.sources)
			}
			r.Logical = t.take(j)
		}
	}
	switch {
	case c.pt != et:
		return trailing(et-c.pt, 0)
	case c.pl != el:
		return trailing(el-c.pl, 1)
	case c.pg != eg:
		return trailing(eg-c.pg, 5)
	case c.pp != ep:
		return trailing(ep-c.pp, 6)
	}
	return nil
}

// varintCols is decodeVarintCols's state between records: a cursor
// into buf per column, the running deltas of the time and the delta
// form's logical column (delta-of-delta coded) and, for a base-form
// logical column, the source table its Logical is rebuilt from.
type varintCols struct {
	pt, pl, pg, pp int
	deltaT, deltaL int64
	t              *smallTable
}

// stretch decodes a stretch of records into o[1:] through the loop of
// the logical column's form, and returns how many it decoded.
func (c *varintCols) stretch(buf []byte, o []Record) int {
	if c.t != nil {
		return c.fast(buf, o)
	}
	return c.fastDelta(buf, o)
}

// fast decodes records into o[1:] while every column's varint ends
// within the 4 bytes at its cursor, and returns how many it decoded;
// the caller sizes o so that no load passes the end of buf. o[0] is
// the record before them. Each record's fields are its deltas added to
// the previous record's, read back from o rather than carried: the
// loop's other values (three cursors, a running delta, the table, its
// index and the bases and bounds of buf and o) already fill most of
// the registers the compiler allocates, and each value carried in a
// register past that goes to the stack and back every record.
func (c *varintCols) fast(buf []byte, o []Record) int {
	pt, pg, pp := c.pt, c.pg, c.pp
	deltaT, t := c.deltaT, c.t
	k := 1
	for ; k < len(o); k++ {
		wt := word(buf, pt)
		wg := word(buf, pg)
		wp := word(buf, pp)
		// A clear high bit ends a varint: each mask is non-zero when
		// its varint ends within the 4-byte word.
		mt, mg, mp := ^wt&0x80808080, ^wg&0x80808080, ^wp&0x80808080
		if mt == 0 || mg == 0 || mp == 0 {
			break
		}
		p, r := &o[k-1], &o[k]
		// The rebuild's table lookups overlap the varints' chains. A
		// record whose source has no number leaves the loop untouched,
		// and fails out of line.
		j := t.slot[smallKey(r)]
		if j == 0 {
			break
		}
		r.Logical = t.take(j)
		deltaT += varint4(wt, mt)
		r.Time = p.Time + deltaT
		pt += varintLen(mt)
		r.Tag = p.Tag + uint16(varint4(wg, mg))
		pg += varintLen(mg)
		r.Payload = p.Payload + varint4(wp, mp)
		pp += varintLen(mp)
	}
	c.pt, c.pg, c.pp = pt, pg, pp
	c.deltaT = deltaT
	return k - 1
}

// fastDelta is fast for a logical column in the delta form: its
// varints are a fourth column, decoded as the time column's.
func (c *varintCols) fastDelta(buf []byte, o []Record) int {
	pt, pl, pg, pp := c.pt, c.pl, c.pg, c.pp
	deltaT, deltaL := c.deltaT, c.deltaL
	k := 1
	for ; k < len(o); k++ {
		wt := word(buf, pt)
		wl := word(buf, pl)
		wg := word(buf, pg)
		wp := word(buf, pp)
		mt, ml := ^wt&0x80808080, ^wl&0x80808080
		mg, mp := ^wg&0x80808080, ^wp&0x80808080
		if mt == 0 || ml == 0 || mg == 0 || mp == 0 {
			break
		}
		p, r := &o[k-1], &o[k]
		deltaT += varint4(wt, mt)
		r.Time = p.Time + deltaT
		pt += varintLen(mt)
		deltaL += varint4(wl, ml)
		r.Logical = p.Logical + uint64(deltaL)
		pl += varintLen(ml)
		r.Tag = p.Tag + uint16(varint4(wg, mg))
		pg += varintLen(mg)
		r.Payload = p.Payload + varint4(wp, mp)
		pp += varintLen(mp)
	}
	c.pt, c.pl, c.pg, c.pp = pt, pl, pg, pp
	c.deltaT, c.deltaL = deltaT, deltaL
	return k - 1
}

// varint4 decodes the zigzag varint at the front of the little-endian
// word w, where m = ^w & 0x80808080 is non-zero: the lowest set bit of
// m is the high bit of the varint's last byte. x keeps the bytes below
// that bit without their continuation bits, 7-bit groups b0..b3 from
// the low byte up, which two adds join. x + x&0x007f007f doubles b0 and
// b2, so y = 2·P0 + 2^17·P1 with P0 = b0 + b1<<7 and P1 = b2 + b3<<7,
// and y + 3·(y&0x7fff) = 8·(P0 + P1<<14) is eight times the varint.
// Shifted by four it is the zigzag magnitude; the sign is b0's low bit.
func varint4(w, m uint32) int64 {
	x := w & (m - 1) & 0x7f7f7f7f
	y := x + x&0x007f007f
	return int64((y+3*(y&0x7fff))>>4) ^ -int64(w&1)
}

// uvarint4 is varint4 for a varint that is not zigzag coded.
func uvarint4(w, m uint32) uint64 {
	x := w & (m - 1) & 0x7f7f7f7f
	y := x + x&0x007f007f
	return uint64((y + 3*(y&0x7fff)) >> 3)
}

// word loads the 4 bytes at buf[p:]. The full slice expression spares
// the pointer adjustment a slice that might be empty needs.
func word(buf []byte, p int) uint32 { return binary.LittleEndian.Uint32(buf[p : p+4 : p+4]) }

// varintLen is the length of the varint varint4 decodes from a word
// with mask m.
func varintLen(m uint32) int { return bits.TrailingZeros32(m)>>3 + 1 }

// uvarintAt reads the varint at col[p:] for record i of column ci,
// returning it and the cursor past it.
func uvarintAt(col []byte, p, ci, i int) (uint64, int, error) {
	u, n := binary.Uvarint(col[p:])
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: truncated or overlong varint in %s column at record %d", ErrBadSegment, colNames[ci], i)
	}
	return u, p + n, nil
}

func trailing(n, ci int) error {
	return fmt.Errorf("%w: %d trailing bytes in %s column", ErrBadSegment, n, colNames[ci])
}

// decodeRunsCol decodes len(out) run-length encoded node (ci 2) or
// process (ci 3) ids from the front of col, returning the remaining
// bytes and the OR of the ids as uint32, which bounds them all when
// they are not negative. A pair of one-byte varints is read inline,
// anything longer by rleRun, and each run fills ahead (header).
func decodeRunsCol(col []byte, ci int, out []Record) ([]byte, uint32, error) {
	p, n := 0, len(out)
	var ids uint32
	for i := 0; i < n; {
		var runLen uint64
		var v int32
		if p+1 < len(col) && col[p]|col[p+1] < 0x80 {
			b := col[p+1]
			runLen, v = uint64(col[p]), int32(b>>1)^-int32(b&1)
			p += 2
			// A zero runLen wraps round: one compare rejects it too.
			if runLen-1 >= uint64(n-i) {
				return nil, 0, runErr(colNames[ci], runLen, n-i)
			}
		} else {
			rl, u, rest, err := rleRun(col[p:], colNames[ci], n-i)
			if err != nil {
				return nil, 0, err
			}
			runLen, v, col, p = uint64(rl), int32(u), rest, 0
		}
		ids |= uint32(v)
		j := i
		if i+fillAhead <= n {
			w := out[i : i+fillAhead : i+fillAhead]
			if ci == 2 {
				w[0].Node, w[1].Node, w[2].Node, w[3].Node = v, v, v, v
			} else {
				w[0].Process, w[1].Process, w[2].Process, w[3].Process = v, v, v, v
			}
			j += fillAhead
		}
		i += int(runLen)
		if j < i {
			if rest := out[j:i]; ci == 2 {
				for k := range rest {
					rest[k].Node = v
				}
			} else {
				for k := range rest {
					rest[k].Process = v
				}
			}
		}
	}
	return col[p:], ids, nil
}

// fillAhead is how many slots a run writes before its length is looked
// at (header). Four covers 15 in 16 process runs and nearly every node
// and kind run of a time-ordered multi-source stream; a decode that
// fails leaves out unspecified anyway. The fills are written out four
// wide: a loop over them, or eight slots, measured slower. The id
// loop's window is a full slice expression, which spares it the
// pointer adjustment a slice that might be empty needs; the kind loop's
// byte stores take their address from that adjustment, and cost more
// without it.
const fillAhead = 4

// rleRun decodes one (runLength, value) pair whose varints are not
// both one byte, bounds-checking the run against the records
// remaining.
func rleRun(col []byte, name string, remaining int) (int, int64, []byte, error) {
	runLen, col, err := uvarintSlow(col, name)
	if err != nil {
		return 0, 0, nil, err
	}
	u, col, err := uvarintSlow(col, name)
	if err != nil {
		return 0, 0, nil, err
	}
	if runLen == 0 || runLen > uint64(remaining) {
		return 0, 0, nil, runErr(name, runLen, remaining)
	}
	return int(runLen), unzigzag(u), col, nil
}

// runErr reports a run of length zero or longer than the remaining
// records.
func runErr(name string, runLen uint64, remaining int) error {
	return fmt.Errorf("%w: %s run of %d exceeds remaining %d records", ErrBadSegment, name, runLen, remaining)
}

// uvarintSlow reads one varint from col, returning the remaining bytes.
// Callers resolve the one-byte case inline before calling it: a
// wrapper that did so would exceed the inlining budget.
func uvarintSlow(col []byte, what string) (uint64, []byte, error) {
	u, n := binary.Uvarint(col)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated or overlong varint in %s column", ErrBadSegment, what)
	}
	return u, col[n:], nil
}

// decodeKindsCol decodes len(out) dictionary-coded kinds from the
// front of col, returning the remaining bytes. Like decodeRunsCol it
// reads a one-byte run length inline and fills ahead (header).
func decodeKindsCol(col []byte, out []Record) ([]byte, error) {
	dictLen, col, err := uvarintSlow(col, "kind")
	if err != nil {
		return nil, err
	}
	if dictLen > 256 || dictLen > uint64(len(col)) {
		return nil, fmt.Errorf("%w: kind dictionary of %d entries in %d bytes", ErrBadSegment, dictLen, len(col))
	}
	dict := col[:dictLen]
	col = col[dictLen:]
	for _, k := range dict {
		if !Kind(k).Valid() {
			return nil, fmt.Errorf("%w: kind dictionary holds invalid kind %d", ErrBadSegment, k)
		}
	}
	p, n := 0, len(out)
	for i := 0; i < n; {
		// A run is a length varint and a one-byte index.
		var runLen uint64
		if p < len(col) && col[p] < 0x80 {
			runLen = uint64(col[p])
			p++
		} else {
			if runLen, col, err = uvarintSlow(col[p:], "kind"); err != nil {
				return nil, err
			}
			p = 0
		}
		if p >= len(col) {
			return nil, fmt.Errorf("%w: kind run missing dictionary index", ErrBadSegment)
		}
		idx := col[p]
		p++
		if runLen-1 >= uint64(n-i) {
			return nil, runErr("kind", runLen, n-i)
		}
		if uint64(idx) >= dictLen {
			return nil, fmt.Errorf("%w: kind dictionary index %d out of %d", ErrBadSegment, idx, dictLen)
		}
		k := Kind(dict[idx])
		j := i
		if i+fillAhead <= n {
			w := out[i : i+fillAhead]
			w[0].Kind, w[1].Kind, w[2].Kind, w[3].Kind = k, k, k, k
			j += fillAhead
		}
		i += int(runLen)
		for ; j < i; j++ {
			out[j].Kind = k
		}
	}
	return col[p:], nil
}
