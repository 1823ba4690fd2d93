package trace

// Batch-column codec: the one encoder and the decoders shared by the
// columnar segment format (segment.go) and the transfer protocol's
// columnar wire frames (internal/isruntime/tp). Both encode a record
// run as seven concatenated columns:
//
//	0 time     delta-of-delta zigzag varints
//	1 logical  delta-of-delta zigzag varints (ingest ticks)
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
// There is one decoder, decodeVarintCols: given every column's start,
// it reads the four varint columns side by side in one pass, four
// independent dependency chains instead of four serial loops. A
// segment's footer supplies the starts (decodeColumnsAt); a wire frame
// carries none, so DecodeColumns finds them first by counting varint
// terminator bytes and running the node, process and kind run loops.
// Both entries share those run loops (decodeRunsCol, decodeKindsCol).
//
// The decoder's inner loop (varintCols.fast) is shaped for the about
// 13 registers the compiler allocates: four cursors into one buf
// instead of four column slices, two running deltas, and the loop's
// index and bounds. A record's fields are its deltas added to the
// previous record's, read back from out rather than carried, and a
// stretch of records bounded once by the column ends replaces a
// per-record counter. A varint longer than four bytes, the first record
// and a column's last few records leave the loop for binary.Uvarint,
// one record at a time. The loop still spills: loaded words, the
// cursors, one running delta and the tag stores' addresses go through
// the stack, and its bounds are reloaded from it. Per record on the
// 4-byte path (go tool objdump, Go 1.24, amd64), and per run of the id
// loop (decodeRunsCol):
//
//	                       before                after
//	varint record    289 instr, 112 stack    170 instr, 28 stack
//	id run            61 instr,   4 stack     49 instr,  1 stack
//
// Decode ns/rec, fresh / one batch repeated where both were timed
// (BenchmarkColumnsDecode, BenchmarkSegmentDecode and the two column
// yardsticks; the minimum of 5 runs on a shared 2-vCPU x86-64 host):
//
//	                        before        after
//	wire shuffled 32        31.7          27.3
//	wire shuffled 256       24.6 / 30.6   17.8 / 16.6
//	wire shuffled 512       27.3          17.8
//	wire shuffled 8192      28.5          17.9
//	wire flat 32            30.6          29.7
//	wire flat 256           25.7 / 27.4   16.8 / 16.5
//	wire flat 512           23.6          18.7
//	wire flat 8192          24.5          18.6
//	segment shuffled        25.6 / 23.0   17.6 / 16.3
//	segment flat            23.6 / 22.7   17.0 / 17.9
//	varint cols shuffled    17.8 / 16.9   10.2 /  9.3
//	varint cols flat        15.5 / 15.6   12.0 /  9.8
//	run cols shuffled        8.6 /  7.9    6.8 /  6.1
//	run cols flat            5.8 /  5.6    6.0 /  5.0
//
// A 32-record frame gains least: its first record and its last few
// take the out-of-line path, and its stretches are short.
//
// Measured varint lengths in 8192-record segments of the runtime
// benchmark's seed-1 stream (1 / 2 / 3 bytes):
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
//
// Per column, ns/rec on 256-record per-node frames, 64 fresh batches /
// one batch repeated (BenchmarkColumnEncode, medians of 5 runs on a
// 2-vCPU x86-64 host; branchy: the loops serialAppendColumns keeps,
// timed by the same benchmark):
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
	p = putLogicalCol(b, p, rs)
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

func putLogicalCol(b []byte, p int, rs []Record) int {
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
	var idx [256]int16
	for i := range idx {
		idx[i] = -1
	}
	scratch = scratch[:0]
	for i := range rs {
		k := byte(rs[i].Kind)
		if idx[k] < 0 {
			idx[k] = int16(len(scratch))
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
// before decoding: the time, logical and tag columns each end at their
// len(out)-th terminator byte (high bit clear), counted eight bytes at
// a time; node, process and kind end where their run loops stop; and
// payload runs to the end of buf. The four varint columns then decode
// side by side in decodeVarintCols, as a segment's do.
func DecodeColumns(buf []byte, out []Record) error {
	var off [numColumns + 1]int
	for ci := range numColumns - 1 {
		col := buf[off[ci]:]
		var err error
		switch ci {
		case 2, 3:
			col, err = decodeRunsCol(col, ci, out)
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
	return decodeVarintCols(buf, &off, out)
}

// skipVarints returns what follows the first n varints of column ci at
// the front of col: the bytes past its n-th terminator. Whole 8-byte
// words are counted until the one holding that terminator, which a
// byte loop then finds. The varints themselves are left for
// decodeVarintCols to check.
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

// decodeColumnsAt decodes exactly len(out) records from the seven
// columns of buf, column ci spanning buf[off[ci]:off[ci+1]]. Every
// column must be consumed exactly. The node, process and kind columns
// go through the run loops DecodeColumns uses, the others through
// decodeVarintCols. out is left in an unspecified state on failure.
// The decode performs no allocation.
func decodeColumnsAt(buf []byte, off *[numColumns + 1]int, out []Record) error {
	for _, ci := range [...]int{2, 3, 4} {
		col := buf[off[ci]:off[ci+1]]
		var err error
		if ci == 4 {
			col, err = decodeKindsCol(col, out)
		} else {
			col, err = decodeRunsCol(col, ci, out)
		}
		if err != nil {
			return err
		}
		if len(col) != 0 {
			return trailing(len(col), ci)
		}
	}
	return decodeVarintCols(buf, off, out)
}

// decodeVarintCols decodes the time, logical, tag and payload fields of
// len(out) records from those columns of buf, column ci spanning
// buf[off[ci]:off[ci+1]], and requires each to be consumed exactly. The
// four columns are decoded together, one record at a time, each by a
// cursor into buf: stretches of records whose varints fit in 4 bytes
// go through fast, and the first record, and each one a longer varint
// or a column's end stops a stretch at, through binary.Uvarint out of
// line.
func decodeVarintCols(buf []byte, off *[numColumns + 1]int, out []Record) error {
	c := varintCols{pt: off[0], pl: off[1], pg: off[5], pp: off[6]}
	et, el, eg, ep := off[1], off[2], off[6], off[7]
	var prev Record // the record before out[i]; zero before the first
	for i := 0; i < len(out); i++ {
		// A fast record advances each cursor by at most 4 bytes, so a
		// stretch of records out[i:end] loads 4 bytes in every column
		// without passing any column's end. A stretch decoded to its
		// end is followed by the next one; an empty stretch, or one cut
		// short by a longer varint, leaves out[i] to binary.Uvarint.
		for i > 0 && i < len(out) {
			end := min(len(out), i+min(et-c.pt, el-c.pl, eg-c.pg, ep-c.pp)>>2)
			n := c.fast(buf, out[i-1:end])
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
		// A varint longer than four bytes, or one near a column's end:
		// this record takes binary.Uvarint in every column.
		var ut, ul, ug, up uint64
		var err error
		if ut, c.pt, err = uvarintAt(buf[:et], c.pt, 0, i); err != nil {
			return err
		}
		if ul, c.pl, err = uvarintAt(buf[:el], c.pl, 1, i); err != nil {
			return err
		}
		if ug, c.pg, err = uvarintAt(buf[:eg], c.pg, 5, i); err != nil {
			return err
		}
		if up, c.pp, err = uvarintAt(buf[:ep], c.pp, 6, i); err != nil {
			return err
		}
		c.deltaT += unzigzag(ut)
		c.deltaL += unzigzag(ul)
		r := &out[i]
		r.Time = prev.Time + c.deltaT
		r.Logical = prev.Logical + uint64(c.deltaL)
		r.Tag = prev.Tag + uint16(unzigzag(ug))
		r.Payload = prev.Payload + unzigzag(up)
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
// into buf per column and the running deltas of the time and logical
// columns (delta-of-delta coded).
type varintCols struct {
	pt, pl, pg, pp int
	deltaT, deltaL int64
}

// fast decodes records into o[1:] while every column's varint ends
// within the 4 bytes at its cursor, and returns how many it decoded;
// the caller sizes o so that no load passes a column's end. o[0] is
// the record before them. Each record's fields are its deltas added to
// the previous record's, read back from o rather than carried: the
// loop's other values (four cursors, two running deltas, its index and
// the bases and bounds of buf and o) already outnumber the registers
// the compiler allocates, and each value carried in a register past
// that goes to the stack and back every record.
func (c *varintCols) fast(buf []byte, o []Record) int {
	pt, pl, pg, pp := c.pt, c.pl, c.pg, c.pp
	deltaT, deltaL := c.deltaT, c.deltaL
	k := 1
	for ; k < len(o); k++ {
		wt := word(buf, pt)
		wl := word(buf, pl)
		wg := word(buf, pg)
		wp := word(buf, pp)
		// A clear high bit ends a varint: each mask is non-zero when
		// its varint ends within the 4-byte word.
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
// bytes. A pair of one-byte varints is read inline, anything longer by
// rleRun, and each run fills ahead (header).
func decodeRunsCol(col []byte, ci int, out []Record) ([]byte, error) {
	p, n := 0, len(out)
	for i := 0; i < n; {
		var runLen uint64
		var v int32
		if p+1 < len(col) && col[p]|col[p+1] < 0x80 {
			b := col[p+1]
			runLen, v = uint64(col[p]), int32(b>>1)^-int32(b&1)
			p += 2
			// A zero runLen wraps round: one compare rejects it too.
			if runLen-1 >= uint64(n-i) {
				return nil, runErr(colNames[ci], runLen, n-i)
			}
		} else {
			rl, u, rest, err := rleRun(col[p:], colNames[ci], n-i)
			if err != nil {
				return nil, err
			}
			runLen, v, col, p = uint64(rl), int32(u), rest, 0
		}
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
	return col[p:], nil
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
