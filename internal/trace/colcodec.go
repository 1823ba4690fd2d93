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
// Delta arithmetic is two's-complement wrapping in both directions, so
// every int64/uint64 bit pattern round-trips exactly. Decoders never
// panic on hostile input; structural failures wrap ErrBadSegment and
// name the column.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// which a segment's footer keeps. The loops are specialized per field:
// no indirect call per record per column.
func (cc *ColumnCodec) appendColumns(dst []byte, rs []Record, off *[numColumns]int) []byte {
	off[0] = len(dst)
	var prev, prevDelta int64
	for i := range rs {
		v := rs[i].Time
		delta := v - prev
		dst = appendUvarint(dst, zigzag(delta-prevDelta))
		prev, prevDelta = v, delta
	}
	off[1] = len(dst)
	prev, prevDelta = 0, 0
	for i := range rs {
		v := int64(rs[i].Logical)
		delta := v - prev
		dst = appendUvarint(dst, zigzag(delta-prevDelta))
		prev, prevDelta = v, delta
	}
	off[2] = len(dst)
	for i := 0; i < len(rs); {
		v := rs[i].Node
		j := i + 1
		for j < len(rs) && rs[j].Node == v {
			j++
		}
		dst = appendUvarint(dst, uint64(j-i))
		dst = appendUvarint(dst, zigzag(int64(v)))
		i = j
	}
	off[3] = len(dst)
	for i := 0; i < len(rs); {
		v := rs[i].Process
		j := i + 1
		for j < len(rs) && rs[j].Process == v {
			j++
		}
		dst = appendUvarint(dst, uint64(j-i))
		dst = appendUvarint(dst, zigzag(int64(v)))
		i = j
	}
	off[4] = len(dst)
	dst, cc.kinds = appendKindsCol(dst, rs, cc.kinds)
	off[5] = len(dst)
	prev = 0
	for i := range rs {
		v := int64(rs[i].Tag)
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	off[6] = len(dst)
	prev = 0
	for i := range rs {
		v := rs[i].Payload
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
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
// four columns are decoded together, one record at a time, with a
// cursor per column.
func decodeVarintCols(buf []byte, off *[numColumns + 1]int, out []Record) error {
	tc, lc := buf[off[0]:off[1]], buf[off[1]:off[2]]
	gc, pc := buf[off[5]:off[6]], buf[off[6]:off[7]]
	var (
		pt, pl, pg, pp int // cursors into tc, lc, gc, pc
		prevT, deltaT  int64
		prevL, deltaL  int64
		prevG, prevP   int64
		fast           int // records left that may load 4 bytes in every column
	)
	for i := range out {
		if fast == 0 {
			// A fast record advances each cursor by at most 4 bytes, so
			// this many records load 4 bytes without passing any
			// column's end.
			fast = min(len(tc)-pt, len(lc)-pl, len(gc)-pg, len(pc)-pp) >> 2
		}
		// A clear high bit ends a varint: each mask is non-zero when its
		// varint ends within the 4-byte word, and all are zero when no
		// word was loaded.
		var mt, ml, mg, mp, wt, wl, wg, wp uint32
		if fast > 0 {
			wt = binary.LittleEndian.Uint32(tc[pt:])
			wl = binary.LittleEndian.Uint32(lc[pl:])
			wg = binary.LittleEndian.Uint32(gc[pg:])
			wp = binary.LittleEndian.Uint32(pc[pp:])
			mt, ml = ^wt&0x80808080, ^wl&0x80808080
			mg, mp = ^wg&0x80808080, ^wp&0x80808080
		}
		var ut, ul, ug, up uint64
		if mt != 0 && ml != 0 && mg != 0 && mp != 0 {
			var n int
			ut, n = varint4(wt, mt)
			pt += n
			ul, n = varint4(wl, ml)
			pl += n
			ug, n = varint4(wg, mg)
			pg += n
			up, n = varint4(wp, mp)
			pp += n
			fast--
		} else {
			// A varint longer than four bytes, or one near a column's
			// end: this record takes binary.Uvarint in every column.
			fast = 0
			var err error
			if ut, pt, err = uvarintAt(tc, pt, 0, i); err != nil {
				return err
			}
			if ul, pl, err = uvarintAt(lc, pl, 1, i); err != nil {
				return err
			}
			if ug, pg, err = uvarintAt(gc, pg, 5, i); err != nil {
				return err
			}
			if up, pp, err = uvarintAt(pc, pp, 6, i); err != nil {
				return err
			}
		}
		deltaT += unzigzag(ut)
		prevT += deltaT
		deltaL += unzigzag(ul)
		prevL += deltaL
		prevG += unzigzag(ug)
		prevP += unzigzag(up)
		r := &out[i]
		r.Time, r.Logical, r.Tag, r.Payload = prevT, uint64(prevL), uint16(prevG), prevP
	}
	switch {
	case pt != len(tc):
		return trailing(len(tc)-pt, 0)
	case pl != len(lc):
		return trailing(len(lc)-pl, 1)
	case pg != len(gc):
		return trailing(len(gc)-pg, 5)
	case pp != len(pc):
		return trailing(len(pc)-pp, 6)
	}
	return nil
}

// varint4 decodes the varint at the front of the little-endian word w,
// where m = ^w & 0x80808080 is non-zero: the lowest set bit of m is the
// high bit of the varint's last byte. It keeps the bytes up to that
// one and gathers their 7-bit groups.
func varint4(w, m uint32) (uint64, int) {
	w &= m ^ (m - 1)
	u := w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000 | w>>3&0xfe00000
	return uint64(u), bits.TrailingZeros32(m)>>3 + 1
}

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
			runLen, v = uint64(col[p]), int32(unzigzag(uint64(col[p+1])))
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
			w := out[i : i+fillAhead]
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
// wide: a loop over them, or eight slots, measured slower.
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

// appendUvarint is binary.AppendUvarint with the one-byte case
// inlined: run lengths, run values and kind indexes are mostly below
// 128, and so are a share of every varint column (table above).
func appendUvarint(dst []byte, u uint64) []byte {
	if u < 0x80 {
		return append(dst, byte(u))
	}
	return binary.AppendUvarint(dst, u)
}

// appendKindsCol encodes the kind column as a first-appearance
// dictionary followed by run-length encoded dictionary indexes. The
// scratch slice is the caller's reusable dictionary buffer; the
// (possibly grown) slice is returned for reuse.
func appendKindsCol(dst []byte, rs []Record, scratch []byte) ([]byte, []byte) {
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
	dst = appendUvarint(dst, uint64(len(scratch)))
	dst = append(dst, scratch...)
	for i := 0; i < len(rs); {
		k := rs[i].Kind
		j := i + 1
		for j < len(rs) && rs[j].Kind == k {
			j++
		}
		dst = appendUvarint(dst, uint64(j-i))
		dst = append(dst, byte(idx[byte(k)]))
		i = j
	}
	return dst, scratch
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
