// Package gen builds the seeded record stream every benchmark workload
// and layer probe is driven with. The program under test sees only
// these records: nothing in them depends on the wall clock, so the
// bytes the runtime encodes for a given seed repeat exactly.
//
// One block of records is generated in set-up and replayed cyclically
// (Cursor): cycle k shifts every Time by k×Span and every capture
// sequence by k×PerSource, which keeps Times unique and increasing and
// per-source sequences contiguous for as long as a run lasts.
package gen

import (
	"prism/internal/rng"
	"prism/internal/trace"
	"prism/internal/workload"
)

// Topology of the generated system.
const (
	Nodes   = 8
	Procs   = 2
	Sources = Nodes * Procs
)

// PairTags bounds the message tags of send/recv pairs, so a checker can
// index pair state by (from, to, tag) in a flat table.
const PairTags = 1024

// Flush-trigger marks, carried in the high Tag bits of records that are
// not half of a send/recv pair (a pair's tags must match). A mark says
// "this record fills a LIS buffer": the load generators stamp the wall
// clock when they emit one and the sink samples latency when it sees
// one, with no table shared between them and the program.
const (
	MarkNode256 uint16 = 0x8000 // fills a per-node buffer of 256 records
	MarkNode32  uint16 = 0x4000 // fills a per-node buffer of 32 records
	MarkLeaf256 uint16 = 0x2000 // fills a per-leaf (4 nodes) buffer of 256
)

// Offered load the due times are laid out for: a mean of MeanRate
// records per second from a two-state MMPP whose surge state runs at
// SurgeFactor times the calm rate (the §3.3.3 arrival-surge regime).
// 250 k/s is about a tenth of what the on-line deployment sustains
// closed-loop on the two-core sandbox, so queues are short except in
// surges and nothing is saturated.
const (
	MeanRate    = 250e3
	SurgeFactor = 4
	calmHoldMs  = 8
	surgeHoldMs = 2
)

// pairSkew bounds how many records of the global stream separate a send
// from its receive: about one 256-record LIS buffer of one node, so a
// receive can reach the manager a flush ahead of its send and be held,
// but never by more.
const pairSkew = 256

// Partition returns the RNG stream of one concern of one seed. Each
// concern draws from its own stream, so adding a draw to one never
// shifts another.
func Partition(seed uint64, concern string) *rng.Stream {
	h := uint64(14695981039346656037)
	for i := 0; i < len(concern); i++ {
		h ^= uint64(concern[i])
		h *= 1099511628211
	}
	return rng.New(h ^ (seed+1)*0x9e3779b97f4a7c15)
}

// Stream is one generated block in due-time order.
type Stream struct {
	Recs []trace.Record
	// Span is the block's length on the generator's schedule, in ns:
	// cycle k of the block starts at k×Span.
	Span int64
	// PerSource counts the block's records per (node, process).
	PerSource [Sources]uint64
	// Sample is the measurement-sampling partition: draws the
	// benchmark makes for itself (which window to range-scan) come from
	// here and never perturb the records.
	Sample *rng.Stream
}

// Source is the dense index of a record's (node, process).
func Source(r *trace.Record) int { return int(r.Node)*Procs + int(r.Process) }

// New generates a block of n records from seed. n must be a multiple of
// Nodes×256 so that every node's share of the block is a whole number
// of LIS buffers and the flush marks line up across cycles.
func New(seed uint64, n int) *Stream {
	if n <= 0 || n%(Nodes*256) != 0 {
		panic("gen: block length must be a positive multiple of 2048")
	}
	topo := Partition(seed, "topology")
	kinds := Partition(seed, "kinds")
	pairing := Partition(seed, "pairing")
	arrivals := Partition(seed, "arrivals")
	payload := Partition(seed, "payload")

	s := &Stream{Recs: make([]trace.Record, n), Sample: Partition(seed, "sampling")}

	// Topology: every node owns exactly n/Nodes records, shuffled.
	for i := range s.Recs {
		s.Recs[i].Node = int32(i % Nodes)
	}
	topo.Shuffle(n, func(i, j int) {
		s.Recs[i].Node, s.Recs[j].Node = s.Recs[j].Node, s.Recs[i].Node
	})

	// Arrival schedule: due times in ns since run start, strictly
	// increasing.
	calm := MeanRate / 1000 * (calmHoldMs + surgeHoldMs) / (calmHoldMs + SurgeFactor*surgeHoldMs)
	mmpp := &workload.MMPP2{RateA: calm, RateB: SurgeFactor * calm, HoldA: calmHoldMs, HoldB: surgeHoldMs}
	var ms float64
	var last int64 = -1
	for i := range s.Recs {
		ms += mmpp.Next(arrivals)
		t := int64(ms * 1e6)
		if t <= last {
			t = last + 1
		}
		s.Recs[i].Time = t
		last = t
	}
	s.Span = last + int64(1e9/MeanRate)

	type recvSlot struct {
		from int32
		tag  uint16
	}
	reserved := make(map[int]recvSlot)
	var blockOpen [Sources]bool
	var nodeFill [Nodes]int
	var leafFill [2]int
	var pairs uint16
	for i := range s.Recs {
		r := &s.Recs[i]
		r.Process = int32(topo.Intn(Procs))
		src := Source(r)
		r.Logical = s.PerSource[src]
		s.PerSource[src]++

		if slot, ok := reserved[i]; ok {
			delete(reserved, i)
			r.Kind, r.Tag, r.Payload = trace.KindRecv, slot.tag, int64(slot.from)
		} else {
			// Of the slots not reserved for a receive (9 in 10): 1/9
			// sends, 4/9 user events, 2/9 samples, 2/9 block in/out.
			u := kinds.Float64() * 9
			switch {
			case u < 1:
				j := i + 1 + pairing.Intn(pairSkew)
				for j < n && j <= i+pairSkew {
					if _, taken := reserved[j]; !taken && s.Recs[j].Node != r.Node {
						break
					}
					j++
				}
				if j >= n || j > i+pairSkew {
					r.Kind, r.Tag, r.Payload = trace.KindUser, uint16(kinds.Intn(16)), int64(r.Logical)
					break
				}
				tag := pairs % PairTags
				pairs++
				reserved[j] = recvSlot{from: r.Node, tag: tag}
				r.Kind, r.Tag, r.Payload = trace.KindSend, tag, int64(s.Recs[j].Node)
			case u < 5:
				r.Kind, r.Tag, r.Payload = trace.KindUser, uint16(kinds.Intn(16)), int64(r.Logical)
			case u < 7:
				r.Kind, r.Tag, r.Payload = trace.KindSample, uint16(kinds.Intn(8)), int64(payload.Intn(1<<20))
			default:
				block := uint16(kinds.Intn(32))
				r.Kind = trace.KindBlockIn
				if blockOpen[src] {
					r.Kind = trace.KindBlockOut
				}
				blockOpen[src] = !blockOpen[src]
				r.Tag, r.Payload = block, int64(block)
			}
		}

		nodeFill[r.Node]++
		leaf := int(r.Node) / (Nodes / 2)
		leafFill[leaf]++
		if r.Kind != trace.KindSend && r.Kind != trace.KindRecv {
			if nodeFill[r.Node]%32 == 0 {
				r.Tag |= MarkNode32
			}
			if nodeFill[r.Node]%256 == 0 {
				r.Tag |= MarkNode256
			}
			if leafFill[leaf]%256 == 0 {
				r.Tag |= MarkLeaf256
			}
		}
	}
	return s
}

// Checksum digests the block in order, every field included: two
// streams are the same stream exactly when their checksums agree.
func (s *Stream) Checksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range s.Recs {
		r := &s.Recs[i]
		mix(uint64(r.Node)<<32 | uint64(uint32(r.Process)))
		mix(uint64(r.Kind)<<16 | uint64(r.Tag))
		mix(uint64(r.Time))
		mix(r.Logical)
		mix(uint64(r.Payload))
	}
	return h
}

// Split partitions the block by node into parts equal contiguous node
// ranges (parts must divide Nodes), each in due-time order — the share
// of one load generator.
func (s *Stream) Split(parts int) [][]trace.Record {
	per := Nodes / parts
	out := make([][]trace.Record, parts)
	for p := range out {
		out[p] = make([]trace.Record, 0, len(s.Recs)/parts)
	}
	for _, r := range s.Recs {
		p := int(r.Node) / per
		out[p] = append(out[p], r)
	}
	return out
}

// Cursor replays a block (or one Split part of it) cyclically.
type Cursor struct {
	recs    []trace.Record
	span    int64
	per     *[Sources]uint64
	i       int
	timeOff int64
	seqOff  [Sources]uint64
}

// Cursor returns a cursor over recs, which must be s.Recs or one of
// s.Split's parts.
func (s *Stream) Cursor(recs []trace.Record) *Cursor {
	return &Cursor{recs: recs, span: s.Span, per: &s.PerSource}
}

// Next returns the next record of the endless stream.
func (c *Cursor) Next() trace.Record {
	r := c.recs[c.i]
	r.Time += c.timeOff
	r.Logical += c.seqOff[Source(&r)]
	c.i++
	if c.i == len(c.recs) {
		c.i = 0
		c.timeOff += c.span
		for s := range c.seqOff {
			c.seqOff[s] += c.per[s]
		}
	}
	return r
}

// Len is the number of records in one cycle.
func (c *Cursor) Len() int { return len(c.recs) }

// PeekTime is the Time of the record Next will return.
func (c *Cursor) PeekTime() int64 { return c.recs[c.i].Time + c.timeOff }

// Fill appends the next n records to dst.
func (c *Cursor) Fill(dst []trace.Record, n int) []trace.Record {
	for ; n > 0; n-- {
		dst = append(dst, c.Next())
	}
	return dst
}
