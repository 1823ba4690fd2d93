package trace

import (
	"math/bits"
	"math/rand/v2"
)

// msgTable is the CausalMerger's message table: msgKey → *msgState,
// open-addressed with linear probing over a power-of-two slot array
// kept at most half full. A delete shifts the run behind it back
// instead of leaving a tombstone, so a probe stops at the first empty
// slot, and every slot keeps its key's hash, so neither a delete nor
// growth hashes anything again. The merger's send and receive paths
// each make one probe: find returns the key's slot or the empty slot
// where the key would go, and insert and del work on that index.
//
// Record Node, Payload and Tag come off the wire, so the hash is
// seeded per table, as Go's maps are: without the seed, a crafted key
// set could pile every message into one probe run. The table is never
// iterated, so neither the seed nor the layout can reach the merger's
// output. The zero value is not usable; build one with newMsgTable.
type msgTable struct {
	slots []msgSlot // length a power of two; e == nil marks an empty slot
	n     int       // occupied slots
	seed  [2]uint64
}

type msgSlot struct {
	key  msgKey
	hash uint32 // low bits are the key's home slot at any table size
	e    *msgState
}

// msgTableSlots is a merger's initial table size; the table doubles
// when an insert would fill it past half, and never shrinks.
const msgTableSlots = 64

// newMsgTable returns an empty table of slots slots, a power of two,
// whose hash is keyed by seed.
func newMsgTable(seed [2]uint64, slots int) msgTable {
	// The tag side of the multiply never reaches zero, which would map
	// every key of that tag to one slot.
	seed[1] |= 1 << 63
	return msgTable{slots: make([]msgSlot, slots), seed: seed}
}

// randomSeed draws a table seed.
func randomSeed() [2]uint64 { return [2]uint64{rand.Uint64(), rand.Uint64()} }

// hash mixes the key's (from, to) word and its tag with the seed in one
// 64×64→128-bit multiply, folding the halves together.
func (t *msgTable) hash(k msgKey) uint32 {
	hi, lo := bits.Mul64(uint64(uint32(k.from))<<32|uint64(uint32(k.to))^t.seed[0], uint64(k.tag)^t.seed[1])
	return uint32(hi ^ lo)
}

// find returns k's slot and entry, or the empty slot where k would be
// inserted and a nil entry.
func (t *msgTable) find(k msgKey) (int, *msgState) {
	mask := len(t.slots) - 1
	for i := int(t.hash(k)) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.e == nil || s.key == k {
			return i, s.e
		}
	}
}

// insert puts e under k into slot i, the empty slot find just returned
// for k. It may grow the table, which moves every slot: i is stale
// afterwards.
func (t *msgTable) insert(i int, k msgKey, e *msgState) {
	h := t.hash(k)
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		i = t.vacancy(h)
	}
	t.slots[i] = msgSlot{key: k, hash: h, e: e}
	t.n++
}

// vacancy returns the first empty slot of the probe run from h's home.
func (t *msgTable) vacancy(h uint32) int {
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i].e != nil {
		i = (i + 1) & mask
	}
	return i
}

func (t *msgTable) grow() {
	old := t.slots
	t.slots = make([]msgSlot, 2*len(old))
	for _, s := range old {
		if s.e != nil {
			t.slots[t.vacancy(s.hash)] = s
		}
	}
}

// del empties occupied slot i, then walks the run behind it and moves
// back each entry whose home does not lie strictly between the hole and
// the entry, so every remaining key stays reachable from its home
// without a gap (Knuth's Algorithm R).
func (t *msgTable) del(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].e != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i if its home is at
		// least as far back from j as i is.
		if (j-int(t.slots[j].hash))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = msgSlot{}
	t.n--
}
