package trace

import (
	"encoding/binary"
	"testing"

	"prism/internal/rng"
)

// tableOracle drives a msgTable and a Go map through the same puts,
// gets and deletes, and checks the table against the map and its own
// layout after every operation.
type tableOracle struct {
	t   testing.TB
	tab msgTable
	ref map[msgKey]*msgState
}

// msgTableMinSlots is the smallest table, which tests start from so
// that growth happens mid-run.
const msgTableMinSlots = 2

func newTableOracle(t testing.TB, seed [2]uint64) *tableOracle {
	return &tableOracle{t: t, tab: newMsgTable(seed, msgTableMinSlots), ref: map[msgKey]*msgState{}}
}

func (o *tableOracle) put(k msgKey) {
	i, e := o.tab.find(k)
	if e != o.ref[k] {
		o.t.Fatalf("put %v: find returned %p, map holds %p", k, e, o.ref[k])
	}
	if e == nil {
		e = new(msgState)
		o.tab.insert(i, k, e)
		o.ref[k] = e
	}
	o.check()
}

func (o *tableOracle) get(k msgKey) {
	if _, e := o.tab.find(k); e != o.ref[k] {
		o.t.Fatalf("get %v: find returned %p, map holds %p", k, e, o.ref[k])
	}
}

func (o *tableOracle) del(k msgKey) {
	i, e := o.tab.find(k)
	if e != o.ref[k] {
		o.t.Fatalf("delete %v: find returned %p, map holds %p", k, e, o.ref[k])
	}
	if e != nil {
		o.tab.del(i)
		delete(o.ref, k)
	}
	o.check()
}

// check holds the table to the map and to its layout rules: every
// occupied slot keeps its key's hash and is reachable from its home
// through occupied slots only, the load stays at most one half, and
// every key of the map finds its entry.
func (o *tableOracle) check() {
	tab := &o.tab
	mask := len(tab.slots) - 1
	occupied := 0
	for j, s := range tab.slots {
		if s.e == nil {
			continue
		}
		occupied++
		if s.hash != tab.hash(s.key) {
			o.t.Fatalf("slot %d: stored hash %#x, key %v hashes to %#x", j, s.hash, s.key, tab.hash(s.key))
		}
		if o.ref[s.key] != s.e {
			o.t.Fatalf("slot %d: key %v holds %p, map holds %p", j, s.key, s.e, o.ref[s.key])
		}
		for i := int(s.hash) & mask; i != j; i = (i + 1) & mask {
			if tab.slots[i].e == nil {
				o.t.Fatalf("slot %d: key %v is cut off from its home %d by the empty slot %d", j, s.key, int(s.hash)&mask, i)
			}
		}
	}
	if occupied != tab.n || tab.n != len(o.ref) || 2*tab.n > len(tab.slots) {
		o.t.Fatalf("table counts %d entries in %d occupied of %d slots, map holds %d", tab.n, occupied, len(tab.slots), len(o.ref))
	}
	for k := range o.ref {
		o.get(k)
	}
}

// collidingKeys returns n distinct keys whose hashes under seed end in
// bits one bits: at every table size up to 2^bits they share the last
// slot as home, so their probe runs are long and wrap past the array's
// end.
func collidingKeys(seed [2]uint64, st *rng.Stream, n, bits int) []msgKey {
	tab := newMsgTable(seed, msgTableMinSlots)
	want := uint32(1)<<bits - 1
	seen := map[msgKey]bool{}
	var keys []msgKey
	for len(keys) < n {
		k := randomKey(st)
		if tab.hash(k)&want == want && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// randomKey draws a key over the whole int32 range, negative node ids
// included.
func randomKey(st *rng.Stream) msgKey {
	u := st.Uint64()
	return msgKey{from: int32(u), to: int32(u >> 32), tag: uint16(st.Uint64())}
}

// TestMsgTableMatchesMap: seeded random put, get and delete sequences
// (120 000 operations) leave the table equal to a Go map after every
// operation. A third of
// the keys share the last slot as home under the test's seed, so probe
// runs are long, wrap around the array's end and span growth; the rest
// are drawn from a small pool so puts and deletes often hit live keys.
func TestMsgTableMatchesMap(t *testing.T) {
	const ops = 60_000
	for _, seed := range [][2]uint64{{1, 2}, {0x9e3779b97f4a7c15, 0}} {
		st := rng.New(seed[0] ^ seed[1])
		o := newTableOracle(t, seed)
		colliding := collidingKeys(seed, st, 24, 10)
		pool := make([]msgKey, 160)
		for i := range pool {
			pool[i] = randomKey(st)
		}
		grown := 0
		for op := 0; op < ops; op++ {
			k := pool[st.Intn(len(pool))]
			if st.Intn(3) == 0 {
				k = colliding[st.Intn(len(colliding))]
			}
			slots := len(o.tab.slots)
			// Puts outweigh deletes for the first half, so the table
			// fills and grows; then deletes drain it towards empty.
			switch u := st.Intn(10); {
			case u < 2:
				o.get(k)
			case u < 7 && op < ops/2, u < 4:
				o.put(k)
			default:
				o.del(k)
			}
			if len(o.tab.slots) > slots {
				grown++
			}
		}
		if grown < 5 {
			t.Fatalf("seed %v: the table grew %d times, want the probe runs to span several growths", seed, grown)
		}
	}
}

// FuzzMsgTable decodes an op stream from bytes — two bits of operation,
// then a key from a small space with negative ids — and holds the
// table to a Go map after every operation, under a fuzzed seed.
func FuzzMsgTable(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{0, 1, 2, 3, 0x41, 0x42, 0x81, 0xc1, 0x80})
	f.Add(uint64(1), uint64(2), []byte("put put del get put del del put"))
	f.Fuzz(func(t *testing.T, s0, s1 uint64, ops []byte) {
		o := newTableOracle(t, [2]uint64{s0, s1})
		for len(ops) >= 3 {
			op, kb := ops[0]&3, binary.LittleEndian.Uint16(ops[1:])
			ops = ops[3:]
			k := msgKey{from: int32(int8(byte(kb)<<4)) >> 4, to: int32(int8(byte(kb)&0xf0)) >> 4, tag: kb >> 8 & 7}
			switch op {
			case 0:
				o.get(k)
			case 1, 2:
				o.put(k)
			default:
				o.del(k)
			}
		}
		o.check()
	})
}
