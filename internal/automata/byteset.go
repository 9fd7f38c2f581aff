package automata

import (
	"encoding/binary"
	"math/bits"
)

// ByteSet is a 256-bit set of byte values, the transition label of a
// consuming NFA state.
type ByteSet [4]uint64

// Add inserts c into the set.
func (s *ByteSet) Add(c byte) { s[c>>6] |= 1 << (c & 63) }

// AddRange inserts the inclusive range [lo, hi].
func (s *ByteSet) AddRange(lo, hi byte) {
	for c := int(lo); c <= int(hi); c++ {
		s.Add(byte(c))
	}
}

// Has reports whether c is in the set.
func (s *ByteSet) Has(c byte) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// Complement inverts the set in place.
func (s *ByteSet) Complement() {
	for i := range s {
		s[i] = ^s[i]
	}
}

// Len returns the number of bytes in the set.
func (s *ByteSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *ByteSet) Empty() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// StateSet is a growable bitset over NFA state indices, the frontier
// representation used by the breadth-first engines (and the model of the
// per-thread state vectors GPU NFA engines keep in shared memory).
type StateSet struct {
	words []uint64
}

// NewStateSet returns a set sized for n states.
func NewStateSet(n int) *StateSet {
	return &StateSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts state i.
func (s *StateSet) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether state i is in the set.
func (s *StateSet) Has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Clear empties the set.
func (s *StateSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Or merges o into s.
func (s *StateSet) Or(o *StateSet) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Count returns the number of states in the set.
func (s *StateSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *StateSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// CopyFrom overwrites s with o (same capacity).
func (s *StateSet) CopyFrom(o *StateSet) {
	copy(s.words, o.words)
}

// ForEach calls f for every member state in ascending order.
func (s *StateSet) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

// Equal reports whether two sets have the same members.
func (s *StateSet) Equal(o *StateSet) bool {
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// AppendKey appends the set's contents to b as the bytes of a comparable
// key — the subset construction's dedup maps look up
// index[string(key)], which allocates nothing on a hit, and materialise
// the string only to insert.
func (s *StateSet) AppendKey(b []byte) []byte {
	for _, w := range s.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}
