// Package bitset provides a word-packed bit set over small dense integer
// keys (NodeIDs, session slots, data sequence numbers). The protocol layer
// uses it in place of map[ID]bool tables: membership tests are one shift
// and mask, clearing for reuse is a memclr of a few words, and the set
// never allocates once grown to its working size.
package bitset

import "math/bits"

const wordBits = 64

// Set is a growable bit set. The zero value is empty and ready to use.
// Indices must be non-negative; Set grows on demand, Test and Clear treat
// out-of-range indices as absent.
type Set struct {
	words []uint64
}

// Set marks index i.
func (s *Set) Set(i int) {
	w := i / wordBits
	if w >= len(s.words) {
		s.grow(w + 1)
	}
	s.words[w] |= 1 << uint(i%wordBits)
}

// Clear unmarks index i. Out-of-range indices are a no-op.
func (s *Set) Clear(i int) {
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Test reports whether index i is marked.
func (s *Set) Test(i int) bool {
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit, keeping the backing storage for reuse.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Range calls fn for every marked index in ascending order.
func (s *Set) Range(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

func (s *Set) grow(words int) {
	if cap(s.words) >= words {
		s.words = s.words[:words]
		return
	}
	n := make([]uint64, words, 2*words)
	copy(n, s.words)
	s.words = n
}
