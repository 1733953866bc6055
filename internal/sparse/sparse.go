// Package sparse provides small open-addressing containers keyed by
// sparse non-negative integers (node ids, packed (seq, destination)
// pairs). The protocol layer uses them where the key universe is the
// whole network but the keys actually touched are a node's one-hop
// neighborhood or a multicast group: a word-packed bitset over the
// universe would cost O(n) bits per instance — the dense per-session
// tables this package replaced made per-node state O(n) and a deployment
// O(n²) — while these stay proportional to the keys inserted.
//
// Both containers never delete (matching the neighbor table's "a
// recycled id keeps its slot binding" rule), reset in place keeping
// their storage, and never iterate — lookup results are a pure function
// of the inserted set, so the hash layout cannot leak into simulation
// order.
package sparse

// emptyKey marks an unoccupied cell; stored keys are offset by 1, so key
// values in [0, 1<<64-2] are representable.
const emptyKey = 0

// mix is the splitmix64 finalizer — enough avalanche that sequential ids
// and packed pairs spread over the table.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Map is an insert-only map from uint64 keys to int32 values. The zero
// value is empty and ready to use.
type Map struct {
	keys []uint64 // key+1; 0 marks an empty cell
	vals []int32
	used int
}

// Get returns the value for k and whether it is present.
func (m *Map) Get(k uint64) (int32, bool) {
	if len(m.keys) == 0 {
		return 0, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := mix(k) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k + 1:
			return m.vals[i], true
		case emptyKey:
			return 0, false
		}
	}
}

// Put inserts or replaces the value for k.
func (m *Map) Put(k uint64, v int32) {
	if 4*(m.used+1) > 3*len(m.keys) {
		m.rehash()
	}
	mask := uint64(len(m.keys) - 1)
	for i := mix(k) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k + 1:
			m.vals[i] = v
			return
		case emptyKey:
			m.keys[i] = k + 1
			m.vals[i] = v
			m.used++
			return
		}
	}
}

// Len returns the number of keys present.
func (m *Map) Len() int { return m.used }

// Reset empties the map keeping its storage, so a recycled session block
// reuses the table grown by earlier runs.
func (m *Map) Reset() {
	clear(m.keys)
	m.used = 0
}

// CopyFrom makes m hold exactly src's keys and values. A table larger
// than src's is kept and refilled, so a pooled map keeps the size earlier
// runs grew it to; otherwise src's table is copied cell for cell, reusing
// m's storage when it is large enough.
func (m *Map) CopyFrom(src *Map) {
	if len(m.keys) > len(src.keys) {
		m.Reset()
		for i, k := range src.keys {
			if k != emptyKey {
				m.Put(k-1, src.vals[i])
			}
		}
		return
	}
	n := len(src.keys)
	if cap(m.keys) < n || cap(m.vals) < n {
		m.keys = make([]uint64, n)
		m.vals = make([]int32, n)
	}
	m.keys, m.vals = m.keys[:n], m.vals[:n]
	copy(m.keys, src.keys)
	copy(m.vals, src.vals)
	m.used = src.used
}

func (m *Map) rehash() {
	oldK, oldV := m.keys, m.vals
	n := 2 * len(oldK)
	if n == 0 {
		n = 16
	}
	m.keys = make([]uint64, n)
	m.vals = make([]int32, n)
	m.used = 0
	for i, k := range oldK {
		if k != emptyKey {
			m.Put(k-1, oldV[i])
		}
	}
}

// Set is an insert-only set of uint64 keys. The zero value is empty and
// ready to use.
type Set struct {
	keys []uint64 // key+1; 0 marks an empty cell
	used int
}

// Add inserts k and reports whether it was absent — the test-and-set
// shape every duplicate-suppression call site needs.
func (s *Set) Add(k uint64) bool {
	if 4*(s.used+1) > 3*len(s.keys) {
		s.rehash()
	}
	mask := uint64(len(s.keys) - 1)
	for i := mix(k) & mask; ; i = (i + 1) & mask {
		switch s.keys[i] {
		case k + 1:
			return false
		case emptyKey:
			s.keys[i] = k + 1
			s.used++
			return true
		}
	}
}

// Len returns the number of keys present.
func (s *Set) Len() int { return s.used }

// Reset empties the set keeping its storage.
func (s *Set) Reset() {
	clear(s.keys)
	s.used = 0
}

func (s *Set) rehash() {
	old := s.keys
	n := 2 * len(old)
	if n == 0 {
		n = 16
	}
	s.keys = make([]uint64, n)
	s.used = 0
	for _, k := range old {
		if k != emptyKey {
			s.Add(k - 1)
		}
	}
}
