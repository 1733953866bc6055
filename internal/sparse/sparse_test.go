package sparse

import (
	"math/rand"
	"testing"
)

// TestMapAgainstGoMap drives Map through a long randomized insert/replace
// script mirrored into a Go map, checking every lookup (present and
// absent) along the way, across several rehash generations.
func TestMapAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map
	ref := map[uint64]int32{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(5000)) * 1000003 // sparse universe
		switch rng.Intn(3) {
		case 0, 1:
			v := int32(rng.Intn(1 << 20))
			m.Put(k, v)
			ref[k] = v
		case 2:
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, got, ok, want, wok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
		}
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("final Get(%d) = %d,%v want %d,true", k, got, ok, want)
		}
	}
}

// TestSetAgainstGoMap does the same for Set, including the Add
// test-and-set return value.
func TestSetAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Set
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(5000)) * 999983
		fresh := s.Add(k)
		if fresh != !ref[k] {
			t.Fatalf("Add(%d) = %v with ref present=%v", k, fresh, ref[k])
		}
		ref[k] = true
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
	}
}

// TestZeroValueAndEdgeKeys pins the zero-value-ready contract and the
// key-offset encoding at its edges (key 0 must be distinguishable from an
// empty cell).
func TestZeroValueAndEdgeKeys(t *testing.T) {
	var m Map
	if _, ok := m.Get(0); ok {
		t.Fatal("zero-value Map claims to hold key 0")
	}
	m.Put(0, 7)
	if v, ok := m.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d,%v after Put(0,7)", v, ok)
	}
	m.Put(0, 9)
	if v, _ := m.Get(0); v != 9 || m.Len() != 1 {
		t.Fatalf("replace at key 0: got %d, len %d", v, m.Len())
	}

	var s Set
	if !s.Add(0) || s.Add(0) {
		t.Fatal("Add(0) test-and-set broken")
	}
}

// TestResetKeepsStorage pins the session-pool contract: after Reset, a
// refill of the same working set allocates nothing.
func TestResetKeepsStorage(t *testing.T) {
	var m Map
	var s Set
	fill := func() {
		for i := uint64(0); i < 1000; i++ {
			m.Put(i*31, int32(i))
			s.Add(i * 37)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		s.Reset()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("reset+refill allocated %.1f objects/op, want 0", allocs)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Reset", m.Len())
	}
	if _, ok := m.Get(31); ok {
		t.Fatal("Reset left key behind")
	}
	s.Reset()
	if s.Len() != 0 || !s.Add(37) {
		t.Fatal("Set Reset left key behind")
	}
}

// TestMapCopyFrom copies maps of several sizes into targets both smaller
// and larger than the source: the copy must answer every lookup as the
// source does, including absent keys, and keep accepting inserts.
func TestMapCopyFrom(t *testing.T) {
	fill := func(m *Map, n int, seed int64) map[uint64]int32 {
		rng := rand.New(rand.NewSource(seed))
		ref := map[uint64]int32{}
		for i := 0; i < n; i++ {
			k, v := uint64(rng.Intn(1<<16)), int32(rng.Intn(1<<20))
			m.Put(k, v)
			ref[k] = v
		}
		return ref
	}
	for _, srcN := range []int{0, 3, 200} {
		for _, dstN := range []int{0, 5, 1000} {
			var src, dst Map
			ref := fill(&src, srcN, 1)
			fill(&dst, dstN, 2)
			dst.CopyFrom(&src)
			if dst.Len() != src.Len() {
				t.Fatalf("src %d dst %d: Len = %d, want %d", srcN, dstN, dst.Len(), src.Len())
			}
			for k := uint64(0); k < 1<<16; k++ {
				got, ok := dst.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("src %d dst %d: Get(%d) = %d,%v want %d,%v", srcN, dstN, k, got, ok, want, wok)
				}
			}
			dst.Put(1<<20, 7)
			if v, ok := dst.Get(1 << 20); !ok || v != 7 {
				t.Fatalf("src %d dst %d: insert after copy lost", srcN, dstN)
			}
			if _, ok := src.Get(1 << 20); ok {
				t.Fatalf("src %d dst %d: insert into copy reached the source", srcN, dstN)
			}
		}
	}
}
