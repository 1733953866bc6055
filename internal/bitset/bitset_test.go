package bitset

import "testing"

// count returns the number of marked indices.
func count(s *Set) int {
	n := 0
	s.Range(func(int) { n++ })
	return n
}

func TestZeroValue(t *testing.T) {
	var s Set
	if s.Test(0) || s.Test(1000) {
		t.Error("zero set should be empty")
	}
	if count(&s) != 0 {
		t.Errorf("Count = %d, want 0", count(&s))
	}
	s.Clear(5) // no-op, must not panic
}

func TestSetTestClear(t *testing.T) {
	var s Set
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 500} {
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	if count(&s) != 8 {
		t.Errorf("Count = %d, want 8", count(&s))
	}
	if s.Test(2) || s.Test(66) || s.Test(501) {
		t.Error("unset bits reported set")
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("Test(64) after Clear")
	}
	if count(&s) != 7 {
		t.Errorf("Count = %d after Clear, want 7", count(&s))
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var s Set
	s.Set(200)
	before := cap(s.words)
	s.Reset()
	if count(&s) != 0 || s.Test(200) {
		t.Error("Reset did not clear")
	}
	if cap(s.words) != before {
		t.Error("Reset dropped storage")
	}
	// Setting inside the retained range must not allocate.
	if n := testing.AllocsPerRun(100, func() { s.Set(100); s.Clear(100) }); n != 0 {
		t.Errorf("Set within capacity allocates %.1f/op", n)
	}
}

func TestRangeAscending(t *testing.T) {
	var s Set
	want := []int{3, 64, 70, 191}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.Range(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
}

func TestGrowPreservesBits(t *testing.T) {
	var s Set
	s.Set(10)
	s.Set(1000)
	if !s.Test(10) || !s.Test(1000) {
		t.Error("grow lost bits")
	}
}
