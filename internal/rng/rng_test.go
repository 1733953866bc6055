package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	base := New(7)
	a := base.Derive("mac")
	b := base.Derive("topology")
	c := base.Derive("mac") // same name, same base state => same stream
	for i := 0; i < 100; i++ {
		av, cv := a.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("Derive not reproducible at step %d", i)
		}
		if av == b.Uint64() {
			t.Fatalf("substreams collided at step %d", i)
		}
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive("x")
	if a.Uint64() != b.Uint64() {
		t.Error("Derive must not consume parent stream state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
}

func TestRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		v := r.Range(2.5, 3.5)
		if v < 2.5 || v >= 3.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(10)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %v", float64(hits)/n)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(14)
	f := func(seed uint64) bool {
		rr := New(seed)
		n := 1 + rr.Intn(50)
		k := rr.Intn(n + 1)
		s := rr.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestSampleUniformCoverage(t *testing.T) {
	// Each element of [0,n) should appear in Sample(n,k) with prob k/n.
	r := New(15)
	const n, k, draws = 10, 3, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(draws) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("element %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(2,3) should panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(16)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestShuffleBijection(t *testing.T) {
	r := New(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
