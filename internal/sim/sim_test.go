package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1) != Second {
		t.Errorf("Seconds(1) = %v", Seconds(1))
	}
	if Seconds(0.001) != Millisecond {
		t.Errorf("Seconds(0.001) = %v", Seconds(0.001))
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{1500 * Microsecond, "1.500ms"},
		{5 * Microsecond, "5.000us"},
		{7, "7ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("final time %v, want 30", s.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var fired Time = -1
	s.At(50, func() {
		s.After(25, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 75 {
		t.Errorf("After fired at %v, want 75", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.At(10, func() { ran = true })
	if !e.Pending() {
		t.Error("event should be pending after scheduling")
	}
	s.Cancel(e)
	if e.Pending() {
		t.Error("event should not be pending after cancel")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Double-cancel and cancelling the zero handle must be safe.
	s.Cancel(e)
	s.Cancel(Event{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	events := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		events[i] = s.At(Time(i*10), func() { got = append(got, i) })
	}
	s.Cancel(events[3])
	s.Cancel(events[7])
	s.Run()
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.At(50, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	s.At(1, nil)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(got))
	}
	if s.Now() != 25 {
		t.Errorf("clock = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("second RunUntil ran to %d events, want 4", len(got))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("Stop did not halt run: count = %d", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Errorf("resumed run incomplete: count = %d", count)
	}
}

func TestCascadingEvents(t *testing.T) {
	// Events scheduling events, a chain of N hops.
	s := New()
	const hops = 1000
	n := 0
	var hop func()
	hop = func() {
		n++
		if n < hops {
			s.After(1, hop)
		}
	}
	s.At(0, hop)
	s.Run()
	if n != hops {
		t.Errorf("chain ran %d hops, want %d", n, hops)
	}
	if s.Now() != hops-1 {
		t.Errorf("final time %v, want %d", s.Now(), hops-1)
	}
	if s.Processed() != hops {
		t.Errorf("processed %d, want %d", s.Processed(), hops)
	}
}

// Property: for any random batch of scheduled times, execution order is the
// sorted order (stable by insertion for equal times).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw%200) + 1
		s := New()
		times := make([]Time, n)
		var got []Time
		for i := 0; i < n; i++ {
			at := Time(r.Intn(50)) // collisions likely
			times[i] = at
			at2 := at
			s.At(at2, func() { got = append(got, at2) })
		}
		s.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random interleaving of schedules and cancels never corrupts the
// heap: every non-cancelled event runs exactly once, in order.
func TestCancelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New()
		type rec struct {
			ev        Event
			at        Time
			cancelled bool
		}
		var recs []*rec
		ran := map[*rec]int{}
		for i := 0; i < 100; i++ {
			rc := &rec{at: Time(r.Intn(1000))}
			rc.ev = s.At(rc.at, func() { ran[rc]++ })
			recs = append(recs, rc)
			if r.Bool(0.3) && len(recs) > 0 {
				victim := recs[r.Intn(len(recs))]
				s.Cancel(victim.ev)
				victim.cancelled = victim.cancelled || ran[victim] == 0
			}
		}
		s.Run()
		for _, rc := range recs {
			n := ran[rc]
			if rc.ev.Pending() {
				return false
			}
			if n > 1 {
				return false
			}
			if n == 0 && !rc.cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}

// TestElide: elided events count as processed and nowhere else — not in
// Executed, which counts the callbacks run — and a negative count panics.
func TestElide(t *testing.T) {
	s := New()
	s.After(Microsecond, func() { s.Elide(3) })
	s.Run()
	st := s.Stats()
	if st.Processed != 4 || st.Executed != 1 || st.Entries != 1 || st.MaxPending != 1 || s.Pending() != 0 {
		t.Errorf("after one event eliding 3: %+v, pending %d; want 4 processed, 1 executed from 1 entry", st, s.Pending())
	}
	if want := float64(st.Executed) / st.RunWall.Seconds(); st.EventsPerSec != want {
		t.Errorf("EventsPerSec %v, want Executed/RunWall = %v", st.EventsPerSec, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Elide(-1) did not panic")
		}
	}()
	s.Elide(-1)
}

// TestFoldAndAtSeq: a cursor reserves seqs for the calls it leaves
// out; Fold counts them as processed, not executed, and moves the
// clock to the last of them once the queue drains; AtSeq queues a folded
// call under its reserved key, where it runs before a later seq at the
// same instant, and takes back the fold's count; and AtSeq refuses a key
// at or before the running event's and a seq never handed out.
func TestFoldAndAtSeq(t *testing.T) {
	s := New()
	var got []int
	cb := func(_ any, i int) { got = append(got, i) }
	var b Batch
	offs := []Time{10, 10, 20, 30}
	first := s.NextSeq()
	b.AfterCursor(0, cb, nil, 0, offs, []int{1}) // calls 0, 2 and 3 fold
	s.ScheduleBatch(&b)
	s.Fold(3, 30)
	s.AtCall(20, cb, nil, 9) // a later seq at call 2's instant
	s.AtCall(5, func(any, int) {
		if s.Seq() != first+5 {
			t.Errorf("running seq %d, want %d", s.Seq(), first+5)
		}
		s.AtSeq(20, first+2, cb, nil, 2) // call 2, queued after all
	}, nil, 0)
	s.Run()
	st := s.Stats()
	if !slices.Equal(got, []int{1, 2, 9}) || s.Now() != 30 || s.Seq() != math.MaxUint64 ||
		st.Processed != 6 || st.Executed != 4 {
		t.Errorf("ran %v, now %v, seq %d, %+v; want [1 2 9] at 30, after everything, 6 processed, 4 executed",
			got, s.Now(), s.Seq(), st)
	}
	for _, c := range []struct {
		name string
		at   Time
		seq  uint64
	}{{"at the running instant, an older seq", 30, first + 4}, {"before the running instant", 20, first + 3}, {"an unreserved seq", 40, math.MaxUint64 - 1}} {
		s.AfterCall(0, func(any, int) {
			defer func() {
				if recover() == nil {
					t.Errorf("AtSeq %s did not panic", c.name)
				}
			}()
			s.Fold(1, s.Now())
			s.AtSeq(c.at, c.seq, cb, nil, 0)
		}, nil, 0)
		s.Run()
	}
}

// TestCursorRejectsDisorder: AfterCursor panics on a cursor without
// calls and on calls that do not follow each other — a position not
// after the one before, one past the offsets, an offset earlier than the
// one before or below zero.
func TestCursorRejectsDisorder(t *testing.T) {
	cases := []struct {
		name string
		offs []Time
		args []int
	}{
		{"no offsets", nil, nil},
		{"no calls", []Time{1, 2}, []int{}},
		{"negative offset", []Time{-1, 2}, nil},
		{"decreasing offsets", []Time{3, 2}, nil},
		{"negative position", []Time{1, 2}, []int{-1}},
		{"position past the offsets", []Time{1, 2}, []int{0, 2}},
		{"positions out of order", []Time{1, 1, 1}, []int{2, 1}},
		{"repeated position", []Time{1, 1}, []int{0, 0}},
		{"offset earlier along the calls", []Time{5, 9, 3}, []int{1, 2}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AfterCursor(%v, %v) did not panic", c.name, c.offs, c.args)
				}
			}()
			var b Batch
			b.AfterCursor(0, func(any, int) {}, nil, 0, c.offs, c.args)
		}()
	}
}
