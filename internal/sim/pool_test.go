package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// nop is a preallocated callback so the alloc tests measure the scheduler,
// not the caller's closure.
var nop = func() {}

// nopCall is a preallocated Callback for the closure-free path.
var nopCall = func(any, int) {}

// TestAfterStepAllocs is the allocation-regression guard for the event
// pool: once the simulator's arena, heap and free list are warm, a
// schedule-and-fire cycle must not touch the heap allocator at all.
func TestAfterStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s := New()
	// Warm the pools.
	for i := 0; i < 100; i++ {
		s.After(1, nop)
	}
	s.Run()

	if got := testing.AllocsPerRun(200, func() {
		s.After(1, nop)
		s.Step()
	}); got != 0 {
		t.Errorf("After+Step allocates %.1f objects/op in steady state, want 0", got)
	}

	if got := testing.AllocsPerRun(200, func() {
		s.AfterCall(1, nopCall, s, 7)
		s.Step()
	}); got != 0 {
		t.Errorf("AfterCall+Step allocates %.1f objects/op in steady state, want 0", got)
	}
}

// TestAfterCall checks the closure-free scheduling path end to end:
// ordering with regular events, argument passing, and cancellation.
func TestAfterCall(t *testing.T) {
	s := New()
	var got []int
	record := func(arg any, i int) {
		*(arg.(*[]int)) = append(*(arg.(*[]int)), i)
	}
	s.AtCall(20, record, &got, 2)
	s.At(10, func() { got = append(got, 1) })
	s.AfterCall(30, record, &got, 3)
	e := s.AtCall(25, record, &got, 99)
	s.Cancel(e)
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestStaleHandleAfterReuse checks the generation guard: a handle to a
// fired event must stay inert even after the pooled record is reused by a
// newer event — cancelling through the stale handle must not cancel the
// new occupant.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := New()
	first := s.At(1, nop)
	s.Run()
	if first.Pending() {
		t.Fatal("fired event still pending")
	}

	ran := false
	second := s.At(2, func() { ran = true })
	if second.id != first.id {
		t.Fatalf("pool did not reuse the freed slot (got id %d, want %d)", second.id, first.id)
	}
	s.Cancel(first) // stale: must not touch the second event
	if !second.Pending() {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	s.Run()
	if !ran {
		t.Fatal("second event did not run")
	}
}

// TestLazyCancelAccounting checks Pending() and RunUntil in the presence
// of lazily-discarded cancelled entries.
func TestLazyCancelAccounting(t *testing.T) {
	s := New()
	var fired []Time
	mk := func(at Time) Event {
		return s.At(at, func() { fired = append(fired, at) })
	}
	e10 := mk(10)
	mk(20)
	e30 := mk(30)
	mk(40)
	if s.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", s.Pending())
	}
	s.Cancel(e10)
	s.Cancel(e30)
	if s.Pending() != 2 {
		t.Fatalf("Pending after cancels = %d, want 2", s.Pending())
	}
	// The cancelled front entry (at=10) must not let RunUntil execute the
	// next live event (at=20) early, nor run anything past t.
	s.RunUntil(15)
	if len(fired) != 0 {
		t.Fatalf("RunUntil(15) fired %v, want none", fired)
	}
	s.RunUntil(35)
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("RunUntil(35) fired %v, want [20]", fired)
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 40 {
		t.Fatalf("Run fired %v, want [20 40]", fired)
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2 (cancelled events must not count)", s.Processed())
	}
}

// TestRunEntryCounts pins the accounting of a run — a cursor whose
// offsets are all equal: one queue entry, n events for Processed, Pending
// and MaxPending; Step, RunUntil and Stop each landing mid-run with the
// entry held at the front; and a same-instant event scheduled mid-run
// queuing behind the run's remaining calls.
func TestRunEntryCounts(t *testing.T) {
	s := New()
	var got []int
	cb := func(_ any, i int) {
		got = append(got, i)
		switch i {
		case 11:
			s.AfterCall(0, func(any, int) { got = append(got, -1) }, nil, 0)
		case 12:
			s.Stop()
		}
	}
	var b Batch
	b.AfterCursor(5, cb, nil, 10, []Time{0, 0, 0, 0}, nil)
	s.ScheduleBatch(&b)
	if st := s.Stats(); s.Pending() != 4 || st.MaxPending != 4 || st.Entries != 1 {
		t.Fatalf("after scheduling: pending %d, stats %+v; want 4 pending in 1 entry", s.Pending(), st)
	}
	if !s.Step() || s.Now() != 5 || s.Pending() != 3 || s.Processed() != 1 {
		t.Fatalf("Step: now %v pending %d processed %d", s.Now(), s.Pending(), s.Processed())
	}
	s.RunUntil(5) // runs 11 and 12, then 12's Stop ends it mid-run
	if len(got) != 3 || s.Pending() != 2 {
		t.Fatalf("RunUntil with Stop ran %v, pending %d; want [10 11 12], 2 pending", got, s.Pending())
	}
	s.Run()
	want := []int{10, 11, 12, 13, -1}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
	if st := s.Stats(); st.Processed != 5 || st.Entries != 2 || s.Pending() != 0 {
		t.Errorf("after drain: stats %+v pending %d; want 5 events in 2 entries", st, s.Pending())
	}
}

// TestCursorEntryCounts pins a cursor with distinct offsets: its calls
// interleave with single events by exact (at, seq) — an event queued
// before the batch precedes a tied call, one queued after follows it —
// while Step, RunUntil and Stop land mid-cursor and each call counts as
// one event; a Reset with the cursor pending drops its remaining calls.
func TestCursorEntryCounts(t *testing.T) {
	s := New()
	var got []int
	cb := func(_ any, i int) {
		got = append(got, i)
		if i == 2 {
			s.Stop()
		}
	}
	s.AtCall(15, cb, nil, 200)
	var b Batch
	b.AfterCursor(10, cb, nil, 0, []Time{0, 0, 5, 5, 20}, nil)
	b.AfterCall(12, cb, nil, 100)
	s.ScheduleBatch(&b)
	s.AtCall(15, cb, nil, 300)
	if st := s.Stats(); s.Pending() != 8 || st.MaxPending != 8 || st.Entries != 4 {
		t.Fatalf("after scheduling: pending %d, stats %+v; want 8 pending in 4 entries", s.Pending(), st)
	}
	if !s.Step() || s.Now() != 10 || s.Pending() != 7 {
		t.Fatalf("Step: now %v pending %d, ran %v", s.Now(), s.Pending(), got)
	}
	s.RunUntil(12)
	s.Run() // stopped by call 2, mid-cursor
	want := []int{0, 1, 100, 200, 2}
	if !slices.Equal(got, want) || s.Now() != 15 || s.Pending() != 3 || s.Processed() != 5 {
		t.Fatalf("ran %v to %v with %d pending, %d processed; want %v to 15 with 3 pending, 5 processed",
			got, s.Now(), s.Pending(), s.Processed(), want)
	}
	s.Run()
	want = append(want, 3, 300, 4)
	if !slices.Equal(got, want) || s.Now() != 30 || s.Pending() != 0 {
		t.Fatalf("ran %v to %v, want %v to 30", got, s.Now(), want)
	}
	if st := s.Stats(); st.Processed != 8 || st.Entries < 4 {
		t.Errorf("after drain: stats %+v; want 8 events in at least 4 entries", st)
	}

	// A Reset with a cursor pending: none of its calls may run after.
	got = got[:0]
	b.AfterCursor(0, cb, nil, 10, []Time{1, 2, 3}, nil)
	s.ScheduleBatch(&b)
	s.Step()
	s.Reset()
	if s.Pending() != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("after Reset: pending %d, stats %+v", s.Pending(), s.Stats())
	}
	b.AfterCursor(0, cb, nil, 20, []Time{4, 4}, nil)
	s.ScheduleBatch(&b)
	s.Run()
	if want := []int{10, 20, 21}; !slices.Equal(got, want) {
		t.Errorf("ran %v across the Reset, want %v", got, want)
	}
}

// TestAdoptIdle pins Simulator.AdoptIdle: a simulator that adopts a
// drained one — dropping what was queued on it — must run any later
// schedule exactly as the source does: the same calls in the same order
// at the same times, and the same Processed, Entries and MaxPending. The
// schedule mixes time scales and cursors, so the queue's tier bounds
// decide where cursors re-key, and Entries shows any mismatch.
func TestAdoptIdle(t *testing.T) {
	type call struct {
		at  Time
		tag int
	}
	phase := func(s *Simulator, seed int64, got *[]call) {
		r := rand.New(rand.NewSource(seed))
		var cb Callback
		cb = func(_ any, i int) {
			*got = append(*got, call{s.Now(), i})
			if i%7 == 0 && i < 1000 {
				s.AfterCall(Time(r.Intn(50)), cb, nil, i+1000)
			}
		}
		var b Batch
		for i := 0; i < 400; i++ {
			d := Time(r.Intn(1 << (4 + 4*r.Intn(5))))
			if r.Intn(4) == 0 {
				offs := make([]Time, 1+r.Intn(6))
				for j := range offs {
					offs[j] = Time(r.Intn(30))
				}
				slices.Sort(offs)
				b.AfterCursor(d, cb, nil, 10*i, offs, nil)
				s.ScheduleBatch(&b)
				continue
			}
			s.AfterCall(d, cb, nil, 10*i)
		}
		s.Run()
	}
	counters := func(s *Simulator) Stats {
		st := s.Stats()
		st.RunWall, st.EventsPerSec = 0, 0
		return st
	}

	src := New()
	var srcCalls, dstCalls []call
	phase(src, 1, &srcCalls)
	dst := New()
	dst.AfterCall(5, func(any, int) { t.Error("an event queued before AdoptIdle ran") }, nil, 0)
	dst.AdoptIdle(src)
	if dst.Now() != src.Now() || counters(dst) != counters(src) || dst.Pending() != 0 {
		t.Fatalf("after AdoptIdle: now %v stats %+v, source now %v stats %+v",
			dst.Now(), counters(dst), src.Now(), counters(src))
	}
	srcCalls = srcCalls[:0]
	phase(src, 2, &srcCalls)
	phase(dst, 2, &dstCalls)
	if !slices.Equal(dstCalls, srcCalls) {
		t.Fatal("the adopting simulator ran the next phase differently")
	}
	if counters(dst) != counters(src) {
		t.Fatalf("after the next phase: stats %+v, source %+v", counters(dst), counters(src))
	}

	busy := New()
	busy.After(10, nop)
	defer func() {
		if recover() == nil {
			t.Error("AdoptIdle from a simulator with a pending event did not panic")
		}
	}()
	New().AdoptIdle(busy)
}
