package sim

import (
	"testing"
	"testing/quick"

	"mtmrp/internal/rng"
)

// This file is the proof obligation for the ladder-queue swap: execution
// order is a pure function of the (at, seq) total order, so the ladder
// must pop the exact sequence the old binary heap (refheap.go) pops, for
// any interleaving of schedules, cancellations, bounded runs and resets.

// TestLadderMatchesRefHeap drives the raw ladder and the reference heap
// through identical randomized push/pop scripts — mixed time horizons
// (ties, microsecond fans, second-scale jitter), interleaved drains, and
// a reset between epochs — and requires identical pop sequences.
func TestLadderMatchesRefHeap(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var q ladder
		var h refHeap
		var seq uint64
		for epoch := 0; epoch < 2; epoch++ {
			var now Time
			push := func(at Time) {
				e := entry{at: at, seq: seq, id: uint32(seq), gen: uint32(epoch)}
				seq++
				q.push(e)
				h.push(e)
			}
			offset := func() Time {
				switch r.Intn(4) {
				case 0:
					return 0 // tie with the clock
				case 1:
					return Time(r.Intn(1000)) // sub-microsecond fan
				case 2:
					return Time(r.Intn(1_000_000)) // millisecond horizon
				default:
					return Time(r.Intn(1_000_000_000)) // second-scale jitter
				}
			}
			for op := 0; op < 400; op++ {
				switch {
				case r.Bool(0.05):
					// Tie storm: a burst of simultaneous events.
					at := now + offset()
					for i := 0; i < 100; i++ {
						push(at)
					}
				case r.Bool(0.6):
					for i := r.Intn(8) + 1; i > 0; i-- {
						push(now + offset())
					}
				default:
					for i := r.Intn(12) + 1; i > 0 && len(h) > 0; i-- {
						want := h.pop()
						got, ok := q.peek()
						if !ok || got != want {
							t.Logf("pop mismatch: ladder %+v ok=%v, heap %+v", got, ok, want)
							return false
						}
						q.popFront()
						now = want.at
					}
				}
			}
			for len(h) > 0 {
				want := h.pop()
				got, ok := q.peek()
				if !ok || got != want {
					t.Logf("drain mismatch: ladder %+v ok=%v, heap %+v", got, ok, want)
					return false
				}
				q.popFront()
			}
			if _, ok := q.peek(); ok {
				t.Log("ladder not empty after heap drained")
				return false
			}
			q.reset()
			h = h[:0]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refModel is a complete reference scheduler built on the old binary
// heap: lazy cancellation by sequence number, Step/RunUntil drains, and
// reset — the semantics Simulator promises, minus the arena plumbing.
type refModel struct {
	h         refHeap
	now       Time
	seq       uint64
	cancelled map[uint64]bool
	tags      map[uint64]int
	fired     []firedEvent
}

type firedEvent struct {
	at  Time
	tag int
}

func newRefModel() *refModel {
	return &refModel{cancelled: map[uint64]bool{}, tags: map[uint64]int{}}
}

func (m *refModel) schedule(d Time, tag int) uint64 {
	s := m.seq
	m.seq++
	m.h.push(entry{at: m.now + d, seq: s})
	m.tags[s] = tag
	return s
}

func (m *refModel) cancel(s uint64) { m.cancelled[s] = true }

func (m *refModel) pop() (firedEvent, bool) {
	for len(m.h) > 0 {
		e := m.h.pop()
		if m.cancelled[e.seq] {
			continue
		}
		m.now = e.at
		f := firedEvent{at: e.at, tag: m.tags[e.seq]}
		m.fired = append(m.fired, f)
		return f, true
	}
	return firedEvent{}, false
}

func (m *refModel) runUntil(t Time) {
	for len(m.h) > 0 {
		e := m.h[0]
		if m.cancelled[e.seq] {
			m.h.pop()
			continue
		}
		if e.at > t {
			break
		}
		m.pop()
	}
	if m.now < t {
		m.now = t
	}
}

func (m *refModel) reset() {
	m.h = m.h[:0]
	m.now = 0
	m.seq = 0
	m.cancelled = map[uint64]bool{}
	m.tags = map[uint64]int{}
}

// TestSchedulerDifferential runs the full Simulator and the refModel
// through the same randomized op script — AfterCall and ScheduleBatch
// schedules (including massive tie storms), AfterCursor entries (which
// the model expands into single calls in offset order), cancels of live,
// fired and stale handles, Step bursts, RunUntil hops and Stops that land
// in the middle of a cursor, and Resets with cursors pending — and
// requires the two fired-event streams to match exactly, (time, tag) for
// (time, tag), plus agreeing pending counts at every checkpoint.
func TestSchedulerDifferential(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New()
		m := newRefModel()
		var fired []firedEvent
		stopAt := -1 // Stop the running drain once fired reaches this length
		cb := func(_ any, tag int) {
			fired = append(fired, firedEvent{at: s.Now(), tag: tag})
			if len(fired) == stopAt {
				s.Stop()
			}
		}

		var handles []Event   // scheduler handles, index-aligned with...
		var modelSeq []uint64 // ...model sequence numbers
		tag := 0
		offset := func() Time {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return Time(r.Intn(1000))
			case 2:
				return Time(r.Intn(1_000_000))
			default:
				return Time(r.Intn(100_000_000))
			}
		}
		schedule := func(d Time) {
			handles = append(handles, s.AfterCall(d, cb, nil, tag))
			modelSeq = append(modelSeq, m.schedule(d, tag))
			tag++
		}
		var batch Batch
		for op := 0; op < 600; op++ {
			switch r.Intn(12) {
			case 0, 1, 2:
				schedule(offset())
			case 3:
				// Tie storm, batched: everything at one instant.
				d := offset()
				n := r.Intn(200) + 50
				for i := 0; i < n; i++ {
					batch.AfterCall(d, cb, nil, tag)
					m.schedule(d, tag)
					tag++
				}
				s.ScheduleBatch(&batch)
			case 4:
				// Mixed-delay batch, like a transmission fan.
				n := r.Intn(30) + 2
				for i := 0; i < n; i++ {
					d := offset()
					batch.AfterCall(d, cb, nil, tag)
					m.schedule(d, tag)
					tag++
				}
				s.ScheduleBatch(&batch)
			case 5:
				if len(handles) > 0 {
					// May hit a live, fired, or already-cancelled handle;
					// all three must be no-ops past the first live hit.
					i := r.Intn(len(handles))
					s.Cancel(handles[i])
					m.cancel(modelSeq[i])
				}
			case 6, 7:
				for k := r.Intn(20) + 1; k > 0; k-- {
					want, ok := m.pop()
					if s.Step() != ok {
						t.Log("Step/pop availability mismatch")
						return false
					}
					if ok && fired[len(fired)-1] != want {
						t.Logf("fired mismatch: got %+v want %+v", fired[len(fired)-1], want)
						return false
					}
				}
			case 8:
				until := m.now + offset()
				s.RunUntil(until)
				m.runUntil(until)
				if s.Now() != m.now {
					t.Logf("clock mismatch after RunUntil: sim %v model %v", s.Now(), m.now)
					return false
				}
			case 10:
				// A fan of cursors and single calls, like a transmission's
				// start and end cursors: offsets are nondecreasing with
				// ties, zero and equal runs, and some cursors and calls
				// share a delay, so same-timestamp order is exercised.
				var ds []Time
				for i := r.Intn(12) + 1; i > 0; i-- {
					if len(ds) > 0 && r.Bool(0.3) {
						ds = append(ds, ds[r.Intn(len(ds))])
					} else {
						ds = append(ds, offset())
					}
				}
				for _, d := range ds {
					if r.Bool(0.3) {
						batch.AfterCall(d, cb, nil, tag)
						m.schedule(d, tag)
						tag++
						continue
					}
					offs := cursorOffsets(r)
					batch.AfterCursor(d, cb, nil, tag, offs)
					for _, o := range offs {
						m.schedule(d+o, tag)
						tag++
					}
				}
				s.ScheduleBatch(&batch)
			case 11:
				// Run, stopped after k calls: usually mid-cursor.
				k := r.Intn(80) + 1
				stopAt = len(fired) + k
				s.Run()
				stopAt = -1
				for ; k > 0; k-- {
					if _, ok := m.pop(); !ok {
						break
					}
				}
				if len(fired) != len(m.fired) {
					t.Logf("Stop mismatch: sim fired %d, model %d", len(fired), len(m.fired))
					return false
				}
			case 9:
				if r.Bool(0.2) {
					s.Reset()
					m.reset()
					m.fired = m.fired[:0]
					fired = fired[:0]
					handles = handles[:0]
					modelSeq = modelSeq[:0]
				}
			}
			if s.Pending() != len(m.h)-countCancelledQueued(m) {
				t.Logf("pending mismatch: sim %d model %d", s.Pending(), len(m.h)-countCancelledQueued(m))
				return false
			}
		}
		// Drain everything and compare the complete streams.
		s.Run()
		for {
			if _, ok := m.pop(); !ok {
				break
			}
		}
		if len(fired) != len(m.fired) {
			t.Logf("stream lengths differ: sim %d model %d", len(fired), len(m.fired))
			return false
		}
		for i := range fired {
			if fired[i] != m.fired[i] {
				t.Logf("stream diverges at %d: sim %+v model %+v", i, fired[i], m.fired[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// cursorOffsets draws a fresh nondecreasing offset list for one cursor:
// sometimes a run (all offsets equal), otherwise steps mixing ties,
// nanosecond fan spreads and millisecond gaps, from zero or not.
func cursorOffsets(r *rng.RNG) []Time {
	offs := make([]Time, r.Intn(60)+1)
	var o Time
	if r.Bool(0.5) {
		o = Time(r.Intn(300))
	}
	run := r.Bool(0.2)
	for j := range offs {
		if j > 0 && !run {
			switch r.Intn(4) {
			case 0: // tie with the previous call
			case 1, 2:
				o += Time(r.Intn(300))
			default:
				o += Time(r.Intn(2_000_000))
			}
		}
		offs[j] = o
	}
	return offs
}

// countCancelledQueued counts still-queued model entries that were
// cancelled (the simulator removes them from its live count eagerly,
// the model lazily).
func countCancelledQueued(m *refModel) int {
	n := 0
	for _, e := range m.h {
		if m.cancelled[e.seq] {
			n++
		}
	}
	return n
}

// TestStaleHandleAfterReset is the regression test for the stale-handle
// crash: handles retained across Simulator.Reset used to index past the
// truncated arena and panic in Pending and Cancel.
func TestStaleHandleAfterReset(t *testing.T) {
	s := New()
	e := s.At(10, func() {})
	mid := s.At(20, func() {})
	s.Reset()
	if e.Pending() || mid.Pending() {
		t.Error("handle from before Reset reports pending")
	}
	s.Cancel(e) // must not panic or corrupt the fresh state
	s.Cancel(mid)
	ran := false
	s.At(5, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("post-reset event did not run")
	}
}

// TestCancelSoleEventRecycledSlot cancels the only queued event, lets the
// queue drain the stale entry, and verifies that a handle to the old
// generation stays inert once the arena slot is recycled by a new event.
func TestCancelSoleEventRecycledSlot(t *testing.T) {
	s := New()
	old := s.At(10, func() { t.Error("cancelled event ran") })
	s.Cancel(old)
	if old.Pending() {
		t.Error("cancelled sole event still pending")
	}
	s.Run() // drains the lazy-cancelled entry, recycling the slot
	ran := false
	fresh := s.At(20, func() { ran = true })
	if fresh.id != old.id {
		t.Fatalf("expected slot reuse: old id %d, fresh id %d", old.id, fresh.id)
	}
	if old.Pending() {
		t.Error("stale handle reports pending on recycled slot")
	}
	s.Cancel(old) // stale: must not cancel the fresh occupant
	if !fresh.Pending() {
		t.Error("stale cancel hit the recycled slot's new event")
	}
	s.Run()
	if !ran {
		t.Error("fresh event did not run")
	}
}

// TestTieStormSeqOrder schedules 10k events at one instant — half
// one-at-a-time, half batched — and requires strict FIFO (scheduling)
// order, the seq tie-break at scale.
func TestTieStormSeqOrder(t *testing.T) {
	const n = 10_000
	s := New()
	got := make([]int, 0, n)
	cb := func(_ any, i int) { got = append(got, i) }
	var b Batch
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.AtCall(1000, cb, nil, i)
		} else {
			b.AfterCall(1000, cb, nil, i)
			s.ScheduleBatch(&b)
		}
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie storm broke FIFO at %d: got %d", i, v)
		}
	}
	if s.Now() != 1000 {
		t.Errorf("clock = %v, want 1000", s.Now())
	}
}

// TestRunUntilExactTimestamp runs to exactly an event's time: the event
// fires (the bound is inclusive) and the clock lands on it, while a
// later event stays queued.
func TestRunUntilExactTimestamp(t *testing.T) {
	s := New()
	var got []Time
	s.At(50, func() { got = append(got, 50) })
	s.At(51, func() { got = append(got, 51) })
	s.RunUntil(50)
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("RunUntil(50) fired %v, want exactly the t=50 event", got)
	}
	if s.Now() != 50 {
		t.Errorf("clock = %v, want 50", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.RunUntil(51)
	if len(got) != 2 {
		t.Fatalf("second RunUntil fired %v", got)
	}
}
