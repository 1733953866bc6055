package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Event is a handle to a scheduled callback, returned by At/After/AtCall/
// AfterCall and accepted by Cancel. It is a small value (copy freely); the
// zero Event is valid and refers to nothing: Pending reports false and
// Cancel is a no-op.
//
// Handles are generation-checked: once the underlying event fires or is
// cancelled, every handle to it becomes stale and is ignored, even though
// the event's storage is recycled for later events. Callers therefore need
// not track whether a timer already fired before cancelling it.
type Event struct {
	s   *Simulator
	id  uint32
	gen uint32
	at  Time
}

// At returns the virtual time the event is (or was) scheduled for.
func (e Event) At() Time { return e.at }

// Pending reports whether the event is still queued. A handle retained
// across a Simulator.Reset points past the truncated arena until the slot
// is reallocated; the bounds check keeps such stale handles inert instead
// of panicking (handles should still be discarded on reset: once the
// arena regrows, an old handle can alias a new event of the same
// generation).
func (e Event) Pending() bool {
	return e.s != nil && int(e.id) < len(e.s.events) && e.s.events[e.id].gen == e.gen
}

// Callback is the closure-free callback form used by AtCall/AfterCall: the
// receiver state and a small integer are passed through the scheduler
// instead of being captured, so hot paths schedule without allocating.
type Callback func(arg any, i int)

// entry is one queue element. It is pointer-free by design: tier
// transfers and sorts move plain values through contiguous memory, with
// no write barriers and no per-event index maintenance.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	id  uint32 // index into Simulator.events
	gen uint32 // generation the entry was scheduled under
}

// event is the pooled callback record. at/seq live only in the queue
// entry; the record holds what must survive until the event fires. A
// cursor's record (Batch.AfterCursor) stands for its remaining calls
// cb(arg, argi), cb(arg, argi+1), … (or the argi its side table lists,
// when it leaves calls out): each execution runs one call and advances
// argi, and cur indexes the cursor record that keys the calls after it.
// The cursor data lives in that side table, not here, so a single
// event's record stays 40 bytes.
type event struct {
	gen  uint32
	cur  uint32 // 1 + index into Simulator.cursors while calls follow; 0 otherwise
	cb   Callback
	arg  any
	argi int
}

// cursor keys the calls of a cursor entry after the one queued: the call
// with argi first+k is due at base + offs[k]. Its seqs need no storage: a
// call's seq is its predecessor's plus the step between their argi,
// which is 1 unless the cursor leaves calls out (args).
type cursor struct {
	base  Time
	first int    // argi of the cursor's call 0
	offs  []Time // offsets of all the cursor's calls
	args  []int  // positions of the calls after the queued one; nil: each follows its predecessor
	left  int    // calls after the queued one
}

// Simulator is a single-threaded discrete-event scheduler. All simulated
// activity happens inside callbacks executed by Run/RunUntil/Step, in
// nondecreasing time order; simultaneous events run in scheduling (FIFO)
// order, which keeps runs deterministic.
//
// Execution order is a pure function of the (at, seq) total order, so the
// internal queue representation (and the event pooling underneath it) can
// never perturb a run. The queue is a ladder queue (ladder.go) whose
// entries are single calls or cursors: a cursor (Batch.AfterCursor) is
// one entry for a sequence of calls, keyed at any moment by its next
// call's exact (at, seq). The binary heap the ladder replaced survives as
// the differential-test reference (refheap_test.go).
//
// Simulator is not safe for concurrent use: the whole point of a DES is
// that virtual concurrency is multiplexed onto one goroutine.
type Simulator struct {
	now       Time
	q         ladder
	events    []event       // arena of pooled event records, indexed by entry.id
	free      []uint32      // free list of recycled arena slots
	cursors   []cursor      // cursor records, indexed by event.cur-1
	curFree   []uint32      // free list of recycled cursor records
	live      int           // scheduled events not yet fired or cancelled
	maxLive   int           // high-water mark of live (queue depth)
	seq       uint64        // the next seq to hand out
	cur       uint64        // seq of the event running; with now, the position in the (at, seq) order
	horizon   Time          // latest time of an event folded away (Fold)
	processed uint64        // events run or elided
	executed  uint64        // events run: the calls exec made
	entries   uint64        // queue entries pushed, cursor re-queues included
	runWall   time.Duration // wall time spent inside Run/RunUntil
	running   bool
}

// New returns an empty simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Reset returns the simulator to its initial state — clock at 0, empty
// queue, zeroed counters — while keeping the queue tiers and event-arena
// storage for reuse. Execution order is a pure function of (at, seq),
// both of which restart from zero, so a reset simulator behaves
// bit-identically to a fresh one. Outstanding Event handles from before
// the reset must be discarded by their holders (generation counters
// restart too).
func (s *Simulator) Reset() {
	// Drop lingering callback references so recycled slots do not pin the
	// previous run's objects; the slice lengths (not capacities) go to 0.
	clear(s.events)
	clear(s.cursors)
	s.q.reset()
	s.events = s.events[:0]
	s.free = s.free[:0]
	s.cursors = s.cursors[:0]
	s.curFree = s.curFree[:0]
	s.now = 0
	s.live = 0
	s.maxLive = 0
	s.seq = 0
	s.cur = 0
	s.horizon = 0
	s.processed = 0
	s.executed = 0
	s.entries = 0
	s.runWall = 0
	s.running = false
}

// AdoptIdle resets s and then gives it the clock, counters and queue
// bounds of src, which must be idle: its queue drained by Run or RunUntil,
// and not inside either. Afterwards s schedules, orders and counts exactly
// as src would from here on: the same clock, the same next seq, the same
// queue layout for whatever is pushed next, and Stats carrying src's
// Processed, Executed, Entries and MaxPending. Events already queued on
// s are dropped with the reset. A session that copies another's finished HELLO
// phase uses this, so the events src ran count as s's own.
func (s *Simulator) AdoptIdle(src *Simulator) {
	if src.live != 0 || src.running {
		panic(fmt.Sprintf("sim: AdoptIdle from a busy simulator (%d pending)", src.live))
	}
	s.Reset()
	s.q.adoptIdle(&src.q)
	s.now = src.now
	s.seq = src.seq
	s.cur = src.cur
	s.horizon = src.horizon
	s.processed = src.processed
	s.executed = src.executed
	s.entries = src.entries
	s.maxLive = src.maxLive
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// NextSeq returns the seq the next event scheduled will take.
func (s *Simulator) NextSeq() uint64 { return s.seq }

// Seq returns the seq of the event running. With Now it keys the
// simulator's position in the (at, seq) order: every event keyed before
// (Now, Seq) has run or been folded away, and none keyed after it has.
// Between runs, once everything due by Now has run, it is the largest
// seq, so the position follows every event at Now.
func (s *Simulator) Seq() uint64 { return s.cur }

// Processed returns the number of events processed so far, elided ones
// included (for stats/tests).
func (s *Simulator) Processed() uint64 { return s.processed }

// Elide counts n events that the caller folded into one it scheduled as
// processed, as if each had run: Processed includes them, while Executed,
// Pending, MaxPending and Entries are untouched. A MAC that counts a
// backoff down on one timer instead of one event per slot calls it, so
// event counts stay those of the per-slot countdown.
func (s *Simulator) Elide(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: eliding %d events", n))
	}
	s.processed += uint64(n)
}

// Fold counts n events that the caller will never queue as processed,
// as Elide does, the latest of them due at last (no earlier than Now):
// Processed includes them from now on, and a Run or Step that drains the
// queue moves the clock on to last if it is still behind, as running them
// would have. Their seqs are the caller's to reserve (Batch.AfterCursor
// with args, Batch.Reserve), and the caller may still queue one of them
// with AtSeq. Processed is exact whenever the queue has drained; between
// the fold and a folded event's time it already counts that event.
func (s *Simulator) Fold(n int, last Time) {
	if n < 0 || last < s.now {
		panic(fmt.Sprintf("sim: folding %d events up to %v at %v", n, last, s.now))
	}
	s.processed += uint64(n)
	s.horizon = max(s.horizon, last)
}

// AtSeq queues cb(arg, i) at t under seq, a seq an earlier ScheduleBatch
// reserved for a call a cursor left out and the caller folded
// (Fold). The call takes the place it would have had: its (at, seq) key
// must still follow the running event's, and Processed, which counted it
// at the fold, counts it again only when it runs. No handle is returned.
func (s *Simulator) AtSeq(t Time, seq uint64, cb Callback, arg any, i int) {
	if cb == nil {
		panic("sim: scheduling nil callback")
	}
	if seq >= s.seq || t < s.now || t == s.now && seq <= s.cur || s.processed == 0 {
		panic(fmt.Sprintf("sim: AtSeq(%v, %d) at position (%v, %d), next seq %d", t, seq, s.now, s.cur, s.seq))
	}
	id := s.alloc()
	ev := &s.events[id]
	ev.cb = cb
	ev.arg = arg
	ev.argi = i
	s.q.push(entry{at: t, seq: seq, id: id, gen: ev.gen})
	s.processed--
	s.entries++
	s.live++
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
}

// Pending returns the number of events currently queued (each call of a
// cursor entry counts as one event).
func (s *Simulator) Pending() int { return s.live }

// Stats is a snapshot of the simulator's observability counters, reset
// alongside the simulator (so "per run" means "since the last Reset").
type Stats struct {
	Processed    uint64        // events processed: run, or elided (Elide) as if run
	Executed     uint64        // events run: the callbacks actually called
	Entries      uint64        // queue entries pushed, cursor re-queues included; Processed/Entries is the events per entry
	MaxPending   int           // high-water mark of the pending-event queue
	RunWall      time.Duration // wall time spent inside Run/RunUntil
	EventsPerSec float64       // Executed / RunWall (0 before any run)
}

// Stats returns the current counters. EventsPerSec measures the
// scheduler's true throughput — callbacks run per wall-clock second of
// Run/RunUntil — independent of how much virtual time a run spans and of
// how many events a fold elided.
func (s *Simulator) Stats() Stats {
	st := Stats{Processed: s.processed, Executed: s.executed, Entries: s.entries, MaxPending: s.maxLive, RunWall: s.runWall}
	if s.runWall > 0 {
		st.EventsPerSec = float64(s.executed) / s.runWall.Seconds()
	}
	return st
}

// alloc takes an event record from the free list, or grows the arena.
func (s *Simulator) alloc() uint32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.events = append(s.events, event{})
	return uint32(len(s.events) - 1)
}

// schedule queues the prepared record id at time t and returns its handle.
func (s *Simulator) schedule(t Time, id uint32) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	gen := s.events[id].gen
	s.q.push(entry{at: t, seq: s.seq, id: id, gen: gen})
	s.seq++
	s.entries++
	s.live++
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
	return Event{s: s, id: id, gen: gen, at: t}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a protocol bug, and silently reordering time
// would corrupt the run.
func (s *Simulator) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return s.AtCall(t, callFunc, fn, 0)
}

// callFunc runs a func() scheduled by At: the func value rides in arg,
// which boxes it without allocating.
func callFunc(arg any, _ int) { arg.(func())() }

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtCall schedules cb(arg, i) at absolute virtual time t. Unlike At, no
// closure is involved: cb is typically a package-level func value and arg
// the receiver it operates on, so a schedule costs zero heap allocations
// once the simulator's pools are warm.
func (s *Simulator) AtCall(t Time, cb Callback, arg any, i int) Event {
	if cb == nil {
		panic("sim: scheduling nil callback")
	}
	id := s.alloc()
	ev := &s.events[id]
	ev.cb = cb
	ev.arg = arg
	ev.argi = i
	return s.schedule(t, id)
}

// AfterCall schedules cb(arg, i) to run d after the current time.
func (s *Simulator) AfterCall(d Time, cb Callback, arg any, i int) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtCall(s.now+d, cb, arg, i)
}

// Batch accumulates closure-free callback schedules whose delays were
// computed together, for bulk insertion via ScheduleBatch. The zero value
// is ready to use; the backing storage is retained across flushes, so a
// long-lived Batch (e.g. the channel's per-transmission fan) schedules
// with zero allocations in the steady state.
type Batch struct {
	calls []batchCall
}

type batchCall struct {
	d    Time
	cb   Callback // nil for a reservation (Reserve)
	arg  any
	argi int    // a cursor's first argi; a reservation's seq count
	offs []Time // a cursor's offsets; nil for a single call
	args []int  // the positions of the cursor's calls that run; nil: all
}

// AfterCall appends cb(arg, i), to run d after the simulator's clock at
// the moment the batch is flushed by ScheduleBatch. Arguments are
// validated here, at the call site that computed them.
func (b *Batch) AfterCall(d Time, cb Callback, arg any, i int) {
	b.check(d, cb)
	b.calls = append(b.calls, batchCall{d: d, cb: cb, arg: arg, argi: i})
}

// AfterCursor appends a cursor over the calls cb(arg, i+k), k = 0 …
// len(offs)-1, call k at the flush-time clock + d + offs[k]. With args
// nil every call runs; otherwise only the calls at the positions k that
// args lists, ascending and at least one. offs must be nonnegative and
// nondecreasing along the calls that run (the others are not read), and
// the caller must keep offs and args intact until the last call has run.
// A run of calls at one instant is a cursor whose offsets are all equal.
//
// The cursor takes one queue entry, keyed by its next call's (at, seq).
// Before each call but the last runs, the entry takes the following
// call's key — in place at the front of the queue while that key still
// precedes everything else, re-queued (and counted in Stats.Entries)
// otherwise. Every other counter (Processed, Pending, MaxPending) and
// every driver (Step runs one call, Stop takes effect between calls,
// RunUntil) sees one event per call that runs.
//
// Execution order is exactly that of len(offs) consecutive AfterCall
// appends in offs order, of which those args leaves out are never
// queued: ScheduleBatch reserves the contiguous seqs the appends would
// get, each call keeps its own, and the ladder orders any key exactly.
// Anything scheduled while the cursor runs gets a later seq. A call left
// out keeps its seq reserved and unused, for the caller to fold
// (Simulator.Fold) and, should it need the call after all, to queue
// under its own key (Simulator.AtSeq).
func (b *Batch) AfterCursor(d Time, cb Callback, arg any, i int, offs []Time, args []int) {
	b.check(d, cb)
	if len(offs) == 0 || args != nil && len(args) == 0 {
		panic("sim: a cursor without calls")
	}
	// Each call must follow the one before it: a later position, at an
	// offset no earlier (the first at least 0); indexing offs checks the
	// positions' upper bound.
	prev, last := -1, Time(0)
	if args == nil {
		for _, o := range offs {
			if o < last {
				panic(fmt.Sprintf("sim: cursor offsets %v", offs))
			}
			last = o
		}
	}
	for _, k := range args {
		if k <= prev || offs[k] < last {
			panic(fmt.Sprintf("sim: cursor call %d after call %d at %v", k, prev, last))
		}
		prev, last = k, offs[k]
	}
	b.calls = append(b.calls, batchCall{d: d, cb: cb, arg: arg, argi: i, offs: offs, args: args})
}

// Reserve appends n seqs that no call takes, as a cursor whose calls
// all fold would reserve them.
func (b *Batch) Reserve(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: reserving %d seqs", n))
	}
	b.calls = append(b.calls, batchCall{argi: n})
}

func (b *Batch) check(d Time, cb Callback) {
	if cb == nil {
		panic("sim: scheduling nil callback")
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
}

// reset empties the batch. The retained storage keeps the last flush's
// argument references until the next fill overwrites them — fine for the
// intended callers (the channel's arguments are pooled, simulation-lived
// objects), and it keeps the flush free of an O(n) clearing pass.
func (b *Batch) reset() {
	b.calls = b.calls[:0]
}

// ScheduleBatch schedules every entry in b, in append order, exactly as
// the equivalent sequence of AfterCall invocations would (cursors
// expanded call by call, the calls they leave out and the reserved seqs
// included): the same (at, seq) order, hence bit-identical execution
// order. The first append takes NextSeq and those after it the seqs that
// follow. Then it empties b.
//
// The bulk path exists for fan-out schedules — one transmission arming a
// whole carrier-sense fan — where the ladder queue places each entry
// with an O(1) bucket append and no per-event sift, and a single call
// amortizes the handle construction and validation of the one-at-a-time
// path. No handles are returned: batched events cannot be individually
// cancelled.
func (s *Simulator) ScheduleBatch(b *Batch) {
	calls, entries := 0, 0
	for k := range b.calls {
		c := &b.calls[k]
		if c.cb == nil {
			s.seq += uint64(c.argi)
			continue
		}
		id := s.alloc()
		ev := &s.events[id]
		ev.cb = c.cb
		ev.arg = c.arg
		ev.argi = c.argi
		at := s.now + c.d
		n, first := 1, 0
		if c.offs != nil {
			n = len(c.offs)
			run, rest := n, c.args
			if c.args != nil {
				run, first, rest = len(c.args), c.args[0], c.args[1:]
			}
			if run > 1 {
				ev.cur = s.newCursor(at, c.argi, c.offs, rest, run-1)
			}
			ev.argi += first
			at += c.offs[first]
			calls += run
		} else {
			calls++
		}
		s.q.push(entry{at: at, seq: s.seq + uint64(first), id: id, gen: ev.gen})
		s.seq += uint64(n) // reserve the cursor's contiguous seqs
		entries++
	}
	s.entries += uint64(entries)
	s.live += calls
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
	b.reset()
}

// newCursor takes a cursor record from the free list (or grows the
// table) and returns its event.cur reference.
func (s *Simulator) newCursor(base Time, first int, offs []Time, args []int, left int) uint32 {
	var k uint32
	if n := len(s.curFree); n > 0 {
		k = s.curFree[n-1]
		s.curFree = s.curFree[:n-1]
	} else {
		s.cursors = append(s.cursors, cursor{})
		k = uint32(len(s.cursors) - 1)
	}
	s.cursors[k] = cursor{base: base, first: first, offs: offs, args: args, left: left}
	return k + 1
}

// Cancel removes e from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op (the handle has gone stale), so
// callers need not track state. Cancellation is lazy: the queue entry is
// discarded when it reaches the front, which keeps Cancel O(1). Handles
// retained across a Reset are inert while their slot is unallocated (see
// Event.Pending).
func (s *Simulator) Cancel(e Event) {
	if e.s == nil || int(e.id) >= len(e.s.events) {
		return
	}
	ev := &e.s.events[e.id]
	if ev.gen != e.gen {
		return // already fired or cancelled
	}
	ev.gen++
	ev.cb, ev.arg = nil, nil
	e.s.live--
	// The arena slot is recycled when the stale queue entry surfaces.
}

// next discards cancelled entries and returns the next live one, if any,
// leaving it at the front of the queue. Step and RunUntil both run on
// this single peek: the entry is read (and stale-filtered) exactly once,
// then committed by exec.
func (s *Simulator) next() (entry, bool) {
	for {
		en, ok := s.q.peek()
		if !ok {
			return entry{}, false
		}
		if s.events[en.id].gen == en.gen {
			return en, true
		}
		s.q.popFront()
		s.free = append(s.free, en.id)
	}
}

// exec executes the next call of the entry returned by next, committing
// the entry once its last call has run.
func (s *Simulator) exec(en entry) {
	ev := &s.events[en.id]
	cb, arg, argi := ev.cb, ev.arg, ev.argi
	if ev.cur != 0 {
		// A cursor with calls left takes its next call's key before this
		// call runs. That key is at least this one (offsets never
		// decrease) and its seq precedes whatever the call schedules.
		c := &s.cursors[ev.cur-1]
		k := ev.argi - c.first + 1
		if c.args != nil {
			k, c.args = c.args[0], c.args[1:]
		}
		next := entry{at: c.base + c.offs[k], seq: en.seq + uint64(c.first+k-ev.argi), id: en.id, gen: en.gen}
		ev.argi = c.first + k
		if c.left--; c.left == 0 {
			c.offs, c.args = nil, nil // do not pin the caller's slices
			s.curFree = append(s.curFree, ev.cur-1)
			ev.cur = 0
		}
		if s.q.replaceFront(next) {
			s.entries++
		}
	} else {
		// Recycle before running: the callback may schedule new events
		// straight into the freed slot, and any surviving handles are
		// invalidated by the generation bump.
		s.q.popFront()
		ev.gen++
		ev.cb, ev.arg = nil, nil
		s.free = append(s.free, en.id)
	}
	s.live--
	s.now = en.at
	s.cur = en.seq
	s.processed++
	s.executed++
	cb(arg, argi)
}

// Step executes the next event (one call of a cursor), if any, and reports
// whether one ran.
func (s *Simulator) Step() bool {
	en, ok := s.next()
	if !ok {
		s.drained()
		return false
	}
	s.exec(en)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	start := time.Now()
	s.running = true
	for s.running {
		en, ok := s.next()
		if !ok {
			s.drained()
			break
		}
		s.exec(en)
	}
	s.running = false
	s.runWall += time.Since(start)
}

// drained moves the position, once the queue is empty, past every event
// run or folded: the clock to the latest folded event's time if it is
// still behind, and the seq past every event at that time.
func (s *Simulator) drained() {
	s.now = max(s.now, s.horizon)
	s.cur = math.MaxUint64
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (even if the queue still holds later events). The front entry is
// peeked once: if it is due it is executed directly, without re-scanning
// the queue head.
func (s *Simulator) RunUntil(t Time) {
	start := time.Now()
	s.running = true
	for s.running {
		en, ok := s.next()
		if !ok || en.at > t {
			if s.now <= t {
				s.cur = math.MaxUint64 // everything due by t has run
			}
			break
		}
		s.exec(en)
	}
	s.running = false
	if s.now < t {
		s.now = t
		s.cur = math.MaxUint64
	}
	s.runWall += time.Since(start)
}

// Stop makes the current Run/RunUntil return after the active callback,
// also between two calls of one cursor.
func (s *Simulator) Stop() { s.running = false }

// less orders entries by (at, seq) lexicographically, computed as one
// branchless 128-bit unsigned compare through the carry chain (at is never
// negative — scheduling in the past panics). The branchy form mispredicts
// heavily inside sorts and sifts: grid topologies produce many equal
// propagation delays, so timestamp ties are common and the tie-break
// branch is data-dependent.
func (e entry) less(o entry) bool {
	_, b := bits.Sub64(e.seq, o.seq, 0)
	_, b = bits.Sub64(uint64(e.at), uint64(o.at), b)
	return b != 0
}
