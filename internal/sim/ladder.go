package sim

import "slices"

// This file implements the simulator's event queue: a two-tier ladder
// queue (a calendar-queue descendant) replacing the PR-3 binary heap,
// which profiling showed spending ~60% of sweep CPU in O(log n) sift
// compares (see refheap.go for the heap, kept as the differential-test
// reference).
//
// The structure exploits what a discrete-event simulation queue actually
// looks like: timestamps cluster inside a bounded horizon ahead of the
// clock (propagation delays, slot times, frame durations), pops strictly
// advance, and the only ordering that matters is the (at, seq) total
// order at pop time — so events do not need to be kept globally sorted,
// only *binned* until their bin is about to drain.
//
// Three tiers, nearest first:
//
//   - bottom: a slice sorted ascending by (at, seq); the head index pops
//     in O(1). Every queued event with at < bBound lives here. Inserts
//     use binary search plus a memmove of the shorter side — and the
//     overwhelmingly common DES case, an event scheduled to fire next
//     (tiny delay), lands in the slack left of the head for O(1). A
//     bottom that outgrows ladderBottomMax spawns its tail into a new
//     rung (spawnFromBottom), so mixed-horizon schedules cannot
//     degenerate it into a long sorted list.
//   - rungs: a stack of bucket arrays. Each rung splits a time span into
//     power-of-two-width buckets (width 1<<shift ns, so the bucket index
//     is a shift, not a division); pushes append to a bucket unsorted,
//     O(1) with no comparisons at all. When the bottom drains, the next
//     non-empty bucket of the deepest rung is sorted wholesale into the
//     bottom. An oversized bucket (> ladderSpawnAbove) is not sorted but
//     split across a finer-grained child rung first — the "ladder" part,
//     which bounds the sort size without a global resize.
//   - top: an unsorted overflow for events at or beyond the deepest
//     rung's span (at >= topStart). When every rung is exhausted the top
//     is cut into a fresh rung 0 sized to its population ("epoch"
//     rebuild), or, below ladderDirectBelow events, sorted straight into
//     the bottom.
//
// Execution order is provably unaffected: the tiers strictly partition
// the time axis ([0,bBound) | rung buckets in span order | [topStart,∞)),
// with no timestamp split across two tiers, a push lands in the tier
// covering its timestamp, and a bucket is sorted by (at, seq) before
// anything in it is popped — so peek always returns the global (at, seq)
// minimum, exactly as the heap did. That holds for any key, not only one
// carrying the newest seq, which is what lets a cursor entry re-key itself
// under an older seq (replaceFront). The golden-result oracle, the
// randomized differential tests against the reference heap
// (differential_test.go) and FuzzLadderRefHeap (ladder_test.go) pin this
// bit-for-bit.
//
// All storage — bottom, top, rung stack, every bucket — is retained
// across reset() and reused, so a warm queue schedules and pops with
// zero allocations (TestAfterStepAllocs, TestSessionReuseSteadyStateAllocs).
const (
	// ladderMaxBuckets caps the buckets per rung; an epoch rebuild sizes
	// the rung to ~one event per bucket up to this cap.
	ladderMaxBuckets = 512
	// ladderSpawnAbove is the largest bucket transferred (sorted) into
	// the bottom directly; larger buckets spawn a child rung instead,
	// unless the width is already 1 ns or the rung stack is full.
	ladderSpawnAbove = 48
	// ladderMaxRungs bounds the rung stack (tie storms cannot be split
	// below 1 ns anyway; past this depth buckets are sorted regardless).
	ladderMaxRungs = 8
	// ladderDirectBelow short-circuits an epoch rebuild: this few
	// remaining events are sorted straight into the bottom.
	ladderDirectBelow = 32
	// ladderBottomMax converts an oversized bottom into a new rung: when
	// sparse far-future events force wide buckets, dense near-future
	// activity would otherwise degenerate into long sorted-list inserts.
	ladderBottomMax = 32
	// ladderBottomKeep is how many imminent events stay sorted in the
	// bottom when the rest spawn a rung.
	ladderBottomKeep = 8
)

// rung is one ladder level: a span of time cut into equal power-of-two
// width buckets, except that the last bucket absorbs the remainder up to
// end (spans are exact, not rounded to a width multiple, so rung spans
// tile the time axis with no overlap). bkts[cur:nb] are the undrained
// buckets; count is the number of entries across them.
type rung struct {
	start Time // start of bucket 0
	end   Time // exclusive end of the span (last bucket may be wider)
	shift uint // bucket width is 1 << shift nanoseconds
	cur   int  // next bucket to drain
	nb    int  // buckets in use this epoch
	count int  // entries across bkts[cur:nb]
	bkts  [][]entry
}

// bucket returns the index covering t (the clamp widens the last bucket).
func (r *rung) bucket(t Time) int {
	i := int((t - r.start) >> r.shift)
	if i >= r.nb {
		i = r.nb - 1
	}
	return i
}

// sizeRung picks the bucket geometry for n entries over [start, end):
// roughly one event per bucket, capped at ladderMaxBuckets, with a
// power-of-two width so pushes index by shift.
func sizeRung(start, end Time, n int) (shift uint, nb int) {
	span := end - start
	target := Time(ladderMaxBuckets)
	if Time(n) < target {
		target = Time(n)
	}
	for (span-1)>>shift >= target {
		shift++
	}
	return shift, int((span-1)>>shift) + 1
}

// ladder is the event queue. The zero value is ready to use.
type ladder struct {
	bottom []entry // bottom[bHead:] sorted ascending by (at, seq)
	bHead  int
	bBound Time // exclusive: every queued event with at < bBound is in bottom

	rungs  []rung // rung stack; rungs[:nRungs] active, deepest (nearest) last
	nRungs int

	top      []entry // unsorted far-future tier: every event with at >= topStart
	topStart Time    // inclusive lower bound of top (== bBound when nRungs == 0)
	topMin   Time    // minimum at in top (valid when len(top) > 0)
}

// push inserts e into the tier covering e.at.
func (q *ladder) push(e entry) {
	if e.at < q.bBound {
		q.insertBottom(e)
		return
	}
	if e.at >= q.topStart {
		if len(q.top) == 0 || e.at < q.topMin {
			q.topMin = e.at
		}
		q.top = append(q.top, e)
		return
	}
	// Between the tiers: the rung spans partition [bBound, topStart) in
	// time order, deepest (nearest) rung last, so scan from the deepest.
	for k := q.nRungs - 1; k >= 0; k-- {
		r := &q.rungs[k]
		if e.at < r.end {
			i := r.bucket(e.at)
			r.bkts[i] = append(r.bkts[i], e)
			r.count++
			return
		}
	}
	panic("sim: ladder queue tier invariant violated")
}

// insertBottom places e into the sorted bottom tier, shifting whichever
// side of the insertion point is cheaper. Inserting a new front-runner
// (the common "fire next" DES case) reuses the slack behind bHead in
// O(1).
func (q *ladder) insertBottom(e entry) {
	if len(q.bottom)-q.bHead >= ladderBottomMax && q.nRungs < ladderMaxRungs && q.spawnFromBottom() {
		q.push(e) // re-dispatch: the tier bounds just moved
		return
	}
	lo, hi := q.bHead, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.less(q.bottom[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	switch {
	case q.bHead > 0 && lo == q.bHead:
		q.bHead--
		q.bottom[q.bHead] = e
	case q.bHead > 0 && lo-q.bHead < len(q.bottom)-lo:
		copy(q.bottom[q.bHead-1:], q.bottom[q.bHead:lo])
		q.bHead--
		q.bottom[lo-1] = e
	default:
		q.bottom = append(q.bottom, entry{})
		copy(q.bottom[lo+1:], q.bottom[lo:])
		q.bottom[lo] = e
	}
}

// peek returns the (at, seq)-minimum entry without removing it, filling
// the bottom from the deeper tiers if needed.
func (q *ladder) peek() (entry, bool) {
	if q.bHead < len(q.bottom) {
		return q.bottom[q.bHead], true
	}
	if !q.refill() {
		return entry{}, false
	}
	return q.bottom[q.bHead], true
}

// popFront removes the entry peek returned.
func (q *ladder) popFront() {
	q.bHead++
	if q.bHead == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.bHead = 0
	}
}

// replaceFront replaces the front entry (the one peek returned) with e
// and reports whether e had to be re-queued. A cursor re-keys itself this
// way before each of its calls but the last. While e still precedes the
// runner-up and falls below bBound, it overwrites the front in place. So
// it does when the front is the only entry below the top and e precedes
// the whole top: the bottom bound then rises over e. Otherwise the front
// is popped and e pushed into the tier covering it.
func (q *ladder) replaceFront(e entry) bool {
	last := q.bHead+1 == len(q.bottom)
	switch {
	case e.at < q.bBound && (last || e.less(q.bottom[q.bHead+1])):
	case last && q.nRungs == 0 && (len(q.top) == 0 || e.at < q.topMin):
		q.bBound = e.at + 1
		q.topStart = q.bBound
	default:
		q.popFront()
		q.push(e)
		return true
	}
	q.bottom[q.bHead] = e
	return false
}

// refill loads the next batch of entries into the empty bottom, in
// (at, seq) order, and reports whether any remain.
func (q *ladder) refill() bool {
	q.bottom = q.bottom[:0]
	q.bHead = 0
	for {
		for q.nRungs > 0 {
			r := &q.rungs[q.nRungs-1]
			if r.count == 0 {
				// Rung exhausted: the parent's span resumes at its end.
				q.bBound = r.end
				q.nRungs--
				continue
			}
			for len(r.bkts[r.cur]) == 0 {
				r.cur++
			}
			if b := r.bkts[r.cur]; len(b) > ladderSpawnAbove && r.shift > 0 && q.nRungs < ladderMaxRungs {
				q.spawn(r)
				continue
			}
			// Transfer: copy the bucket into the bottom and sort — the
			// only comparisons the ladder makes. Copying (rather than
			// swapping storage) keeps every slice's capacity in place, so
			// each bucket and the bottom converge to their own high-water
			// marks and a warm queue stops allocating.
			b := r.bkts[r.cur]
			q.bottom = append(q.bottom[:0], b...)
			r.bkts[r.cur] = b[:0]
			sortEntries(q.bottom)
			r.count -= len(q.bottom)
			be := r.start + Time(r.cur+1)<<r.shift
			if be > r.end {
				be = r.end // the last bucket absorbs the span remainder
			}
			q.bBound = be
			r.cur++
			return true
		}
		n := len(q.top)
		if n == 0 {
			return false
		}
		if n <= ladderDirectBelow {
			// Too few events to be worth an epoch: sort them directly.
			q.bottom = append(q.bottom[:0], q.top...)
			q.top = q.top[:0]
			sortEntries(q.bottom)
			q.bBound = q.bottom[len(q.bottom)-1].at + 1
			q.topStart = q.bBound
			return true
		}
		q.rebuild()
	}
}

// spawn splits the oversized current bucket of r across a finer child
// rung covering exactly that bucket's span. r must not be touched after
// pushRung (the rung stack may reallocate).
func (q *ladder) spawn(r *rung) {
	b := r.bkts[r.cur]
	bs := r.start + Time(r.cur)<<r.shift
	be := bs + Time(1)<<r.shift
	if be > r.end {
		be = r.end
	}
	r.bkts[r.cur] = b[:0] // storage stays with the parent bucket
	r.count -= len(b)
	r.cur++
	shift, nb := sizeRung(bs, be, len(b))
	c := q.pushRung()
	c.start = bs
	c.end = be
	c.shift = shift
	c.nb = nb
	c.cur = 0
	c.count = len(b)
	for len(c.bkts) < nb {
		c.bkts = append(c.bkts, nil)
	}
	for _, e := range b {
		c.bkts[c.bucket(e.at)] = append(c.bkts[c.bucket(e.at)], e)
	}
}

// spawnFromBottom converts the far tail of an oversized bottom into a
// new deepest rung covering [tail[0].at, bBound), and reports whether it
// did. This is the ladder's answer to a mixed-horizon schedule: when
// sparse far-future events (e.g. second-scale beacon jitter) force wide
// epoch buckets, dense microsecond-scale traffic all lands below bBound
// and would degenerate into O(n) sorted-list inserts; re-binning the tail
// restores O(1) pushes over that span.
//
// The split never separates a timestamp tie: the kept head ends strictly
// below tail[0].at, which becomes the new bBound, so the tiers stay a
// strict partition by at. A push tied with the boundary then lands in
// the rung beside its tie partners, whatever its seq. (Leaving a tied
// entry in the bottom is only safe while every push carries the newest
// seq; a re-keyed cursor carries an older one.) A tail that is one tie
// to the end is left in place.
func (q *ladder) spawnFromBottom() bool {
	split := q.bHead + ladderBottomKeep
	for split < len(q.bottom) && q.bottom[split].at == q.bottom[split-1].at {
		split++
	}
	if split == len(q.bottom) {
		return false
	}
	tail := q.bottom[split:]
	start := tail[0].at
	shift, nb := sizeRung(start, q.bBound, len(tail))
	r := q.pushRung()
	r.start = start
	r.end = q.bBound
	r.shift = shift
	r.nb = nb
	r.cur = 0
	r.count = len(tail)
	for len(r.bkts) < nb {
		r.bkts = append(r.bkts, nil)
	}
	for _, e := range tail {
		r.bkts[r.bucket(e.at)] = append(r.bkts[r.bucket(e.at)], e)
	}
	q.bottom = q.bottom[:split]
	q.bBound = start
	return true
}

// rebuild starts a new epoch: the whole top tier becomes rung 0, sized
// by sizeRung to roughly one event per bucket.
func (q *ladder) rebuild() {
	minAt, maxAt := q.topMin, q.top[0].at
	for _, e := range q.top {
		if e.at > maxAt {
			maxAt = e.at
		}
	}
	shift, nb := sizeRung(minAt, maxAt+1, len(q.top))
	r := q.pushRung()
	r.start = minAt
	r.end = minAt + Time(nb)<<shift
	r.shift = shift
	r.nb = nb
	r.cur = 0
	r.count = len(q.top)
	for len(r.bkts) < nb {
		r.bkts = append(r.bkts, nil)
	}
	for _, e := range q.top {
		r.bkts[r.bucket(e.at)] = append(r.bkts[r.bucket(e.at)], e)
	}
	q.top = q.top[:0]
	q.topStart = r.end
	q.bBound = minAt
}

// pushRung takes a (recycled) rung off the pool and activates it. All
// previously drained buckets are empty by invariant, so the caller only
// initialises the scalar fields.
func (q *ladder) pushRung() *rung {
	if q.nRungs == len(q.rungs) {
		q.rungs = append(q.rungs, rung{})
	}
	q.nRungs++
	return &q.rungs[q.nRungs-1]
}

// reset empties the queue, keeping every tier's storage for reuse.
func (q *ladder) reset() {
	q.bottom = q.bottom[:0]
	q.bHead = 0
	q.bBound = 0
	q.top = q.top[:0]
	q.topStart = 0
	q.topMin = 0
	for i := range q.rungs {
		r := &q.rungs[i]
		for j := range r.bkts {
			r.bkts[j] = r.bkts[j][:0]
		}
		*r = rung{bkts: r.bkts}
	}
	q.nRungs = 0
}

// sortEntries sorts es ascending by (at, seq): insertion sort at bucket
// sizes (transfer buckets are <= ladderSpawnAbove except at the rung
// cap), pdqsort above.
func sortEntries(es []entry) {
	if len(es) <= ladderSpawnAbove {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i
			for j > 0 && e.less(es[j-1]) {
				es[j] = es[j-1]
				j--
			}
			es[j] = e
		}
		return
	}
	// Keys are unique ((at, seq) with a global seq), so an unstable sort
	// is deterministic and "equal" never occurs.
	slices.SortFunc(es, func(a, b entry) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
}
