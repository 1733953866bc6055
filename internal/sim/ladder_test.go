package sim

import "testing"

// TestLadderSpawnKeepsTiesTogether forces spawnFromBottom to split a
// bottom whose kept head would end inside a timestamp tie, then pushes
// entries tied with the new bottom bound under unused seqs older than the
// tied bottom entries — the keys a re-queued cursor carries. The ladder
// must still pop exactly what the reference heap pops: the split has to
// keep every tie on one side of the tier boundary.
func TestLadderSpawnKeepsTiesTogether(t *testing.T) {
	for _, tc := range []struct {
		name string
		ats  []Time // bottom contents after the direct sort, ascending
	}{
		// The kept head (8 entries) ends inside the tie at 5.
		{"tie-across-split", append(append(repeatAt(1, 7), repeatAt(5, 20)...), repeatAt(9, 5)...)},
		// The tie runs to the end of the bottom: no spawn is possible.
		{"tail-one-tie", append(repeatAt(1, 7), repeatAt(5, 25)...)},
		// A tie straddles the split and runs on past it into later times.
		{"long-tie", append(append(repeatAt(2, 3), repeatAt(3, 28)...), 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q ladder
			var h refHeap
			push := func(e entry) {
				q.push(e)
				h.push(e)
			}
			// Seqs are multiples of 10, leaving 1..9 above each unused.
			for k, at := range tc.ats {
				push(entry{at: at, seq: uint64(10 * (k + 1)), id: uint32(k)})
			}
			// A top this small is sorted straight into the bottom on the
			// first peek, and a bottom this full spawns on the next insert.
			if len(tc.ats) != ladderBottomMax || len(tc.ats) > ladderDirectBelow {
				t.Fatalf("setup: %d entries, want %d in one direct sort", len(tc.ats), ladderBottomMax)
			}
			if _, ok := q.peek(); !ok || len(q.bottom) != len(tc.ats) {
				t.Fatalf("setup: bottom holds %d entries, want %d", len(q.bottom), len(tc.ats))
			}
			// Any insert below bBound now finds a full bottom and spawns.
			push(entry{at: 0, seq: 1000, id: 100})
			// Old, unused seqs tied with every timestamp present.
			id := uint32(200)
			for _, at := range []Time{1, 2, 3, 4, 5, 9} {
				for _, seq := range []uint64{0, 70, 150, 300} {
					push(entry{at: at, seq: seq + uint64(at), id: id})
					id++
				}
			}
			for n := 0; len(h) > 0; n++ {
				want := h.pop()
				got, ok := q.peek()
				if !ok || got != want {
					t.Fatalf("pop %d: ladder %+v ok=%v, reference %+v", n, got, ok, want)
				}
				q.popFront()
			}
			if _, ok := q.peek(); ok {
				t.Fatal("ladder not empty after the reference drained")
			}
		})
	}
}

func repeatAt(at Time, n int) []Time {
	ats := make([]Time, n)
	for i := range ats {
		ats[i] = at
	}
	return ats
}

// FuzzLadderRefHeap decodes a byte script into ladder operations — pushes
// under a fresh seq or under an older unused one (the key a re-queued
// cursor carries), bursts of near-simultaneous pushes that fill the bottom
// and force spawns, pops, replaceFront re-keys and resets — applies each to
// the ladder and to the reference heap, and requires identical pops. As
// in the simulator, no key is pushed below the last popped timestamp, and
// every (at, seq) is unique.
func FuzzLadderRefHeap(f *testing.F) {
	f.Add([]byte{0, 5, 1, 70, 2, 130, 4, 4, 3, 9, 6, 66, 6, 2, 5})
	f.Add([]byte{2, 47, 2, 200, 0, 1, 3, 0, 3, 1, 6, 0, 6, 65, 4, 7, 2, 31, 5})
	f.Add([]byte{1, 255, 2, 12, 7, 2, 90, 6, 129, 6, 193, 3, 3, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q ladder
		var h refHeap
		var now Time
		var seq uint64      // next fresh seq
		var unused []uint64 // seqs skipped over, never pushed
		pos := 0
		next := func() byte {
			if pos == len(script) {
				return 0
			}
			pos++
			return script[pos-1]
		}
		// offset decodes one byte into a delay: a tie, a nanosecond fan
		// spread, a microsecond gap or a millisecond horizon.
		offset := func(b byte) Time {
			v := Time(b & 63)
			switch b >> 6 {
			case 0:
				return 0
			case 1:
				return v
			case 2:
				return v * 1000
			default:
				return v << 20
			}
		}
		// key returns an unused seq: an old one when asked and available,
		// else a fresh one, sometimes leaving a gap for later old keys.
		key := func(old bool) uint64 {
			if old && len(unused) > 0 {
				k := int(next()) % len(unused)
				s := unused[k]
				unused[k] = unused[len(unused)-1]
				unused = unused[:len(unused)-1]
				return s
			}
			s := seq
			seq++
			for gap := next() % 4; gap > 0; gap-- {
				unused = append(unused, seq)
				seq++
			}
			return s
		}
		push := func(e entry) {
			q.push(e)
			h.push(e)
		}
		pop := func() {
			want := h.pop()
			got, ok := q.peek()
			if !ok || got != want {
				t.Fatalf("pop: ladder %+v ok=%v, reference %+v", got, ok, want)
			}
			q.popFront()
			now = want.at
		}
		for pos < len(script) {
			switch op := next(); op % 8 {
			case 0, 1:
				push(entry{at: now + offset(next()), seq: key(false)})
			case 2:
				// A burst of pushes around one instant, ties included.
				at := now + offset(next())
				r := uint32(next())*2654435761 + 1
				for n := int(next()%48) + 1; n > 0; n-- {
					r ^= r << 13
					r ^= r >> 17
					r ^= r << 5
					push(entry{at: at + Time(r%4), seq: key(r&8 != 0)})
				}
			case 3:
				push(entry{at: now + offset(next()), seq: key(true)})
			case 4, 5:
				for n := op%4 + 1; n > 0 && len(h) > 0; n-- {
					pop()
				}
			case 6:
				// A cursor's re-key: the front makes way for a later key.
				if len(h) == 0 {
					continue
				}
				front := h.pop()
				got, ok := q.peek()
				if !ok || got != front {
					t.Fatalf("front: ladder %+v ok=%v, reference %+v", got, ok, front)
				}
				now = front.at
				b := next()
				e := entry{at: now + offset(b), seq: key(b&1 != 0)}
				q.replaceFront(e)
				h.push(e)
			case 7:
				q.reset()
				h = h[:0]
				now, seq, unused = 0, 0, unused[:0]
			}
		}
		for len(h) > 0 {
			pop()
		}
		if e, ok := q.peek(); ok {
			t.Fatalf("ladder holds %+v after the reference drained", e)
		}
	})
}
