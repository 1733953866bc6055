package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed references.
//
// The shared 2-vCPU hosts this benchmark is run on change speed by tens of
// percent within minutes, and at times run their two vCPUs one after the
// other: the same Figure 5 slice took 0.82 s and, eleven minutes later,
// 1.44 s, with steal time near 2%. No run length averages out a drift that
// spans several runs, so the timings of the end-to-end metrics are rescaled
// to a reference host speed instead.
//
// Between its units of work a run takes readings of a fixed reference
// work, written in this file and so unchanged by any change to the code
// under test, and rescales each unit's wall time by the reference's
// nominal time over the mean of the readings from the unit's start to its
// end. A change that makes the program 10% slower still reads 10% slower;
// a host that slows both the program and the reference reads the same.
// There are two references, each for the work it tracks:
//
//   - the compute reference (a flood over a graph with map sets, then a
//     sort) for the simulator workloads and the fleet's boots. Over ten
//     runs while the host drifted it cut the spread of
//     the median slice time from 0.18 to 0.04 on fig5 and from 0.47 to 0.04
//     on dynamics;
//   - the HTTP reference (round trips to a fixed-payload server in a process
//     of its own, scheduled like the fleet) for serve-mix's closed loop,
//     whose throughput follows how the host schedules two processes that
//     wait on each other more than how fast it computes. It cut the spread
//     of the closed loop's throughput from 0.18-0.32 to 0.03-0.08; the
//     compute reference did not (0.20).
//
// serve-mix's open-loop latencies stay in wall time (serve.go). The
// wall-clock timings are reported beside the rescaled ones, with the
// median readings (host.ref_ms, host.http_ref_ms), in each result file's
// extras.

// refClock interleaves readings of a reference with a run's units of work.
// A unit is rescaled by the readings taken from its start to its end: the
// one before it, any taken inside it, and the one after it.
type refClock struct {
	name    string               // the metric the median reading is reported as
	nominal time.Duration        // the reading on the host the benchmark was sized on
	read    func() time.Duration // runs the reference work and returns its wall time
	unit    []time.Duration      // the readings of the current unit
	refs    []float64            // every reading, in ms
	heap    uint64               // the live heap at the latest reading, in bytes
}

// newRefClock warms the reference up and takes the reading that starts the
// first unit.
func newRefClock(name string, nominal time.Duration, read func() time.Duration) *refClock {
	c := &refClock{name: name, nominal: nominal, read: read}
	read()
	c.tick()
	return c
}

// newComputeClock is the compute reference, run on as many goroutines as
// the measured work runs on.
func newComputeClock(par int) *refClock {
	return newRefClock("host.ref_ms", computeNominal, func() time.Duration { return computeTime(par) })
}

// tick takes a reading. It first forces a collection, so garbage the
// measured work left behind is not collected during the reference work,
// and keeps the live heap that leaves.
func (c *refClock) tick() {
	c.heap = liveHeap()
	d := c.read()
	c.unit = append(c.unit, d)
	c.refs = append(c.refs, float64(d)/float64(time.Millisecond))
}

// restart drops the readings so far and takes the one that starts the
// next unit, after untimed work.
func (c *refClock) restart() {
	c.unit = c.unit[:0]
	c.tick()
}

// factor takes the reading that ends the current unit and starts the next,
// and returns what rescales the current unit's timings to the reference
// host speed: a time is multiplied by it, a rate divided.
func (c *refClock) factor() float64 {
	c.tick()
	f := refFactor(c.nominal, c.unit)
	c.unit = append(c.unit[:0], c.unit[len(c.unit)-1])
	return f
}

// refFactor rescales work timed across the given readings of a reference
// whose nominal time is nominal: nominal over their mean.
func refFactor(nominal time.Duration, readings []time.Duration) float64 {
	var sum time.Duration
	for _, d := range readings {
		sum += d
	}
	return float64(len(readings)) * float64(nominal) / float64(sum)
}

// scale takes the reading that ends the current unit, whose wall time was
// d, and returns d at the reference host speed.
func (c *refClock) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.factor())
}

// scaleAll returns vs, timings of one unit, multiplied by its factor f.
func scaleAll(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

// report records the median reading.
func (c *refClock) report(rep *report) {
	rep.addMedian(c.name, "ms", c.refs)
}

// computeNominal is the compute reference's wall time on the host the
// benchmark was sized on, so a rescaled time reads as that host's time.
const computeNominal = 40 * time.Millisecond

// computeTime runs the compute reference work on par goroutines at once and
// returns its wall time.
func computeTime(par int) time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink.Add(refWork())
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// refSink keeps the compiler from discarding the reference work.
var refSink atomic.Uint64

// refWork is the reference work: a flood driven by an event queue over a
// fixed random graph whose nodes keep seen-sets in Go maps, cleared every
// round as a pooled session is reset, then a sort of a fixed random slice.
// After its first round it allocates nothing, so the garbage collector's
// state, which the program under test sets, does not change its time.
func refWork() uint64 {
	const (
		nodes, degree = 200, 12
		events, round = 60_000, 2000
		sorted        = 150_000
		queueCap      = 512
	)
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	type node struct {
		nbrs []int32
		seen map[int32]bool
		sum  uint64
	}
	g := make([]node, nodes)
	for i := range g {
		g[i].seen = make(map[int32]bool)
		for k := 0; k < degree; k++ {
			g[i].nbrs = append(g[i].nbrs, int32(next()%nodes))
		}
	}
	q := make(refQueue, 0, queueCap)
	q.push(0)
	for i := 0; i < events; i++ {
		if len(q) == 0 {
			q.push(uint64(i))
		}
		e := q.pop()
		from := int32(e % nodes)
		for _, v := range g[from].nbrs {
			n := &g[v]
			if n.seen[from] {
				continue
			}
			n.seen[from] = true
			n.sum += e
			if len(q) < queueCap {
				q.push((e/nodes+1)*nodes + uint64(v))
			}
		}
		if i%round == 0 {
			for k := range g {
				clear(g[k].seen)
			}
		}
	}
	vals := make([]uint32, sorted)
	for i := range vals {
		vals[i] = uint32(next())
	}
	slices.Sort(vals)
	return g[0].sum + uint64(vals[sorted/2]) + uint64(len(q))
}

// refQueue is a binary min-heap of event times.
type refQueue []uint64

func (q *refQueue) push(v uint64) {
	h := append(*q, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *refQueue) pop() uint64 {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// The HTTP reference: httpRefRequests round trips, on as many keep-alive
// connections as the closed loop uses, to a server that reads a small body
// and answers with a fixed payload about the size of a mid-sized hit.
const (
	httpRefRequests = 1000
	httpRefNominal  = 50 * time.Millisecond
	httpRefPayload  = 8 << 10
)

// refHandler is the reference server's handler: every path answers 200 with
// the same payload, so it also passes the fleet's health check.
func refHandler() http.Handler {
	payload := bytes.Repeat([]byte("0123456789abcdef"), httpRefPayload/16)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(payload)
	})
}

// refServerMain serves the reference at addr until the process is stopped
// (`bench refserver ADDR`, started by serve-mix).
func refServerMain(addr string) int {
	err := http.ListenAndServe(addr, refHandler())
	fmt.Println("bench refserver:", err)
	return 1
}

// refBody is what every request to the reference server sends: about the
// size of a spec.
var refBody = bytes.Repeat([]byte("s"), 256)

// refRoundTrip sends one request to the reference server at base and
// reads the answer into buf.
func refRoundTrip(c *http.Client, base string, buf *bytes.Buffer) error {
	resp, err := c.Post(base+"/v1/sweep", "application/json", bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || buf.Len() != httpRefPayload {
		return fmt.Errorf("reference server answered %d with %d bytes", resp.StatusCode, buf.Len())
	}
	return nil
}

// newHTTPClock is the HTTP reference against the server at base. The first
// failed round trip is kept in *failure; the readings that follow it are
// not to be trusted.
func newHTTPClock(c *http.Client, base string, conns int, failure *error) *refClock {
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if *failure == nil {
			*failure = err
		}
	}
	read := func() time.Duration {
		var next atomic.Int64
		var wg sync.WaitGroup
		t := time.Now()
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for next.Add(1) <= httpRefRequests {
					if err := refRoundTrip(c, base, &buf); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(t)
	}
	return newRefClock("host.http_ref_ms", httpRefNominal, read)
}
