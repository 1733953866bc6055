package service

import "sync"

// flightGroup is a singleflight: concurrent callers asking for the same
// key share one execution of the compute function, so N identical
// submissions racing a cold cache cost exactly one sweep. Hand-rolled (no
// external deps): a leader per key runs fn; late arrivals count themselves
// as waiters and block on the call's done channel.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	payload []byte
	err     error
	waiters int
}

// Do executes fn for key, collapsing concurrent duplicates onto the first
// caller's execution. shared reports whether this caller attached to an
// execution someone else started (the coalescing the service counts).
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (payload []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.payload, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.payload, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.payload, false, c.err
}

// Waiters reports how many callers are currently blocked on key's
// in-flight execution (0 when none is in flight). Test instrumentation:
// the collapse tests use it to release a gated compute only after every
// concurrent submission has attached.
func (g *flightGroup) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}
