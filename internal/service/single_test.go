package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCollapse checks the core singleflight contract: N concurrent
// callers for one key share exactly one execution. The compute is gated so
// the test releases it only after every duplicate has attached — the
// collapse is asserted deterministically, not probabilistically.
func TestFlightCollapse(t *testing.T) {
	var g flightGroup
	const callers = 8
	gate := make(chan struct{})
	var executions atomic.Uint64

	results := make([][]byte, callers)
	shared := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, sh, err := g.Do("k", func() ([]byte, error) {
				<-gate
				executions.Add(1)
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = p, sh
		}(i)
	}
	// Release only once all 7 duplicates are blocked on the leader.
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiters("k") < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters attached", g.Waiters("k"))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for %d concurrent callers, want 1", n, callers)
	}
	nShared := 0
	for i := range results {
		if string(results[i]) != "result" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if nShared != callers-1 {
		t.Errorf("%d callers marked shared, want %d", nShared, callers-1)
	}
}

// TestFlightSequentialReexecutes checks that the collapse window is only
// the in-flight duration: a call after completion runs the function again
// (the cache, not the singleflight, is the service's memory).
func TestFlightSequentialReexecutes(t *testing.T) {
	var g flightGroup
	runs := 0
	for i := 0; i < 3; i++ {
		p, shared, err := g.Do("k", func() ([]byte, error) {
			runs++
			return []byte{byte(runs)}, nil
		})
		if err != nil || shared || len(p) != 1 || p[0] != byte(i+1) {
			t.Fatalf("call %d: p=%v shared=%v err=%v", i, p, shared, err)
		}
	}
	if runs != 3 {
		t.Errorf("sequential calls ran %d times, want 3", runs)
	}
}

// TestFlightKeysIndependent checks that different keys never share an
// execution.
func TestFlightKeysIndependent(t *testing.T) {
	var g flightGroup
	var wg sync.WaitGroup
	var runs atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, shared, err := g.Do(string(rune('a'+i)), func() ([]byte, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return nil, nil
			})
			if err != nil || shared {
				t.Errorf("key %d: shared=%v err=%v", i, shared, err)
			}
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 4 {
		t.Errorf("%d executions for 4 distinct keys, want 4", n)
	}
}

// TestFlightPanicReleasesKey: a compute that panics still frees its key.
// The leader's panic propagates, a waiter attached to the call gets an
// error instead of blocking forever, and the next call for the key runs
// its compute afresh.
func TestFlightPanicReleasesKey(t *testing.T) {
	var g flightGroup
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do("k", func() ([]byte, error) {
			close(started)
			<-gate
			panic("compute failed")
		})
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	waiter := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) { return nil, nil })
		waiter <- err
	}()
	for g.Waiters("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never attached")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if p := <-leader; p != "compute failed" {
		t.Fatalf("leader recovered %v, want its compute's panic", p)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("the waiter of a panicked compute got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter of a panicked compute is still blocked")
	}
	p, shared, err := g.Do("k", func() ([]byte, error) { return []byte("again"), nil })
	if err != nil || shared || string(p) != "again" {
		t.Fatalf("call after the panic: p=%q shared=%v err=%v", p, shared, err)
	}
}
