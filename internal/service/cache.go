package service

import (
	"container/list"
	"sync"
)

// lruCache is the in-memory result cache: key → payload bytes with
// least-recently-used eviction by entry count. Payloads are immutable
// (marshalled once on computation), so Get returns the shared slice —
// callers only ever write it to a response.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits, misses, evictions uint64
}

type lruEntry struct {
	key     string
	payload []byte
}

// newLRU returns a cache holding at most capEntries payloads.
func newLRU(capEntries int) *lruCache {
	if capEntries <= 0 {
		capEntries = 256
	}
	return &lruCache{cap: capEntries, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached payload and marks it most recently used.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).payload, true
}

// Add inserts (or refreshes) a payload, evicting the least recently used
// entries beyond capacity.
func (c *lruCache) Add(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, payload: payload})
	c.bytes += int64(len(payload))
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		e := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.payload))
		c.evictions++
	}
}

// Stats returns the entry count, resident bytes and the hit/miss/eviction
// counters.
func (c *lruCache) Stats() (entries int, bytes int64, hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.hits, c.misses, c.evictions
}
