package service

import (
	"container/list"
	"sync"
)

// resultCache is a mutex-guarded LRU cache from canonical formula hashes to
// definitive outcomes. Only SAT/UNSAT verdicts belong in the cache — Unknown
// outcomes depend on the budget that produced them.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	out Outcome
}

// newResultCache returns a cache holding up to capacity entries; a
// non-positive capacity disables caching (every lookup misses).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached outcome for key, marking it most recently used.
func (c *resultCache) Get(key string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return Outcome{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put stores out under key, evicting the least recently used entry when the
// cache is full.
func (c *resultCache) Put(key string, out Outcome) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).out = out
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, out: out})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
