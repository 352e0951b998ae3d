package service

import (
	"container/list"
	"sync"
)

// resultCache is a small LRU keyed by canonical pattern form. Counts
// are isomorphism-invariant, so one entry answers every relabeling of
// a motif — the "millions of users asking for triangles" hot path.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	idx map[string]*list.Element
}

type cacheEntry struct {
	key string
	res Result
}

// newResultCache returns a cache of at most capacity entries, or nil
// (caching disabled) when capacity < 0. Config.withDefaults maps 0 to
// the default capacity.
func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		return nil
	}
	return &resultCache{cap: capacity, ll: list.New(), idx: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) put(key string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.idx, last.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
