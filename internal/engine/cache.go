package engine

import (
	"container/list"
	"context"
	"sync"

	"rads/internal/partition"
	"rads/internal/pattern"
)

// DefaultCacheEntries bounds an ArtifactCache when the caller passes 0.
const DefaultCacheEntries = 512

// ArtifactCache memoizes prepared artifacts per engine, keyed by the
// engine name plus the key its ArtifactScope dictates: the labeled
// structure for per-pattern artifacts (RADS plans), the canonical form
// for per-canonical ones, or the engine's own ArtifactKey when it
// implements ArtifactKeyer (Crystal: one clique index per required
// clique size). A cache is bound to one resident partition — callers
// keep one cache per partition and discard it when the partition
// changes.
//
// Concurrent Gets for the same key single-flight: one caller runs
// Prepare, the rest wait for its result. Failed preparations are not
// cached. At capacity the least-recently-used artifact is evicted —
// artifacts like clique indexes are expensive, so a full cache must
// not dump its hot entries (the old plan catalog's reset-on-full was
// fine for cheap plans; it is not for these).
type ArtifactCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key   string
	ready chan struct{}
	art   Artifact
	err   error
}

// NewArtifactCache builds a cache holding at most max artifacts
// (0 = DefaultCacheEntries).
func NewArtifactCache(max int) *ArtifactCache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &ArtifactCache{max: max, entries: make(map[string]*list.Element), order: list.New()}
}

// Get returns e's prepared artifact for (part, p), preparing and
// memoizing it on first use. Engines without prepared-artifact support
// get (nil, nil) without touching the cache. A caller waiting on
// another caller's in-flight preparation gives up when ctx dies (the
// preparation itself continues for whoever still wants it); a dead ctx
// also refuses to *start* a preparation nobody is waiting for.
func (c *ArtifactCache) Get(ctx context.Context, e Engine, part *partition.Partition, p *pattern.Pattern) (Artifact, error) {
	key, ok := c.keyFor(e, p)
	if !ok {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.mu.Unlock()
		select {
		case <-ent.ready:
			return ent.art, ent.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	// Evict least-recently-used *completed* entries; an in-flight entry
	// must survive so concurrent Gets for its key keep single-flighting
	// (the cache may briefly exceed max when everything is in flight).
	for len(c.entries) >= c.max {
		evicted := false
		for el := c.order.Back(); el != nil; el = el.Prev() {
			ent := el.Value.(*cacheEntry)
			select {
			case <-ent.ready:
				delete(c.entries, ent.key)
				c.order.Remove(el)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			break
		}
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.order.PushFront(ent)
	c.mu.Unlock()

	ent.art, ent.err = e.Prepare(part, p)
	close(ent.ready)
	if ent.err != nil {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == ent {
			delete(c.entries, key)
			c.order.Remove(el)
		}
		c.mu.Unlock()
	}
	return ent.art, ent.err
}

// Len returns the number of cached artifacts (including in-flight
// preparations).
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SizeBytes sums the accounted size of every completed artifact.
func (c *ArtifactCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, el := range c.entries {
		ent := el.Value.(*cacheEntry)
		select {
		case <-ent.ready:
			if ent.art != nil {
				n += ent.art.SizeBytes()
			}
		default:
		}
	}
	return n
}

func (c *ArtifactCache) keyFor(e Engine, p *pattern.Pattern) (string, bool) {
	if e.Capabilities().ArtifactScope == ArtifactNone {
		return "", false
	}
	if k, ok := e.(ArtifactKeyer); ok {
		return e.Name() + "\x00" + k.ArtifactKey(p), true
	}
	switch e.Capabilities().ArtifactScope {
	case ArtifactPerPattern:
		return e.Name() + "\x00" + LabeledKey(p), true
	default: // ArtifactPerCanonical
		return e.Name() + "\x00" + p.CanonicalKey(), true
	}
}
