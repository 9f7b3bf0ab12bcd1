package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	api "repro/api/v1"
)

// DefaultCacheSize bounds the result cache when Options.CacheSize is
// unset. Schedules are small (a few KB of placements and stats), so a
// few thousand entries cost single-digit megabytes.
const DefaultCacheSize = 4096

// Cache is a content-addressed memoization table for compile results:
// an LRU-bounded map from Key hashes to immutable values, with
// single-flight deduplication of concurrent computations for the same
// key. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*flight

	hits      uint64 // Lookup served from the table
	misses    uint64 // computations started
	shared    uint64 // callers that joined an in-flight computation
	evictions uint64 // entries dropped by the LRU bound
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns a cache bounded to max entries (<= 0 selects
// DefaultCacheSize).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		max:      max,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the value cached under key, or computes it. Concurrent
// calls for the same key are deduplicated: one caller (the leader)
// runs compute, the rest wait for its result. hit reports whether the
// value came from the table or a shared flight rather than this
// caller's own compute.
//
// Errors are never cached — the next Do for the key recomputes. If the
// leader fails with a context error (its client hung up), a waiting
// follower whose own ctx is still live takes over as the new leader,
// so one canceled request cannot poison identical concurrent ones.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.byKey[key]; ok {
			c.ll.MoveToFront(e)
			c.hits++
			c.mu.Unlock()
			return e.Value.(*cacheEntry).val, true, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.shared++
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.val, true, nil
				}
				if ctx.Err() != nil {
					return nil, false, ctx.Err()
				}
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					continue // leader was canceled, not the work itself: take over
				}
				return nil, false, fl.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		c.misses++
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		fl.val, fl.err = compute()

		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.add(key, fl.val)
		}
		c.mu.Unlock()
		close(fl.done)
		return fl.val, false, fl.err
	}
}

// lookup returns the value cached under key without computing,
// counting a hit, and a miss when countMiss is set: a caller that hands
// a miss on to Do leaves the count to Do, so each key counts once — as
// a hit, a miss or a shared join.
func (c *Cache) lookup(key string, countMiss bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return e.Value.(*cacheEntry).val, true
	}
	if countMiss {
		c.misses++
	}
	return nil, false
}

// Add stores val under key, evicting from the cold end if full.
func (c *Cache) Add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// add requires c.mu.
func (c *Cache) add(key string, val any) {
	if e, ok := c.byKey[key]; ok {
		e.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Metrics snapshots the counters in the wire form served by the
// metrics endpoint.
func (c *Cache) Metrics() api.CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheMetrics{
		Hits:       c.hits,
		Misses:     c.misses,
		Shared:     c.shared,
		Evictions:  c.evictions,
		Entries:    c.ll.Len(),
		Inflight:   len(c.inflight),
		MaxEntries: c.max,
	}
}
