// Package lru is the repository's one bounded store: a mutex-guarded
// map plus a doubly linked recency list, generic over key and value.
// The experiment drivers' graph cache, the serving tier's result cache
// and terminal-job table, and the router's stale cache are all
// instances of Cache.
//
// One capacity rule holds everywhere: a capacity <= 0 holds nothing.
// Every operation is O(1); none does work proportional to capacity.
package lru

import "sync"

// Cache is a thread-safe least-recently-used map holding at most its
// capacity entries. Get and GetOrPut mark an entry recent and count a
// hit or a miss; Peek does neither, so a store read only through Peek
// evicts in insertion order.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	cap          int
	items        map[K]*entry[K, V]
	root         entry[K, V] // sentinel: root.next is the most recent, root.prev the least
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// Stats is a locked snapshot of a cache's counters and occupancy.
type Stats struct {
	Hits, Misses uint64
	Len, Cap     int
}

// New returns a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value under k, marking it most recent, and counts a
// hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.hits++
		c.moveToFront(e)
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value under k without touching recency or the
// counters.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any value already there, marks it
// most recent, and evicts the least recently used entry past capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	c.insert(k, v)
}

// GetOrPut returns the value under k, or stores and returns mk()'s,
// atomically: concurrent callers for one key all get the value the
// first one stored. It counts a hit or a miss like Get, and a hit
// allocates nothing. mk runs under the cache lock, so it must be cheap
// and must not call back into the cache; a value that is expensive to
// build belongs behind a fill-once slot that mk allocates. With
// capacity <= 0 nothing is stored and every call builds.
func (c *Cache[K, V]) GetOrPut(k K, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.hits++
		c.moveToFront(e)
		return e.val
	}
	c.misses++
	v := mk()
	c.insert(k, v)
	return v
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns the cumulative hit and miss counts with the current
// occupancy and capacity.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Len: len(c.items), Cap: c.cap}
}

// insert links a new entry at the front and evicts the oldest past
// capacity. Caller holds c.mu and has checked k is absent.
func (c *Cache[K, V]) insert(k K, v V) {
	if c.cap <= 0 {
		return
	}
	e := &entry[K, V]{key: k, val: v}
	c.items[k] = e
	c.link(e)
	if len(c.items) > c.cap {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.items, oldest.key)
	}
}

func (c *Cache[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.root.next != e {
		c.unlink(e)
		c.link(e)
	}
}
