package dash

import "repro/internal/jade"

// cacheSlot is one object's line set in a processor's cache: the
// cached version and size, and its links in the recency list.
type cacheSlot struct {
	version    jade.Version
	present    bool
	bytes      int
	prev, next int32 // toward the most and the least recent; -1 ends
}

// cache models a processor's cache at shared-object granularity with
// byte-capacity LRU replacement. Coherence is implicit in versions:
// a cached copy of an old version never hits.
//
// It is a dense intrusive LRU: one slot per object ID, linked through
// int32 indices, so hits, inserts and evictions allocate nothing.
type cache struct {
	capacity int
	used     int
	slots    []cacheSlot // indexed by object ID
	// head is the most and tail the least recently used object, or -1
	// when the cache is empty.
	head, tail int32
	// ready is false until reset empties the cache for the current run.
	ready bool
}

// reset empties the cache and sets its capacity to capacity bytes,
// with slots for objects objects (later objects grow the table on
// first insert), keeping the slot table's storage.
func (c *cache) reset(capacity, objects int) {
	c.capacity, c.used, c.head, c.tail, c.ready = capacity, 0, -1, -1, true
	c.slots = append(c.slots[:0], make([]cacheSlot, objects)...)
}

// has reports whether the cache holds object o at exactly version v.
func (c *cache) has(o *jade.Object, v jade.Version) bool {
	id := int(o.ID)
	return id < len(c.slots) && c.slots[id].present && c.slots[id].version == v
}

// insert records that the processor now holds version v of o,
// evicting least-recently-used objects as needed. Objects larger than
// the whole cache are not retained.
func (c *cache) insert(o *jade.Object, v jade.Version) {
	id := int32(o.ID)
	if int(id) < len(c.slots) && c.slots[id].present {
		c.slots[id].version = v
		c.toFront(id)
		return
	}
	if o.Size > c.capacity {
		return
	}
	for c.used+o.Size > c.capacity && c.tail >= 0 {
		ev := c.tail
		c.unlink(ev)
		c.slots[ev].present = false
		c.used -= c.slots[ev].bytes
	}
	if int(id) >= len(c.slots) {
		c.slots = append(c.slots, make([]cacheSlot, int(id)+1-len(c.slots))...)
	}
	c.slots[id] = cacheSlot{version: v, present: true, bytes: o.Size}
	c.pushFront(id)
	c.used += o.Size
}

// touch refreshes LRU recency for o if present.
func (c *cache) touch(o *jade.Object) {
	if id := int32(o.ID); int(id) < len(c.slots) && c.slots[id].present {
		c.toFront(id)
	}
}

func (c *cache) toFront(id int32) {
	if c.head != id {
		c.unlink(id)
		c.pushFront(id)
	}
}

func (c *cache) pushFront(id int32) {
	s := &c.slots[id]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = id
	} else {
		c.tail = id
	}
	c.head = id
}

func (c *cache) unlink(id int32) {
	s := &c.slots[id]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}
