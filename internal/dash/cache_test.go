package dash

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/jade"
)

func obj(id int, size int) *jade.Object {
	return &jade.Object{ID: jade.ObjectID(id), Name: "o", Size: size}
}

func newCache(capacity, objects int) *cache {
	c := &cache{}
	c.reset(capacity, objects)
	return c
}

func TestCacheHitRequiresExactVersion(t *testing.T) {
	c := newCache(1024, 0)
	o := obj(1, 100)
	c.insert(o, 3)
	if !c.has(o, 3) {
		t.Fatal("miss on inserted version")
	}
	if c.has(o, 2) || c.has(o, 4) {
		t.Fatal("stale or future version hit")
	}
}

func TestCacheEvictsLRUByBytes(t *testing.T) {
	c := newCache(250, 0)
	a, b, d := obj(1, 100), obj(2, 100), obj(3, 100)
	c.insert(a, 0)
	c.insert(b, 0)
	c.insert(d, 0) // exceeds 250: evicts a (LRU)
	if c.has(a, 0) {
		t.Fatal("LRU object not evicted")
	}
	if !c.has(b, 0) || !c.has(d, 0) {
		t.Fatal("recent objects evicted")
	}
}

func TestCacheTouchRefreshesRecency(t *testing.T) {
	c := newCache(250, 0)
	a, b, d := obj(1, 100), obj(2, 100), obj(3, 100)
	c.insert(a, 0)
	c.insert(b, 0)
	c.touch(a) // now b is LRU
	c.insert(d, 0)
	if c.has(b, 0) {
		t.Fatal("touched object should have displaced the other")
	}
	if !c.has(a, 0) {
		t.Fatal("touched object evicted")
	}
}

func TestCacheOversizedObjectNotRetained(t *testing.T) {
	c := newCache(100, 0)
	big := obj(1, 1000)
	c.insert(big, 0)
	if c.has(big, 0) {
		t.Fatal("object larger than the cache retained")
	}
}

func TestCacheVersionUpdateInPlace(t *testing.T) {
	c := newCache(1000, 0)
	a := obj(1, 100)
	c.insert(a, 0)
	c.insert(a, 1)
	if c.has(a, 0) {
		t.Fatal("old version still hits")
	}
	if !c.has(a, 1) {
		t.Fatal("new version misses")
	}
	if c.used != 100 {
		t.Fatalf("used = %d, want 100 (no double count)", c.used)
	}
}

// refCache is the list+map cache the dense LRU replaced, kept as the
// reference model its decisions must match.
type refCache struct {
	capacity int
	used     int
	lru      *list.List // front = most recent; values are *refEntry
	entries  map[jade.ObjectID]*refEntry
}

type refEntry struct {
	obj     jade.ObjectID
	version jade.Version
	bytes   int
	elem    *list.Element
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, lru: list.New(), entries: make(map[jade.ObjectID]*refEntry)}
}

func (c *refCache) has(o *jade.Object, v jade.Version) bool {
	e, ok := c.entries[o.ID]
	return ok && e.version == v
}

func (c *refCache) insert(o *jade.Object, v jade.Version) {
	if e, ok := c.entries[o.ID]; ok {
		e.version = v
		c.lru.MoveToFront(e.elem)
		return
	}
	if o.Size > c.capacity {
		return
	}
	for c.used+o.Size > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*refEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.obj)
		c.used -= ev.bytes
	}
	e := &refEntry{obj: o.ID, version: v, bytes: o.Size}
	e.elem = c.lru.PushFront(e)
	c.entries[o.ID] = e
	c.used += o.Size
}

func (c *refCache) touch(o *jade.Object) {
	if e, ok := c.entries[o.ID]; ok {
		c.lru.MoveToFront(e.elem)
	}
}

// order lists the cached objects from most to least recently used.
func (c *refCache) order() []jade.ObjectID {
	var ids []jade.ObjectID
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(*refEntry).obj)
	}
	return ids
}

// order lists the cached objects from most to least recently used,
// checking the back links on the way.
func (c *cache) order(t *testing.T) []jade.ObjectID {
	t.Helper()
	var ids []jade.ObjectID
	prev := int32(-1)
	for id := c.head; id >= 0; id = c.slots[id].next {
		if c.slots[id].prev != prev || !c.slots[id].present {
			t.Fatalf("slot %d: prev %d present %t, want prev %d present", id, c.slots[id].prev, c.slots[id].present, prev)
		}
		ids = append(ids, jade.ObjectID(id))
		prev = id
	}
	if c.tail != prev {
		t.Fatalf("tail %d, want %d", c.tail, prev)
	}
	return ids
}

// evicted lists the objects in before but not in after, least recent
// first: the order an insert evicted them.
func evicted(before, after []jade.ObjectID) []jade.ObjectID {
	kept := map[jade.ObjectID]bool{}
	for _, id := range after {
		kept[id] = true
	}
	var out []jade.ObjectID
	for i := len(before) - 1; i >= 0; i-- {
		if !kept[before[i]] {
			out = append(out, before[i])
		}
	}
	return out
}

// TestCacheMatchesReference drives the dense LRU and the reference
// model through seeded random insert/touch/has sequences, including
// objects larger than the whole cache, re-inserts at a new version and
// object IDs beyond the initial table, and requires the same answer to
// every has, the same used bytes and the same recency order — hence
// the same evictions, in the same order — after every step.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 256 + rng.Intn(1024)
		objs := make([]*jade.Object, 40+rng.Intn(40))
		for i := range objs {
			size := 16 + rng.Intn(capacity/3)
			switch rng.Intn(10) {
			case 0:
				size = capacity + 1 + rng.Intn(capacity) // never retained
			case 1:
				size = capacity/2 + rng.Intn(capacity/2+1) // up to the whole cache
			}
			objs[i] = obj(i, size)
		}
		dense, ref := newCache(capacity, len(objs)/2), newRefCache(capacity)
		versions := make([]jade.Version, len(objs))
		evictions := 0
		for step := 0; step < 2000; step++ {
			o := objs[rng.Intn(len(objs))]
			before := ref.order()
			switch op := rng.Intn(10); {
			case op < 5:
				if rng.Intn(3) == 0 {
					versions[o.ID]++ // a re-insert at a new version
				}
				dense.insert(o, versions[o.ID])
				ref.insert(o, versions[o.ID])
			case op < 7:
				dense.touch(o)
				ref.touch(o)
			default:
				for _, v := range []jade.Version{versions[o.ID] - 1, versions[o.ID], versions[o.ID] + 1} {
					if got, want := dense.has(o, v), ref.has(o, v); got != want {
						t.Fatalf("seed %d step %d: has(%d, v%d) = %t, reference %t", seed, step, o.ID, v, got, want)
					}
				}
			}
			got, want := dense.order(t), ref.order()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: recency %v, reference %v (evicted %v, reference %v)",
					seed, step, got, want, evicted(before, got), evicted(before, want))
			}
			if dense.used != ref.used {
				t.Fatalf("seed %d step %d: used %d, reference %d", seed, step, dense.used, ref.used)
			}
			evictions += len(evicted(before, want))
		}
		if evictions == 0 {
			t.Fatalf("seed %d: the sequence never evicted", seed)
		}
	}
}

func TestProcQueueFIFOWithinObject(t *testing.T) {
	q := &procQueue{}
	o := obj(1, 8)
	q.push(1, o)
	q.push(2, o)
	if got := q.popFirst(); got != 1 {
		t.Fatalf("popFirst = %v, want task 1", got)
	}
	if got := q.popFirst(); got != 2 {
		t.Fatalf("popFirst = %v, want task 2", got)
	}
	if q.popFirst() != noTask {
		t.Fatal("empty queue returned a task")
	}
}

func TestProcQueueObjectQueueOrder(t *testing.T) {
	q := &procQueue{}
	oa, ob := obj(1, 8), obj(2, 8)
	q.push(1, oa)
	q.push(2, ob)
	q.push(3, oa)
	// Dispatch: first task of FIRST object task queue → task 1, then
	// task 3 (same OTQ), then task 2.
	if q.popFirst() != 1 {
		t.Fatal("expected task 1 first")
	}
	if q.popFirst() != 3 {
		t.Fatal("expected task 3 second (same OTQ)")
	}
	if q.popFirst() != 2 {
		t.Fatal("expected task 2 last")
	}
}

func TestProcQueueStealLastOfLast(t *testing.T) {
	q := &procQueue{}
	oa, ob := obj(1, 8), obj(2, 8)
	q.push(1, oa)
	q.push(2, ob)
	q.push(3, ob)
	// Steal: last task of LAST object task queue → task 3.
	if got := q.stealLast(); got != 3 {
		t.Fatalf("stealLast = %v, want task 3", got)
	}
	if got := q.stealLast(); got != 2 {
		t.Fatalf("stealLast = %v, want task 2", got)
	}
	if got := q.stealLast(); got != 1 {
		t.Fatalf("stealLast = %v, want task 1", got)
	}
}

func TestProcQueuePlacedNotStealable(t *testing.T) {
	q := &procQueue{}
	q.pushPlaced(1)
	if q.stealLast() != noTask || q.stealFirst() != noTask {
		t.Fatal("placed task was stolen")
	}
	if q.popFirst() != 1 {
		t.Fatal("placed task not dispatched")
	}
}

func TestProcQueueEmpty(t *testing.T) {
	q := &procQueue{}
	if !q.empty() {
		t.Fatal("new queue not empty")
	}
	q.push(1, obj(1, 8))
	if q.empty() {
		t.Fatal("non-empty queue reported empty")
	}
	q.popFirst()
	if !q.empty() {
		t.Fatal("drained queue not empty")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	m := New(DefaultConfig(2, Locality))
	for id := 0; id < 1000; id++ {
		j1 := m.jitter(jade.TaskID(id))
		j2 := m.jitter(jade.TaskID(id))
		if j1 != j2 {
			t.Fatal("jitter not deterministic")
		}
		lo := 1 - m.cfg.JitterPct/2
		hi := 1 + m.cfg.JitterPct/2
		if j1 < lo || j1 > hi {
			t.Fatalf("jitter(%d) = %v outside [%v,%v]", id, j1, lo, hi)
		}
	}
	cfg := DefaultConfig(2, Locality)
	cfg.JitterPct = 0
	m0 := New(cfg)
	if m0.jitter(7) != 1 {
		t.Fatal("zero jitter config should return exactly 1")
	}
}

func TestClusterMapping(t *testing.T) {
	cfg := DefaultConfig(32, Locality)
	if cfg.cluster(0) != 0 || cfg.cluster(3) != 0 {
		t.Fatal("processors 0-3 should share cluster 0")
	}
	if cfg.cluster(4) != 1 || cfg.cluster(31) != 7 {
		t.Fatal("cluster mapping wrong")
	}
	cfg.ClusterSize = 0
	if cfg.cluster(5) != 5 {
		t.Fatal("degenerate cluster size should map identity")
	}
}

func TestLineTime(t *testing.T) {
	cfg := DefaultConfig(1, Locality)
	// 33 bytes = 3 lines of 16 bytes.
	want := 3 * cfg.RemoteMemCycles / cfg.ClockHz
	if got := cfg.lineTime(33, cfg.RemoteMemCycles); got != want {
		t.Fatalf("lineTime = %v, want %v", got, want)
	}
}
