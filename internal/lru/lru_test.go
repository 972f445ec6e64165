package lru

import (
	"sync"
	"sync/atomic"
	"testing"
)

// keys lists a cache's keys most recent first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func wantKeys(t *testing.T, c *Cache[string, int], want ...string) {
	t.Helper()
	got := keys(c)
	if len(got) != len(want) || c.Len() != len(want) {
		t.Fatalf("keys = %v (Len %d), want %v", got, c.Len(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func wantStats(t *testing.T, c *Cache[string, int], hits, misses uint64) {
	t.Helper()
	if st := c.Stats(); st.Hits != hits || st.Misses != misses {
		t.Fatalf("stats = %+v, want %d hits, %d misses", st, hits, misses)
	}
}

func TestCache(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"eviction order", func(t *testing.T) {
			c := New[string, int](3)
			c.Put("a", 1)
			c.Put("b", 2)
			c.Put("c", 3)
			if _, ok := c.Get("a"); !ok { // a becomes most recent
				t.Fatal("a missing")
			}
			c.Put("d", 4) // evicts b, the least recently used
			wantKeys(t, c, "d", "a", "c")
			c.GetOrPut("c", func() int { t.Fatal("c rebuilt"); return 0 })
			c.Put("e", 5) // evicts a
			wantKeys(t, c, "e", "c", "d")
			if _, ok := c.Get("b"); ok {
				t.Fatal("evicted b still answers")
			}
			wantStats(t, c, 2, 1)
			if st := c.Stats(); st.Cap != 3 {
				t.Fatalf("Cap = %d, want 3", st.Cap)
			}
		}},
		{"peek records neither recency nor counts", func(t *testing.T) {
			c := New[string, int](2)
			c.Put("a", 1)
			c.Put("b", 2)
			if v, ok := c.Peek("a"); !ok || v != 1 {
				t.Fatalf("Peek(a) = %d, %t", v, ok)
			}
			if _, ok := c.Peek("z"); ok {
				t.Fatal("Peek(z) hit")
			}
			wantStats(t, c, 0, 0)
			c.Put("c", 3) // a stays least recent despite the Peek
			wantKeys(t, c, "c", "b")
		}},
		{"capacity 0 holds nothing", func(t *testing.T) { holdsNothing(t, New[string, int](0)) }},
		{"capacity -1 holds nothing", func(t *testing.T) { holdsNothing(t, New[string, int](-1)) }},
		{"put replaces in place", func(t *testing.T) {
			c := New[string, int](2)
			c.Put("a", 1)
			c.Put("b", 2)
			c.Put("a", 10) // replaced and made most recent, nothing evicted
			wantKeys(t, c, "a", "b")
			if v, _ := c.Peek("a"); v != 10 {
				t.Fatalf("a = %d, want 10", v)
			}
			c.Put("c", 3)
			wantKeys(t, c, "c", "a")
		}},
		{"GetOrPut builds once under concurrency", func(t *testing.T) {
			c := New[string, *int](4)
			var builds atomic.Int32
			got := make([]*int, 32)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = c.GetOrPut("k", func() *int { builds.Add(1); return new(int) })
				}(i)
			}
			wg.Wait()
			if n := builds.Load(); n != 1 {
				t.Fatalf("built %d times, want 1", n)
			}
			for i := range got {
				if got[i] != got[0] {
					t.Fatalf("caller %d got a different value", i)
				}
			}
			if st := c.Stats(); st.Hits != 31 || st.Misses != 1 || st.Len != 1 {
				t.Fatalf("stats = %+v, want 31 hits, 1 miss, 1 entry", st)
			}
		}},
		{"a hit allocates nothing", func(t *testing.T) {
			type key struct {
				app   string
				procs int
			}
			c := New[key, *int](4)
			mk := func() *int { return new(int) }
			k := key{"water", 8}
			c.GetOrPut(k, mk)
			c.Put(key{"ocean", 8}, new(int))
			allocs := testing.AllocsPerRun(100, func() {
				c.GetOrPut(k, mk)
				c.Get(key{"ocean", 8})
				c.Peek(k)
			})
			if allocs != 0 {
				t.Fatalf("a hit allocates %.1f times, want 0", allocs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

func holdsNothing(t *testing.T, c *Cache[string, int]) {
	t.Helper()
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get hit after Put")
	}
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek hit after Put")
	}
	builds := 0
	for i := 0; i < 2; i++ {
		if v := c.GetOrPut("a", func() int { builds++; return 7 }); v != 7 {
			t.Fatalf("GetOrPut = %d, want 7", v)
		}
	}
	if builds != 2 {
		t.Fatalf("GetOrPut built %d times, want once per call", builds)
	}
	wantKeys(t, c)
	wantStats(t, c, 0, 3)
}
