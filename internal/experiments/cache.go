package experiments

import (
	"sync"

	"repro/internal/fuse"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/pgas"
)

// This file holds the experiment drivers' graph cache: one
// process-wide lru.Cache of fill-once slots, shared by the task graphs
// the sweeps replay and the Cholesky and SpMV workloads, each under a
// typed cacheKey. The jaded server inherits it for free — the cache is
// package state, so every worker and every job shares one copy — and
// exposes its counters on /metricz as graph_cache.

// graphCacheCap bounds the shared cache. Graphs are keyed per
// (app, scale, place, procs), beside the fused graphs and the
// workloads: every registered experiment at one scale leaves
// 66 residencies (TestSecondPassCapturesNothing), so 128 holds one
// scale's full set with headroom without letting a pathological caller
// grow it unboundedly.
const graphCacheCap = 128

// cacheKey names one cached value: what kind of value it is, and the
// inputs it is a pure function of, with the fields a kind does not use
// left zero. It is a comparable struct rather than a formatted string,
// so a lookup on the replay path builds its key without allocating.
type cacheKey struct {
	kind  cacheKind
	app   string // appSpec.key, or the workload's configuration key
	scale Scale
	place bool
	procs int
}

// cacheKind is what a cacheKey names.
type cacheKind uint8

const (
	kindGraph    cacheKind = iota // an application's captured graph
	kindFused                     // the fusion pass over it
	kindWorkload                  // an application's untimed setup data
)

// slot is one key's residency. The value is built outside the cache
// lock, at most once per residency: concurrent getters share the
// builder's result through once.
type slot struct {
	once sync.Once
	val  any
}

func newSlot() *slot { return new(slot) }

// sharedCache is the process-wide graph cache. It is package state,
// not a Runner field, because callers (the bench module among them)
// build a new Runner per pass and must still replay warm graphs.
var sharedCache = lru.New[cacheKey, *slot](graphCacheCap)

// cached returns c's value for key, running build at most once per
// residency. If the key is evicted while a holder still builds it, the
// holder's result stays valid for everyone who grabbed the slot before
// eviction; the next lookup simply rebuilds.
func cached(c *lru.Cache[cacheKey, *slot], key cacheKey, build func() any) any {
	s := c.GetOrPut(key, newSlot)
	s.once.Do(func() { s.val = build() })
	return s.val
}

// CacheStats is a snapshot of the shared graph cache's counters.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// GraphCacheStats returns the shared cache's hit/miss counters and
// occupancy; the jaded /metricz endpoint reports them as graph_cache.
func GraphCacheStats() CacheStats {
	st := sharedCache.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Len, Capacity: st.Cap}
}

// capturedGraph returns the task graph for one front-end build,
// capturing it on first use. Processor count is part of the key:
// applications shape their structure around Runtime.Processors
// (per-processor replicas, block distributions), so the graph is not
// procs-invariant even though the machine models downstream of it are
// interchangeable. The work-free setting is not: one graph replays
// both timed and work-free cells.
func capturedGraph(a *appSpec, scale Scale, procs int, place bool) *graph.Graph {
	key := cacheKey{kind: kindGraph, app: a.key, scale: scale, place: place, procs: procs}
	return cached(sharedCache, key, func() any {
		return graph.Capture(procs, false, func(rt *jade.Runtime) { a.run(rt, scale, place) })
	}).(*graph.Graph)
}

// fusedEntry pairs a fused graph with what fusing it accomplished, so
// replays can stamp the pass's counters onto their runs.
type fusedEntry struct {
	g  *graph.Graph
	st graph.FuseStats
}

// fusedGraph returns the task-fusion pass's output for one graph,
// cached alongside the unfused capture under the same inputs: the
// work-free view under the pass's defaults (fusion specs are work-free),
// or the timed graph under the app's own pass options. The app decides
// which, so its key names what the pass fused.
func fusedGraph(a *appSpec, scale Scale, procs int, place bool) fusedEntry {
	key := cacheKey{kind: kindFused, app: a.key, scale: scale, place: place, procs: procs}
	return cached(sharedCache, key, func() any {
		g, opts := capturedGraph(a, scale, procs, place), fuse.DefaultOptions()
		if a.fuse != nil {
			opts = *a.fuse
		} else {
			g = g.WorkFreeView()
		}
		g, st, _ := g.Fuse(opts)
		return fusedEntry{g: g, st: st}
	}).(fusedEntry)
}

// fusionBenefitPerTask prices the task-management messages one fused
// (eliminated) task avoids on the named machine: its task-assignment
// message plus its completion notice. The shared-memory machines pay
// no task messages, so the benefit there is zero.
func fusionBenefitPerTask(machine string) int64 {
	switch machine {
	case "ipsc":
		c := ipsc.DefaultConfig(1, ipsc.Locality)
		return int64(c.TaskMsgBytes + c.CompletionBytes)
	case "pgas":
		c := pgas.DefaultConfig(1, pgas.Affinity)
		return int64(c.TaskMsgBytes + c.CompletionBytes)
	}
	return 0
}

// stampFusion records the fusion pass's effect on a replayed run.
func stampFusion(r *metrics.Run, machine string, st graph.FuseStats) {
	r.TasksFused = int64(st.TasksFused)
	r.FusionBenefitBytes = int64(st.TasksFused) * fusionBenefitPerTask(machine)
}

// replay replays g against the platform through rt (a new runtime, or
// the worker's reused one). Every graph replays onto a fresh or reset
// platform, so a refusal is a caller bug (a platform that already ran,
// say). Re-running directly would hide it behind a slow,
// correct-looking run.
func replay(g *graph.Graph, rt *jade.Runtime, p jade.Platform, cfg jade.Config) *metrics.Run {
	r, err := g.ReplayWith(rt, p, cfg)
	if err != nil {
		panic(err)
	}
	return r
}
