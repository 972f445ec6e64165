package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken as early as the process can take it; setup_s
// runs from here to the first timed op.
var processStart = time.Now()

// minTail is how many samples must lie beyond a percentile before it
// is reported: fewer, and the number is a property of a handful of
// outliers rather than of the program.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule, and false when fewer than minTail samples lie
// beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// median is the plain median, for small sets of repeated measurements
// where percentile's tail rule does not apply.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// samples collects per-op durations in fixed chunks, so recording one
// costs no allocation the benchmark would then count against the
// program (one chunk per 32768 ops).
type samples struct {
	chunks [][]time.Duration
}

const sampleChunk = 1 << 15

func (s *samples) add(d time.Duration) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]time.Duration, 0, sampleChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, d)
}

// sortedMS merges sample sets and returns them in milliseconds,
// ascending.
func sortedMS(sets ...*samples) []float64 {
	var out []float64
	for _, s := range sets {
		for _, c := range s.chunks {
			for _, d := range c {
				out = append(out, float64(d)/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// rssSampler reads the process's resident set every rssEvery while a
// timed phase runs. The high-water mark is decided by how a few GC
// cycles happen to fall (it does not repeat within a fifth on
// paper-tables), so the bounded memory metric is the 90th percentile of
// these samples; VmHWM is still reported beside it.
type rssSampler struct {
	stop, done chan struct{}
	mib        []float64
}

const rssEvery = 20 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), mib: make([]float64, 0, 1<<14)}
	pageMiB := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(s.done)
		defer f.Close()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var buf [128]byte
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			// statm is "size resident shared ...", in pages.
			n, _ := f.ReadAt(buf[:], 0)
			fields := bytes.Fields(buf[:n])
			if len(fields) < 2 {
				continue
			}
			pages, err := strconv.ParseFloat(string(fields[1]), 64)
			if err == nil {
				s.mib = append(s.mib, pages*pageMiB)
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and returns its samples, ascending.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.mib)
	return s.mib
}

// memDelta is what runtime.MemStats says happened between two reads.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapSysMiB     float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		bytes:      after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapSysMiB: float64(after.HeapSys) / (1 << 20),
	}
}

// benchProcs is the width every workload process runs at.
func benchProcs() int { return min(runtime.NumCPU(), 4) }
