package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errRunnerBroken = errors.New("runner broken")

// metricz fetches and decodes /metricz.
func metricz(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSingleflightConcurrentIdenticalJobsRunOnce is the singleflight
// acceptance test: two concurrent sync submissions of the same spec
// execute the simulation exactly once; the second is finished with
// the leader's result and reported as a dedup + cache hit.
func TestSingleflightConcurrentIdenticalJobsRunOnce(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	var runs atomic.Int32
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		runs.Add(1)
		started <- struct{}{}
		<-release
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1","scale":"small"}`)}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8}, runFn)
	spec := `{"experiments":["table1"]}`

	var wg sync.WaitGroup
	codes := make([]int, 2)
	docs := make([]*JobStatus, 2)
	submitOne := func(i int) {
		defer wg.Done()
		codes[i], docs[i], _ = submit(t, ts.URL, spec, true)
	}
	wg.Add(1)
	go submitOne(0)
	<-started // the leader is executing (and blocked on release)

	wg.Add(1)
	go submitOne(1)
	// The second worker pops the identical job and parks it on the
	// leader instead of running it; wait for that to be observable.
	deadline := time.Now().Add(10 * time.Second)
	for metricz(t, ts.URL).JobsDeduped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second identical job never deduplicated onto the leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range docs {
		if codes[i] != http.StatusOK {
			t.Fatalf("submission %d = %d", i, codes[i])
		}
		if docs[i].Status != StatusDone {
			t.Fatalf("submission %d status = %s (%s)", i, docs[i].Status, docs[i].Error)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation executed %d times for 2 identical concurrent jobs, want 1", got)
	}
	if !bytes.Equal(docs[0].Result, docs[1].Result) {
		t.Fatal("leader and follower carry different result documents")
	}
	if docs[0].CacheHit {
		t.Fatal("leader reported a cache hit")
	}
	if !docs[1].CacheHit {
		t.Fatal("deduplicated follower did not report a shared (cache-hit) result")
	}

	m := metricz(t, ts.URL)
	if m.JobsDeduped != 1 {
		t.Fatalf("jobs_deduped = %d, want 1", m.JobsDeduped)
	}
	if m.JobsCompleted != 2 || m.JobsFailed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", m.JobsCompleted, m.JobsFailed)
	}
}

// TestSingleflightFollowerSharesLeaderFailure: a follower parked on a
// leader that fails must fail too, with an error naming the dedup.
func TestSingleflightFollowerSharesLeaderFailure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		started <- struct{}{}
		<-release
		return JobStatus{}, errRunnerBroken
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8}, runFn)
	spec := `{"experiments":["table2"]}`

	var wg sync.WaitGroup
	docs := make([]*JobStatus, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, docs[0], _ = submit(t, ts.URL, spec, true) }()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); _, docs[1], _ = submit(t, ts.URL, spec, true) }()
	deadline := time.Now().Add(10 * time.Second)
	for metricz(t, ts.URL).JobsDeduped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second identical job never deduplicated onto the leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, d := range docs {
		if d.Status != StatusFailed {
			t.Fatalf("job %d status = %s, want failed", i, d.Status)
		}
	}
	if !strings.Contains(docs[1].Error, "deduplicated") || !strings.Contains(docs[1].Error, errRunnerBroken.Error()) {
		t.Fatalf("follower error = %q, want dedup wrapping of the leader error", docs[1].Error)
	}
}

// TestSingleflightDistinctSpecsStillRunSeparately guards against
// over-deduplication: different canonical hashes never share a flight.
func TestSingleflightDistinctSpecsStillRunSeparately(t *testing.T) {
	var runs atomic.Int32
	runFn := func(context.Context, *JobSpec, string) (JobStatus, error) {
		runs.Add(1)
		return JobStatus{Result: []byte(`{"schema":"jadebench/v1"}`)}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1}, runFn)
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, true); code != http.StatusOK {
		t.Fatalf("first = %d", code)
	}
	if code, _, _ := submit(t, ts.URL, `{"experiments":["table2"]}`, true); code != http.StatusOK {
		t.Fatalf("second = %d", code)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("distinct specs ran %d times, want 2", got)
	}
	if m := metricz(t, ts.URL); m.JobsDeduped != 0 {
		t.Fatalf("jobs_deduped = %d, want 0", m.JobsDeduped)
	}
}
