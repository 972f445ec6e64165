package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/spmv"
	"repro/internal/experiments"
	"repro/internal/jade"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The probes measure layers no workload isolates: a fixed synthetic
// drive of one public entry point each, the same in every traced run.
// A probe that times a short fixed computation reports its fastest
// repetition, and the two on/off overheads compare each side's fastest
// round: the minimum is the reading the host disturbed least.

// probeReps is how often the short computations are repeated.
const probeReps = 3

func bestOf(reps int, measure func() float64) float64 {
	best := measure()
	for i := 1; i < reps; i++ {
		best = min(best, measure())
	}
	return best
}

// runProbes runs every probe; together they take about three seconds.
func runProbes(e *tracedEnv) error {
	probeSparse(e)
	probeSynchronizer(e, 20000)
	probeSim(e, 1000000)
	probeCanonicalize(e, 200)
	if err := probeObserver(e, 9); err != nil {
		return err
	}
	if err := probeServeSpans(e, 5, 200); err != nil {
		return err
	}
	return probeHTTP(e, 400)
}

// probeSparse times the two generated inputs every process builds
// before its first run: the Cholesky symbolic factorisation and the
// SpMV matrix.
func probeSparse(e *tracedEnv) {
	var times []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		cholesky.NewWorkload(cholesky.Small())
		spmv.NewWorkload(spmv.Small())
		times = append(times, ms(time.Since(t0)))
	}
	e.set("sparse.setup_ms", median(times))
}

// probeSynchronizer drives jade's dependence analysis alone: tasks
// that each write one object and read two others out of 64, registered
// in program order and completed in program order a phase of 128 tasks
// at a time, the way a program alternates task creation and Wait.
func probeSynchronizer(e *tracedEnv, tasks int) {
	const objects, perTask, phase = 64, 3, 128
	e.set("jade.sync_ns_per_access", bestOf(probeReps, func() float64 {
		objs := make([]*jade.Object, objects)
		for i := range objs {
			objs[i] = &jade.Object{ID: jade.ObjectID(i)}
		}
		ts := make([]*jade.Task, tasks)
		for i := range ts {
			ts[i] = &jade.Task{ID: jade.TaskID(i), Placed: -1, Accesses: []jade.Access{
				{Obj: objs[i%objects], Mode: jade.Write},
				{Obj: objs[(i+7)%objects], Mode: jade.Read},
				{Obj: objs[(i+19)%objects], Mode: jade.Read},
			}}
		}
		s := jade.NewSynchronizer()
		t0 := time.Now()
		for from := 0; from < tasks; from += phase {
			batch := ts[from:min(from+phase, tasks)]
			for _, t := range batch {
				s.Register(t)
			}
			for _, t := range batch {
				s.Complete(t)
			}
		}
		return float64(time.Since(t0)) / float64(tasks*perTask)
	}))
}

// probeSim drives the event engine alone with the two patterns the
// machine models produce: cascades (an event scheduling the next a
// fixed delay on, which rides the FIFO bucket) and, from every fourth
// event, a far-future event (which goes through the heap).
func probeSim(e *tracedEnv, events int) {
	const chains = 1000
	var allocsPerKEvent float64
	e.set("sim.ns_per_event", bestOf(probeReps, func() float64 {
		ns, allocs := simCascade(chains, events)
		allocsPerKEvent = allocs
		return ns
	}))
	e.set("sim.allocs_per_kevent", allocsPerKEvent)
}

// simCascade runs the pattern once on a fresh engine and returns the
// host nanoseconds per event and the allocations per thousand events.
func simCascade(chains, events int) (nsPerEvent, allocsPerKEvent float64) {
	eng := sim.New()
	fired := 0
	var cascade, future sim.Handler
	future = eng.RegisterHandler(func(int32) { fired++ })
	cascade = eng.RegisterHandler(func(arg int32) {
		fired++
		if fired >= events {
			return
		}
		eng.AtCall(eng.Now()+1e-6, cascade, arg)
		if fired%4 == 0 {
			eng.AtCall(eng.Now()+sim.Time(1+arg%97)*1e-3, future, arg)
		}
	})
	for c := 0; c < chains; c++ {
		eng.AtCall(0, cascade, int32(c))
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	eng.Run()
	d := time.Since(t0)
	mem := memSince(&before)
	return float64(d) / float64(fired), float64(mem.mallocs) / (float64(fired) / 1000)
}

// probeCanonicalize times what the serving path does to a spec before
// it can look anything up: canonicalize the run, canonicalize the job,
// hash it. The mean is over the serve-hot pool.
func probeCanonicalize(e *tracedEnv, rounds int) {
	pool := hotPool()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, job := range pool {
			j := serve.JobSpec{Scale: job.Scale, Experiments: append([]string(nil), job.Experiments...)}
			for _, run := range job.Runs {
				_ = run.Canonicalize() // canonical already: cannot fail
				j.Runs = append(j.Runs, run)
			}
			_ = j.Canonicalize() // as above
			_ = j.Hash()
		}
	}
	e.set("experiments.canonicalize_us", float64(time.Since(t0))/1e3/float64(rounds*len(pool)))
}

// probeObserver prices the structured observer: the eleven default
// run specs with it attached over the same runs without.
func probeObserver(e *tracedEnv, rounds int) error {
	var plain, observed []experiments.RunSpec
	for _, job := range hotPool()[len(hotExperimentIDs):] {
		s := job.Runs[0]
		plain = append(plain, s)
		s.Observe = true
		observed = append(observed, s)
	}
	timeRuns := func(specs []experiments.RunSpec) (float64, error) {
		t0 := time.Now()
		_, err := experiments.NewRunner(1).ExecuteRuns(specs, experiments.Small)
		return ms(time.Since(t0)), err
	}
	var off, on []float64
	for r := 0; r < rounds; r++ {
		a, err := timeRuns(plain)
		if err != nil {
			return err
		}
		b, err := timeRuns(observed)
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	e.set("obsv.overhead_frac", slices.Min(on)/slices.Min(off)-1)
	return nil
}

// probeServeSpans prices jaded's request-span capture: the first jobs
// of the cold pool through a fresh server (every one a miss) with
// Config.Spans on over the same with it off.
func probeServeSpans(e *tracedEnv, rounds, jobs int) error {
	pool := coldPool()[:jobs]
	walk := func(spans bool) (float64, error) {
		srv := serve.New(serve.Config{Spans: spans})
		defer func() { _ = srv.Shutdown(context.Background()) }() // idle by then: nothing to wait for
		t0 := time.Now()
		for _, job := range pool {
			spec := *job
			doc, err := srv.RunSync(context.Background(), &spec, "")
			if err != nil {
				return 0, err
			}
			if doc.Status != serve.StatusDone {
				return 0, fmt.Errorf("span probe: job ended %q: %s", doc.Status, doc.Error)
			}
		}
		return ms(time.Since(t0)), nil
	}
	var off, on []float64
	for r := 0; r < rounds; r++ {
		a, err := walk(false)
		if err != nil {
			return err
		}
		b, err := walk(true)
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	e.set("svcobs.span_overhead_frac", slices.Min(on)/slices.Min(off)-1)
	return nil
}

// probeHTTP prices jaded's HTTP edge on a cached job: the handler
// path of POST /v1/jobs?sync=1 (decode, mux, encode; no socket) over
// the same job through RunSync.
func probeHTTP(e *tracedEnv, requests int) error {
	srv := serve.New(serve.Config{})
	defer func() { _ = srv.Shutdown(context.Background()) }() // idle by then
	job := hotPool()[0]
	body, err := json.Marshal(job)
	if err != nil {
		return err
	}
	var viaHTTP, direct []float64
	for i := 0; i <= requests; i++ {
		t0 := time.Now()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs?sync=1", bytes.NewReader(body)))
		d := time.Since(t0)
		if w.Code != http.StatusOK {
			return fmt.Errorf("http probe: status %d: %s", w.Code, w.Body.String())
		}
		t0 = time.Now()
		spec := *job
		if _, err := srv.RunSync(context.Background(), &spec, ""); err != nil {
			return err
		}
		if i > 0 { // request 0 computed the result; the rest are hits
			viaHTTP = append(viaHTTP, float64(d)/1e3)
			direct = append(direct, float64(time.Since(t0))/1e3)
		}
	}
	e.set("serve.http_us_p50", median(viaHTTP)-median(direct))
	return nil
}
