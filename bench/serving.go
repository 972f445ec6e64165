package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/serve"
)

// topology is the serving stack under test: two in-process jaded
// servers behind one router, everything at its defaults (hedging,
// bounded load and the background health prober included).
type topology struct {
	servers []*serve.Server
	router  *router.Router
}

const topologyServers = 2

// bootTopology starts the stack. wrap, when not nil, decorates each
// backend before the router sees it (the traced runs time Submit that
// way).
func bootTopology(cfg serve.Config, wrap func(router.Backend) router.Backend) (*topology, error) {
	t := &topology{}
	var backends []router.Backend
	for i := 0; i < topologyServers; i++ {
		srv := serve.New(cfg)
		t.servers = append(t.servers, srv)
		var b router.Backend = router.NewLocalBackend(fmt.Sprintf("jaded-%d", i), srv)
		if wrap != nil {
			b = wrap(b)
		}
		backends = append(backends, b)
	}
	rt, err := router.NewRouter(router.Config{}, backends...)
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = rt
	return t, nil
}

func (t *topology) close() {
	if t.router != nil {
		t.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range t.servers {
		_ = s.Shutdown(ctx) // a worker still busy after 30s is reported by the run that follows, not here
	}
}

// request routes one synchronous job and returns its result document.
// A routing error, a missing document and a job that did not end
// "done" are all failed ops.
func (t *topology) request(spec *serve.JobSpec, traceID string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	res := t.router.Do(context.Background(), spec, true, traceID)
	d := time.Since(t0)
	switch {
	case res.Err != nil:
		return nil, d, res.Err
	case res.Doc == nil:
		return nil, d, fmt.Errorf("router returned no document (code %d)", res.Code)
	case res.Doc.Status != serve.StatusDone:
		return nil, d, fmt.Errorf("job %s ended %q: %s", res.Doc.ID, res.Doc.Status, res.Doc.Error)
	}
	return res.Doc.Result, d, nil
}

// servingClients is the closed loop's width: each client sends its
// next request when the previous one has answered.
func servingClients() int { return benchProcs() }

// pool is a frozen job list with its checker and the order requests
// walk it in.
type pool struct {
	jobs []*serve.JobSpec
	v    *verifier
}

func newPool(list string, jobs []*serve.JobSpec, want []string) (*pool, error) {
	v, err := newVerifier(list, want, len(jobs))
	if err != nil {
		return nil, err
	}
	return &pool{jobs: jobs, v: v}, nil
}

// ask sends pool job i through the stack and checks what comes back.
func (p *pool) ask(t *topology, i int, traceID string) (time.Duration, error) {
	out, d, err := t.request(p.jobs[i], traceID)
	if err != nil {
		return d, err
	}
	return d, p.v.check(i, out)
}

// servingRun is a warmed-up serving workload: the stack, the pool and
// the rule that picks each client's next job.
type servingRun struct {
	topo *topology
	pool *pool
	next func(client int) int
}

// instance is the untraced closed loop over the run.
func (s *servingRun) instance() *instance {
	return &instance{
		clients: servingClients(),
		op:      func(c int) (time.Duration, error) { return s.pool.ask(s.topo, s.next(c), "") },
		close:   s.topo.close,
	}
}

// setupServing boots the stack and warms it for serve-hot or
// serve-cold.
func setupServing(name string, g *goldenFile, seed int64, wrap func(router.Backend) router.Backend) (*servingRun, error) {
	var (
		p     *pool
		err   error
		warm  []int
		next  func(int) int
		order []int
	)
	if name == wServeHot {
		p, err = newPool("hot", hotPool(), g.Hot)
	} else {
		p, err = newPool("cold", coldPool(), g.Cold)
	}
	if err != nil {
		return nil, err
	}
	n := len(p.jobs)
	if name == wServeHot {
		// Two passes over the pool: the first computes and checks every
		// result, the second finds each in a result cache.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				warm = append(warm, i)
			}
		}
		draws := make([]*rand.Zipf, servingClients())
		for c := range draws {
			draws[c] = newZipf(seed, c, n)
		}
		next = func(c int) int { return int(draws[c].Uint64()) }
	} else {
		// One walk in request order: it checks every result and fills
		// the task-graph cache, while the result caches (128 entries a
		// server) keep only its tail. The clients then share one cursor,
		// so together they walk the pool in order, over and over: by
		// the time a job comes round again both result caches have long
		// since dropped it.
		order = shuffledOrder(seed, n)
		warm = order
		var cursor atomic.Int64
		next = func(int) int { return order[(cursor.Add(1)-1)%int64(n)] }
	}
	t, err := bootTopology(serve.Config{}, wrap)
	if err != nil {
		return nil, err
	}
	for _, i := range warm {
		if _, err := p.ask(t, i, ""); err != nil {
			t.close()
			return nil, err
		}
	}
	return &servingRun{topo: t, pool: p, next: next}, nil
}

// execJob runs a job the way a jaded worker does, without the server:
// the result document, and the cost of producing it with no queue, no
// admission and no bookkeeping around it.
func execJob(spec *serve.JobSpec) ([]byte, error) {
	rep, err := experiments.BuildReportWithRuns(spec.Experiments, spec.Runs, experiments.Scale(spec.Scale))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
