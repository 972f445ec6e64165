package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// instance is one set-up workload: caches warm, first outputs checked
// against golden.json, ready to run timed ops.
type instance struct {
	// clients is how many goroutines drive ops in a closed loop.
	clients int
	// op runs one op for a client. It times only the calls into the
	// program; the output check happens after the clock stops.
	op func(client int) (time.Duration, error)
	// close stops whatever set-up started.
	close func()
}

// Warm-up lengths: fixed counts, so set-up does the same work on every
// commit.
const (
	paperWarmPasses = 5
	sweepWarmPasses = 20
)

// renderTable regenerates one table at small scale and renders it the
// way jadebench prints it.
func renderTable(id string) ([]byte, error) {
	res, err := experiments.Run(id, experiments.Small)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	res.Render(&sb)
	return []byte(sb.String()), nil
}

func setupPaperTables(g *goldenFile) (*instance, *verifier, error) {
	v, err := newVerifier("tables", g.Tables, len(tableIDs))
	if err != nil {
		return nil, nil, err
	}
	outs := make([][]byte, len(tableIDs))
	op := func(int) (time.Duration, error) {
		t0 := time.Now()
		for i, id := range tableIDs {
			out, err := renderTable(id)
			if err != nil {
				return 0, err
			}
			outs[i] = out
		}
		d := time.Since(t0)
		for i, out := range outs {
			if err := v.check(i, out); err != nil {
				return d, err
			}
		}
		return d, nil
	}
	for i := 0; i < paperWarmPasses; i++ {
		if _, err := op(0); err != nil {
			return nil, nil, err
		}
	}
	return &instance{clients: 1, op: op, close: func() {}}, v, nil
}

// sweepPass is one workfree-sweep op: execute every cell through the
// batching runner, then encode each run's report. The reports share
// one buffer that the next pass reuses.
type sweepPass struct {
	specs []experiments.RunSpec
	buf   bytes.Buffer
	ends  []int
	runs  []*metrics.Run
}

func (p *sweepPass) run() error {
	runs, err := experiments.NewRunner(0).ExecuteRuns(p.specs, experiments.Small)
	if err != nil {
		return err
	}
	p.runs = runs
	p.buf.Reset()
	p.ends = p.ends[:0]
	for _, r := range runs {
		if err := r.WriteJSON(&p.buf); err != nil {
			return err
		}
		p.ends = append(p.ends, p.buf.Len())
	}
	return nil
}

// report returns cell i's encoded report from the last pass.
func (p *sweepPass) report(i int) []byte {
	start := 0
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.buf.Bytes()[start:p.ends[i]]
}

// runSweep runs one pass and copies out its reports.
func runSweep(specs []experiments.RunSpec) ([]*metrics.Run, [][]byte, error) {
	p := sweepPass{specs: specs}
	if err := p.run(); err != nil {
		return nil, nil, err
	}
	reports := make([][]byte, len(specs))
	for i := range specs {
		reports[i] = append([]byte(nil), p.report(i)...)
	}
	return p.runs, reports, nil
}

func setupWorkfreeSweep(g *goldenFile) (*instance, *verifier, error) {
	p := &sweepPass{specs: sweepSpecs()}
	v, err := newVerifier("sweep", g.Sweep, len(p.specs))
	if err != nil {
		return nil, nil, err
	}
	first := true
	op := func(int) (time.Duration, error) {
		t0 := time.Now()
		if err := p.run(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		for i := range p.specs {
			if err := v.check(i, p.report(i)); err != nil {
				return d, err
			}
		}
		if first {
			first = false
			if err := checkSimStats(g, simStats(p.specs, p.runs)); err != nil {
				return d, err
			}
		}
		return d, nil
	}
	for i := 0; i < sweepWarmPasses; i++ {
		if _, err := op(0); err != nil {
			return nil, nil, err
		}
	}
	return &instance{clients: 1, op: op, close: func() {}}, v, nil
}

// simStats sums the simulated statistics the per-layer report lists
// over the sweep's cells. They are properties of the modelled
// machines, not of the host: they repeat exactly, and a change meant
// only to speed the simulator up must leave each one identical.
func simStats(specs []experiments.RunSpec, runs []*metrics.Run) map[string]float64 {
	s := map[string]float64{}
	var dashTasks, dashOnTarget float64
	for i, r := range runs {
		s["sim.exec_s_sum"] += r.ExecTime
		s["jade.sweep_tasks"] += float64(r.TaskCount)
		s["fuse.tasks_fused"] += float64(r.TasksFused)
		s["fuse.msgs_coalesced"] += float64(r.MsgsCoalesced)
		s["fault.retransmits"] += float64(r.MsgRetransmits)
		switch specs[i].Machine {
		case "ipsc":
			s["ipsc.msgs"] += float64(r.MsgCount)
			s["ipsc.msg_bytes"] += float64(r.MsgBytes)
		case "dash":
			s["dash.remote_bytes"] += float64(r.RemoteBytes)
			dashTasks += float64(r.TaskCount)
			dashOnTarget += float64(r.TasksOnTarget)
		case "pgas":
			s["pgas.remote_gets"] += float64(r.RemoteGets)
			s["pgas.aggregated_msgs"] += float64(r.AggregatedMsgs)
		}
	}
	s["dash.locality_pct"] = 100 * dashOnTarget / dashTasks
	return s
}

func checkSimStats(g *goldenFile, got map[string]float64) error {
	if len(got) != len(g.SimStats) {
		return fmt.Errorf("sim stats: %d sums, golden.json records %d", len(got), len(g.SimStats))
	}
	for name, want := range g.SimStats {
		if got[name] != want {
			return fmt.Errorf("sim stats: %s = %v, golden %v", name, got[name], want)
		}
	}
	return nil
}
