package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fuse"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/metrics"
	"repro/internal/table"
)

// Span names of the batch rebuilds. A machine's callbacks are named
// "<machine>.handler".
const (
	spanOp       = "op"
	spanFrontEnd = "apps.frontend"
	spanRender   = "table.render"
	spanReplay   = "graph.replay"
	spanReport   = "metrics.report"
	handlerSpan  = ".handler"
)

// Iterations of a batch slice when it is not the run's own workload.
const (
	paperShortIters = 3
	sweepShortIters = 10
)

// batchLoop is the loop both batch slices run: each iteration runs the
// real op (checked against golden.json), the rebuilt op on bare
// machines, and the rebuilt op with tracing on, one after the other so
// that slow drift of the host hits all three alike.
type batchLoop struct {
	realCPU, bareCPU, bare, traced []float64 // milliseconds per op
	mem                            memDelta
}

func (e *tracedEnv) runBatchLoop(b budget, inst *instance, rec *recorder, rebuild func(op int, rec *recorder) error) (*batchLoop, error) {
	l := &batchLoop{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	err := b.iterate(func(i int) error {
		c0 := processCPU()
		_, err := inst.op(0)
		l.realCPU = append(l.realCPU, ms(processCPU()-c0))
		e.check(err)

		c0, t0 := processCPU(), time.Now()
		if err := rebuild(i, nil); err != nil {
			return err
		}
		l.bare = append(l.bare, ms(time.Since(t0)))
		l.bareCPU = append(l.bareCPU, ms(processCPU()-c0))

		t0 = time.Now()
		if err := rebuild(i, rec); err != nil {
			return err
		}
		l.traced = append(l.traced, ms(time.Since(t0)))
		return nil
	})
	l.mem = memSince(&before)
	return l, err
}

// ---- paper-tables ----

// paperProcs is the paper's processor sweep, frozen here like every
// other input.
var paperProcs = []int{1, 2, 4, 8, 16, 24, 32}

// paperCell is one simulated run behind one number of one table.
type paperCell struct {
	spec            experiments.RunSpec
	table, row, col int
}

// paperCells lists the cells of Tables 2-5 (DASH, one row a level,
// highest first), 7-10 (the same on the iPSC/860) and 11-14 (iPSC/860
// at the app's highest level, adaptive broadcast on then off).
func paperCells() []paperCell {
	var cells []paperCell
	on, off := true, false
	for ti := range tableIDs {
		al := appLevels[ti%4]
		top := len(al.levels) - 1
		addRow := func(row int, machine, level string, broadcast *bool) {
			for col, procs := range paperProcs {
				cells = append(cells, paperCell{table: ti, row: row, col: col, spec: experiments.RunSpec{
					App: al.app, Machine: machine, Procs: procs, Level: level, AdaptiveBroadcast: broadcast,
				}})
			}
		}
		switch ti / 4 {
		case 0, 1:
			for row := range al.levels {
				addRow(row, []string{"dash", "ipsc"}[ti/4], al.levels[top-row], nil)
			}
		case 2:
			addRow(0, "ipsc", al.levels[top], &on)
			addRow(1, "ipsc", al.levels[top], &off)
		}
	}
	for i := range cells {
		if err := cells[i].spec.Canonicalize(); err != nil {
			panic(fmt.Sprintf("bench: paper cell %d: %v", i, err))
		}
	}
	return cells
}

// paperRebuild regenerates the twelve tables cell by cell on one
// goroutine: machine model, runtime and app front-end called directly.
type paperRebuild struct {
	cells  []paperCell
	front  []func(*jade.Runtime)
	tables []experiments.Result // title, head and row labels from the real tables; numbers blank
	want   [][]byte             // the real rendering, checked against golden.json
	tasks  int                  // simulated tasks in one pass
}

func newPaperRebuild(v *verifier) (*paperRebuild, error) {
	r := &paperRebuild{cells: paperCells(), want: v.ref}
	for _, id := range tableIDs {
		res, err := experiments.Run(id, experiments.Small)
		if err != nil {
			return nil, err
		}
		if len(res.Head) != 1+len(paperProcs) {
			return nil, fmt.Errorf("%s has %d columns, the frozen sweep has %d", id, len(res.Head)-1, len(paperProcs))
		}
		t := experiments.Result{ID: res.ID, Title: res.Title, Head: res.Head, Notes: res.Notes}
		for _, row := range res.Rows {
			blank := make([]string, len(row))
			blank[0] = row[0]
			t.Rows = append(t.Rows, blank)
		}
		r.tables = append(r.tables, t)
	}
	for i := range r.cells {
		c := &r.cells[i]
		if c.row >= len(r.tables[c.table].Rows) {
			return nil, fmt.Errorf("%s has %d rows, cell list expects more", tableIDs[c.table], len(r.tables[c.table].Rows))
		}
		r.front = append(r.front, frontEnd(c.spec.App, c.spec.Level == experiments.LevelPlacement))
	}
	return r, nil
}

// rebuild runs one pass; rec nil runs it on bare machines with no
// spans.
func (r *paperRebuild) rebuild(op int, rec *recorder) error {
	root := -1
	if rec != nil {
		root = rec.begin(spanOp, op, -1)
	}
	r.tasks = 0
	for i := range r.cells {
		c := &r.cells[i]
		var (
			p    jade.Platform = newMachine(&c.spec)
			tp   *timedPlatform
			cell int
		)
		if rec != nil {
			tp = newTimedPlatform(p, rec.now)
			p = tp
			cell = rec.begin(spanFrontEnd, op, root)
		}
		rt := jade.New(p, jade.Config{})
		r.front[i](rt)
		run := rt.Finish()
		if rec != nil {
			rec.end(cell)
			rec.addCoalesced(tp, c.spec.Machine+handlerSpan, cell, rec.start(cell))
		}
		r.tables[c.table].Rows[c.row][1+c.col] = table.Cell(run.ExecTime)
		r.tasks += run.TaskCount
	}
	for ti := range r.tables {
		id := -1
		if rec != nil {
			id = rec.begin(spanRender, op, root)
		}
		var sb strings.Builder
		r.tables[ti].Render(&sb)
		if rec != nil {
			rec.end(id)
		}
		if sb.String() != string(r.want[ti]) {
			return fmt.Errorf("rebuilt %s differs from experiments.Run's rendering", tableIDs[ti])
		}
	}
	if rec != nil {
		rec.end(root)
	}
	return nil
}

// bodyMS estimates the host time one pass spends in task bodies: per
// distinct front-end build, the capture that runs bodies minus the one
// that strips them (the recorder runs bodies serially, so the
// difference is theirs), summed over the cells that build it.
func (r *paperRebuild) bodyMS() float64 {
	type key struct {
		app   string
		procs int
		place bool
	}
	est := map[key]float64{}
	total := 0.0
	for i := range r.cells {
		s := &r.cells[i].spec
		k := key{s.App, s.Procs, s.Level == experiments.LevelPlacement}
		if _, ok := est[k]; !ok {
			var diffs []float64
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				graph.Capture(s.Procs, false, r.front[i])
				full := time.Since(t0)
				t0 = time.Now()
				graph.Capture(s.Procs, true, r.front[i])
				diffs = append(diffs, ms(full-time.Since(t0)))
			}
			est[k] = max(median(diffs), 0)
		}
		total += est[k]
	}
	return total
}

func tracedPaperTables(e *tracedEnv) error {
	inst, v, err := setupPaperTables(e.g)
	if err != nil {
		return err
	}
	r, err := newPaperRebuild(v)
	if err != nil {
		return err
	}
	rec := e.recorder(wPaperTables)
	l, err := e.runBatchLoop(e.budget(wPaperTables, paperShortIters), inst, rec, r.rebuild)
	if err != nil {
		return err
	}
	layers := layerMedians(rec.spans)
	op, body := median(l.traced), r.bodyMS()
	e.set("apps.body_ms", body)
	e.set("apps.body_share", body/op)
	e.set("apps.frontend_ms", layers[spanFrontEnd])
	e.set("machines.paper_callback_ms", layers["dash"+handlerSpan]+layers["ipsc"+handlerSpan])
	e.set("table.render_ms", layers[spanRender])
	e.set("jade.paper_tasks", float64(r.tasks))
	e.set("experiments.paper_residual_ms", median(l.realCPU)-median(l.bareCPU))
	if e.home(wPaperTables) {
		e.setTraceMetrics(op, median(l.bare), layers[spanOp])
		e.setGoMetrics(l.mem)
	}
	return nil
}

// ---- workfree-sweep ----

// sweepGroup is the cells that replay one captured graph together, as
// the experiments runner groups them.
type sweepGroup struct {
	g     *graph.Graph
	fused *graph.FuseStats // nil for an unfused group
	cells []int
}

// sweepRebuild runs the sweep from the layers' entry points: capture
// each graph once, then per pass one VariantSet per group and one
// report per run.
type sweepRebuild struct {
	specs     []experiments.RunSpec
	groups    []sweepGroup
	want      [][]byte
	runs      []*metrics.Run
	buf       bytes.Buffer
	captureMS float64
	captures  int
	fuseMS    float64
}

func newSweepRebuild(v *verifier) (*sweepRebuild, error) {
	r := &sweepRebuild{specs: sweepSpecs(), want: v.ref}
	r.runs = make([]*metrics.Run, len(r.specs))
	type graphKey struct {
		app   string
		procs int
		place bool
	}
	type groupKey struct {
		graphKey
		fused bool
	}
	graphs := map[graphKey]*graph.Graph{}
	groupIndex := map[groupKey]int{}
	for i := range r.specs {
		s := &r.specs[i]
		gk := graphKey{s.App, s.Procs, s.Level == experiments.LevelPlacement}
		g := graphs[gk]
		if g == nil {
			t0 := time.Now()
			g = graph.Capture(s.Procs, true, frontEnd(gk.app, gk.place))
			r.captureMS += ms(time.Since(t0))
			r.captures++
			graphs[gk] = g
		}
		k := groupKey{gk, s.Fusion}
		gi, ok := groupIndex[k]
		if !ok {
			grp := sweepGroup{g: g}
			if s.Fusion {
				t0 := time.Now()
				fg, st, err := g.Fuse(fuse.DefaultOptions())
				r.fuseMS += ms(time.Since(t0))
				if err != nil {
					return nil, err
				}
				grp.g, grp.fused = fg, &st
			}
			gi = len(r.groups)
			groupIndex[k] = gi
			r.groups = append(r.groups, grp)
		}
		r.groups[gi].cells = append(r.groups[gi].cells, i)
	}
	return r, nil
}

// variants builds a group's replay variants. With a recorder, every
// machine is wrapped and tps holds each variant's timed platform (the
// last one its factory made: a variant that falls back to sequential
// replay makes two); without, the machines are bare and tps is nil.
func (r *sweepRebuild) variants(grp *sweepGroup, rec *recorder) (vars []graph.Variant, tps []*timedPlatform) {
	vars = make([]graph.Variant, len(grp.cells))
	if rec != nil {
		tps = make([]*timedPlatform, len(grp.cells))
	}
	for k, ci := range grp.cells {
		spec := &r.specs[ci]
		vars[k] = graph.Variant{
			Cfg:        jade.Config{WorkFree: true},
			Sequential: spec.Fault != nil,
			Platform: func() jade.Platform {
				m := newMachine(spec)
				if rec == nil {
					return m
				}
				tps[k] = newTimedPlatform(m, rec.now)
				return tps[k]
			},
		}
	}
	return vars, tps
}

func (r *sweepRebuild) rebuild(op int, rec *recorder) error {
	root := -1
	if rec != nil {
		root = rec.begin(spanOp, op, -1)
	}
	for gi := range r.groups {
		grp := &r.groups[gi]
		vars, tps := r.variants(grp, rec)
		id := -1
		if rec != nil {
			id = rec.begin(spanReplay, op, root)
		}
		results := graph.NewVariantSet(grp.g, vars).Run()
		var cursor int64
		if rec != nil {
			rec.end(id)
			cursor = rec.start(id)
		}
		for k, ci := range grp.cells {
			if results[k].Err != nil {
				return fmt.Errorf("sweep[%d]: %w", ci, results[k].Err)
			}
			run := results[k].Run
			if grp.fused != nil {
				run.TasksFused = int64(grp.fused.TasksFused)
				run.FusionBenefitBytes = run.TasksFused * fusionBenefitPerTask(r.specs[ci].Machine)
			}
			r.runs[ci] = run
			if rec != nil {
				cursor = rec.addCoalesced(tps[k], r.specs[ci].Machine+handlerSpan, id, cursor)
			}
		}
	}
	for ci, run := range r.runs {
		id := -1
		if rec != nil {
			id = rec.begin(spanReport, op, root)
		}
		r.buf.Reset()
		err := run.WriteJSON(&r.buf)
		if rec != nil {
			rec.end(id)
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(r.buf.Bytes(), r.want[ci]) {
			return fmt.Errorf("rebuilt sweep[%d] report differs from ExecuteRuns's", ci)
		}
	}
	if rec != nil {
		rec.end(root)
	}
	return nil
}

// batchGain is what driving a group's K variants through one pass of
// the op stream saves: the time of K one-variant replays over the time
// of one K-variant replay, summed over the groups.
func (r *sweepRebuild) batchGain() float64 {
	var ratios []float64
	for rep := 0; rep < 3; rep++ {
		var single, batched time.Duration
		for gi := range r.groups {
			grp := &r.groups[gi]
			vars, _ := r.variants(grp, nil)
			t0 := time.Now()
			graph.NewVariantSet(grp.g, vars).Run()
			batched += time.Since(t0)
			t0 = time.Now()
			for k := range vars {
				graph.NewVariantSet(grp.g, vars[k:k+1]).Run()
			}
			single += time.Since(t0)
		}
		ratios = append(ratios, float64(single)/float64(batched))
	}
	return median(ratios)
}

func tracedWorkfreeSweep(e *tracedEnv) error {
	inst, v, err := setupWorkfreeSweep(e.g)
	if err != nil {
		return err
	}
	r, err := newSweepRebuild(v)
	if err != nil {
		return err
	}
	rec := e.recorder(wWorkfreeSweep)
	l, err := e.runBatchLoop(e.budget(wWorkfreeSweep, sweepShortIters), inst, rec, r.rebuild)
	if err != nil {
		return err
	}
	layers := layerMedians(rec.spans)
	tasks := map[string]float64{}
	var reportBytes float64
	for ci, run := range r.runs {
		tasks[r.specs[ci].Machine] += float64(run.TaskCount)
		reportBytes += float64(len(r.want[ci]))
	}
	for _, m := range []string{"dash", "ipsc", "pgas", "cluster"} {
		e.set(m+".handler_ms", layers[m+handlerSpan])
		e.set(m+".ns_per_task", layers[m+handlerSpan]*1e6/tasks[m])
	}
	e.set("graph.capture_ms", r.captureMS)
	e.set("graph.captures", float64(r.captures))
	e.set("graph.fuse_ms", r.fuseMS)
	e.set("graph.replay_self_ms", layers[spanReplay])
	e.set("graph.batch_gain", r.batchGain())
	e.set("metrics.report_us", layers[spanReport]*1e3/float64(len(r.runs)))
	e.set("metrics.report_bytes", reportBytes/float64(len(r.runs)))
	e.set("experiments.runner_residual_ms", median(l.realCPU)-median(l.bareCPU))
	for name, val := range simStats(r.specs, r.runs) {
		e.set(name, val)
	}
	if e.home(wWorkfreeSweep) {
		e.setTraceMetrics(median(l.traced), median(l.bare), layers[spanOp])
		e.setGoMetrics(l.mem)
	}
	return nil
}
