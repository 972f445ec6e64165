package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fuse"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/jade/graph"
	"repro/internal/metrics"
	"repro/internal/pgas"
	"repro/internal/table"
)

// This file is the granularity study behind ROADMAP item 2: a
// synthetic block-iteration workload whose task size sweeps across the
// machines' task-management overhead, run with the fusion and
// coalescing knobs in every combination. The question the paper never
// asks: how small can tasks get before the runtime drowns, and how far
// does an automatic granularity pass move that point? It is exposed
// two ways: the registered "granularity-sweep" experiment renders the
// table, and BuildGranularityReport emits the jade-granularity/v1
// document (jadebench -granularity-report; schema in EXPERIMENTS.md).

// GranularitySchema identifies the JSON layout of GranularityReport.
const GranularitySchema = "jade-granularity/v1"

func init() {
	registerBespoke("granularity-sweep",
		"Granularity: task size vs fusion and coalescing (iPSC/860 and PGAS, 8 processors)",
		granularitySweep)
}

// granShape sizes the synthetic workload: B blocks iterated for C
// steps per round over R rounds, each block coupled to its neighbors
// through G ghost objects rewritten by a serial phase between rounds.
type granShape struct {
	B, C, R, G int
}

// granShapeFor picks the workload size. Both shapes keep every task
// chain within one block, so the fusion pass's upper bound on a chain
// is C tasks.
func granShapeFor(scale Scale) granShape {
	if scale == PaperScale {
		return granShape{B: 8, C: 16, R: 3, G: 4}
	}
	return granShape{B: 8, C: 8, R: 2, G: 4}
}

// granSizes is the task-size grid in seconds: seven points, geometric
// by 4x, straddling both machines' per-task management costs (~26µs
// on PGAS, ~400µs on the iPSC main node).
var granSizes = []float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1024e-6, 4096e-6}

const (
	// granStateBytes / granGhostBytes size the per-block state object
	// and each ghost object.
	granStateBytes = 512
	granGhostBytes = 128
	// granSerialSec is the serial phase's compute per round
	// (reference-processor seconds).
	granSerialSec = 100e-6
)

// granularityProgram builds the workload closure for one task size:
// per round, every block runs C consecutive read-modify-write steps on
// its own state object (the first step also reading the block's
// ghosts), then a serial phase rewrites every ghost on the main
// processor. Step tasks within a block are exactly the chains the
// fusion pass targets — same placement, nested access sets, conflicting
// on the block state — while the first step's G ghost fetches all come
// from the main node, which is what coalescing batches.
func granularityProgram(sh granShape, w float64) func(*jade.Runtime) {
	return func(rt *jade.Runtime) {
		procs := rt.Processors()
		state := make([]*jade.Object, sh.B)
		ghosts := make([][]*jade.Object, sh.B)
		for b := 0; b < sh.B; b++ {
			state[b] = rt.Alloc(fmt.Sprintf("state%d", b), granStateBytes, nil,
				jade.OnProcessor(b%procs))
			ghosts[b] = make([]*jade.Object, sh.G)
			for g := 0; g < sh.G; g++ {
				ghosts[b][g] = rt.Alloc(fmt.Sprintf("ghost%d.%d", b, g), granGhostBytes, nil,
					jade.OnProcessor(b%procs))
			}
		}
		for r := 0; r < sh.R; r++ {
			for b := 0; b < sh.B; b++ {
				for c := 0; c < sh.C; c++ {
					accs := make([]jade.Access, 0, 1+sh.G)
					accs = append(accs, jade.Access{Obj: state[b], Mode: jade.Read | jade.Write})
					if c == 0 {
						for _, gh := range ghosts[b] {
							accs = append(accs, jade.Access{Obj: gh, Mode: jade.Read})
						}
					}
					rt.WithAccesses(accs, w, nil, jade.PlaceOn(b%procs))
				}
			}
			rt.Wait()
			saccs := make([]jade.Access, 0, sh.B*sh.G)
			for b := 0; b < sh.B; b++ {
				for _, gh := range ghosts[b] {
					saccs = append(saccs, jade.Access{Obj: gh, Mode: jade.Write})
				}
			}
			rt.SerialAccesses(granSerialSec, nil, saccs)
		}
	}
}

// granFuseOptions is the pass configuration the sweep fuses with. The
// work ceiling is the coarsest grid point: the sweep's question is what
// fusing does at each granularity, so the pass must engage across the
// whole grid rather than stop at the default production ceiling.
func granFuseOptions() fuse.Options {
	return fuse.Options{MaxChain: 64, MaxWork: granSizes[len(granSizes)-1]}
}

// granGraph returns the captured workload graph for one task size.
// Bodies are nil and work is real (workFree=false), so the capture
// replays with the full machine cost model.
func granGraph(scale Scale, w float64) *graph.Graph {
	key := cacheKey{kind: kindGranGraph, scale: scale, procs: instrumentedProcs, work: w}
	return sharedCache.get(key, func() any {
		return graph.Capture(instrumentedProcs, false, granularityProgram(granShapeFor(scale), w))
	}).(*graph.Graph)
}

// granFusedGraph returns the fusion pass's output for one task size.
func granFusedGraph(scale Scale, w float64) fusedEntry {
	key := cacheKey{kind: kindGranFused, scale: scale, procs: instrumentedProcs, work: w}
	return sharedCache.get(key, func() any {
		g, st, _ := granGraph(scale, w).Fuse(granFuseOptions())
		return fusedEntry{g: g, st: st}
	}).(fusedEntry)
}

// granMachines is the sweep's machine list: the two message-passing
// models with a coalescing layer. (DASH has no messages to coalesce.)
var granMachines = []string{"ipsc", "pgas"}

// granPlatform builds one machine with the coalescing knob applied —
// ipsc.Config.Coalescing on the iPSC, the aggregation layer on PGAS.
func granPlatform(machine string, coalescing bool) jade.Platform {
	switch machine {
	case "ipsc":
		cfg := ipsc.DefaultConfig(instrumentedProcs, ipsc.TaskPlacement)
		cfg.Coalescing = coalescing
		return ipsc.New(cfg)
	case "pgas":
		cfg := pgas.DefaultConfig(instrumentedProcs, pgas.Affinity)
		cfg.Aggregation = coalescing
		return pgas.New(cfg)
	}
	panic("experiments: unknown granularity machine " + machine)
}

// granSpeed is the machine's processor speed factor, for the analytic
// serial baseline.
func granSpeed(machine string) float64 {
	if machine == "ipsc" {
		return ipsc.DefaultConfig(1, ipsc.TaskPlacement).SpeedFactor
	}
	return pgas.DefaultConfig(1, pgas.Affinity).SpeedFactor
}

// granSerialTime is the analytic one-processor time for the workload
// at one task size: all task work plus the serial phases, scaled by
// the machine's processor speed. No task management, no messages —
// the baseline a parallel run must beat for parallelism to pay.
func granSerialTime(sh granShape, w, speed float64) float64 {
	return (float64(sh.R*sh.B*sh.C)*w + float64(sh.R)*granSerialSec) * speed
}

// granVariants enumerates the knob grid in report order.
var granVariants = []struct {
	fusion, coalescing bool
}{
	{false, false}, {false, true}, {true, false}, {true, true},
}

// GranularityCell is one machine × task-size × knob cell of the sweep.
type GranularityCell struct {
	Machine     string  `json:"machine"`
	TaskWorkSec float64 `json:"task_work_sec"`
	Fusion      bool    `json:"fusion"`
	Coalescing  bool    `json:"coalescing"`
	Procs       int     `json:"procs"`
	// TaskCount is the number of scheduled units the machine executed
	// (after fusion, if on).
	TaskCount          int     `json:"task_count"`
	TasksFused         int64   `json:"tasks_fused,omitempty"`
	MsgsCoalesced      int64   `json:"msgs_coalesced,omitempty"`
	FusionBenefitBytes int64   `json:"fusion_benefit_bytes,omitempty"`
	MsgCount           int64   `json:"msg_count"`
	MsgBytes           int64   `json:"msg_bytes"`
	TaskMgmtSec        float64 `json:"task_mgmt_sec"`
	ExecTimeSec        float64 `json:"exec_time_sec"`
	SerialTimeSec      float64 `json:"serial_time_sec"`
	Speedup            float64 `json:"speedup"`
}

// GranularityCrossover is the break-even point for one machine × knob
// variant: the smallest task size on the grid whose parallel execution
// beats the analytic serial time. Zero means parallelism never paid on
// this grid.
type GranularityCrossover struct {
	Machine          string  `json:"machine"`
	Fusion           bool    `json:"fusion"`
	Coalescing       bool    `json:"coalescing"`
	CrossoverWorkSec float64 `json:"crossover_work_sec"`
}

// GranularityReport is the jade-granularity/v1 document.
type GranularityReport struct {
	Schema       string                 `json:"schema"`
	Scale        string                 `json:"scale"`
	Procs        int                    `json:"procs"`
	TaskSizesSec []float64              `json:"task_sizes_sec"`
	Cells        []GranularityCell      `json:"cells"`
	Crossovers   []GranularityCrossover `json:"crossovers"`
}

// WriteJSON writes the report as indented JSON.
func (r *GranularityReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// granCell executes one sweep cell: replay the (optionally fused)
// workload graph on one machine with the coalescing knob set.
func granCell(scale Scale, machine string, w float64, fusion, coalescing bool) *metrics.Run {
	g := granGraph(scale, w)
	var st graph.FuseStats
	if fusion {
		fe := granFusedGraph(scale, w)
		g, st = fe.g, fe.st
	}
	r := replay(g, new(jade.Runtime), granPlatform(machine, coalescing), jade.Config{})
	if fusion {
		stampFusion(r, machine, st)
	}
	accumulateFuse(r)
	return r
}

// BuildGranularityReport runs the sweep at one scale and assembles the
// jade-granularity/v1 document. All cells fan out across the runner's
// pool into pre-indexed slots, so the document is byte-identical at any
// width. The synthetic workload is no app a RunSpec names, so the sweep
// is a bespoke experiment.
func BuildGranularityReport(runner Runner, scale Scale) *GranularityReport {
	sh := granShapeFor(scale)
	type cellKey struct {
		mi, vi, wi int
	}
	var keys []cellKey
	for _, mi := range []int{0, 1} {
		for vi := range granVariants {
			for wi := range granSizes {
				keys = append(keys, cellKey{mi, vi, wi})
			}
		}
	}
	runs := make([]*metrics.Run, len(keys))
	runner.Each(len(keys), func(k int) {
		c := keys[k]
		runs[k] = granCell(scale, granMachines[c.mi], granSizes[c.wi],
			granVariants[c.vi].fusion, granVariants[c.vi].coalescing)
	})

	rep := &GranularityReport{
		Schema: GranularitySchema, Scale: string(scale), Procs: instrumentedProcs,
		TaskSizesSec: append([]float64(nil), granSizes...),
	}
	for k, c := range keys {
		machine, v, w := granMachines[c.mi], granVariants[c.vi], granSizes[c.wi]
		r := runs[k]
		serial := granSerialTime(sh, w, granSpeed(machine))
		speedup := 0.0
		if r.ExecTime > 0 {
			speedup = serial / r.ExecTime
		}
		// On PGAS the coalescing layer is the aggregation layer, so
		// its wins land in AggregatedMsgs; fold them into the cell's
		// coalescing counter so the column means the same thing on
		// both machines.
		rep.Cells = append(rep.Cells, GranularityCell{
			Machine: machine, TaskWorkSec: w,
			Fusion: v.fusion, Coalescing: v.coalescing,
			Procs:              instrumentedProcs,
			TaskCount:          r.TaskCount,
			TasksFused:         r.TasksFused,
			MsgsCoalesced:      r.MsgsCoalesced + r.AggregatedMsgs,
			FusionBenefitBytes: r.FusionBenefitBytes,
			MsgCount:           r.MsgCount,
			MsgBytes:           r.MsgBytes,
			TaskMgmtSec:        r.TaskMgmtTime,
			ExecTimeSec:        r.ExecTime,
			SerialTimeSec:      serial,
			Speedup:            speedup,
		})
	}
	for _, machine := range granMachines {
		for _, v := range granVariants {
			cross := 0.0
			for _, c := range rep.Cells {
				if c.Machine == machine && c.Fusion == v.fusion && c.Coalescing == v.coalescing &&
					c.ExecTimeSec < c.SerialTimeSec {
					cross = c.TaskWorkSec
					break
				}
			}
			rep.Crossovers = append(rep.Crossovers, GranularityCrossover{
				Machine: machine, Fusion: v.fusion, Coalescing: v.coalescing,
				CrossoverWorkSec: cross,
			})
		}
	}
	return rep
}

// granVariantLabel names a knob combination for table rows.
func granVariantLabel(fusion, coalescing bool) string {
	switch {
	case fusion && coalescing:
		return "fuse+coalesce"
	case fusion:
		return "fuse"
	case coalescing:
		return "coalesce"
	}
	return "off"
}

// granularitySweep renders the sweep as the registered experiment.
func granularitySweep(runner Runner, scale Scale) *Result {
	rep := BuildGranularityReport(runner, scale)
	head := []string{"machine", "variant"}
	for _, w := range rep.TaskSizesSec {
		head = append(head, fmt.Sprintf("%gµs", w*1e6))
	}
	cell := map[string][]string{}
	var order []string
	for _, c := range rep.Cells {
		k := c.Machine + "/" + granVariantLabel(c.Fusion, c.Coalescing)
		if _, ok := cell[k]; !ok {
			order = append(order, k)
			cell[k] = []string{c.Machine, granVariantLabel(c.Fusion, c.Coalescing)}
		}
		cell[k] = append(cell[k], table.Cell(c.ExecTimeSec))
	}
	var rows [][]string
	for _, k := range order {
		rows = append(rows, cell[k])
	}
	var notes string
	for _, x := range rep.Crossovers {
		notes += fmt.Sprintf("%s/%s crossover %gµs; ",
			x.Machine, granVariantLabel(x.Fusion, x.Coalescing), x.CrossoverWorkSec*1e6)
	}
	notes += "execution time per task size (s); crossover = smallest task size where 8 processors beat the analytic serial time — see jadebench -granularity-report for the full jade-granularity/v1 document"
	return &Result{
		ID: "granularity-sweep", Title: registry["granularity-sweep"].Title,
		Head: head, Rows: rows, Notes: notes,
	}
}
