package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fuse"
	"repro/internal/ipsc"
	"repro/internal/jade"
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
	register("granularity-sweep",
		"Granularity: task size vs fusion and coalescing (iPSC/860 and PGAS, 8 processors)",
		granCells, granularitySweep)
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

// granularityProgram runs the workload at one task size: per round,
// every block runs C consecutive read-modify-write steps on its own
// state object (the first step also reading the block's ghosts), then a
// serial phase rewrites every ghost on the main processor. Step tasks
// within a block are exactly the chains the fusion pass targets — same
// placement, nested access sets, conflicting on the block state — while
// the first step's G ghost fetches all come from the main node, which
// is what coalescing batches.
func granularityProgram(rt *jade.Runtime, sh granShape, w float64) {
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

// granApp is the program at one task size as an app, which a variant
// carries into a RunSpec: its graph is captured and cached like any
// app's, and its fused cells fuse the timed graph under
// granFuseOptions. The program places every task itself, so the iPSC's
// Task Placement cells and PGAS's Affinity cells replay one graph.
func granApp(w float64) *appSpec {
	opts := granFuseOptions()
	key := fmt.Sprintf("granularity %gµs", w*1e6)
	return &appSpec{
		name: key, key: key, hasPlacement: true, placed: true,
		run: func(rt *jade.Runtime, scale Scale, _ bool) {
			granularityProgram(rt, granShapeFor(scale), w)
		},
		fuse: &opts,
	}
}

// granFuseOptions is the pass configuration the sweep fuses with. The
// work ceiling is the coarsest grid point: the sweep's question is what
// fusing does at each granularity, so the pass must engage across the
// whole grid rather than stop at the default production ceiling.
func granFuseOptions() fuse.Options {
	return fuse.Options{MaxChain: 64, MaxWork: granSizes[len(granSizes)-1]}
}

// granMachines is the sweep's machine list: the two message-passing
// models with a coalescing layer. (DASH has no messages to coalesce.)
var granMachines = []string{"ipsc", "pgas"}

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

// granKnobs enumerates the knob grid in report order.
var granKnobs = []struct {
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

// granCells lists the sweep's cells in report order: machine, then
// knob combination, then task size. The coalescing knob is
// ipsc.Config.Coalescing on the iPSC, at the Task Placement level, and
// the aggregation layer on PGAS, at the Affinity level.
func granCells(Scale) []RunSpec {
	var cells []RunSpec
	for _, machine := range granMachines {
		for _, k := range granKnobs {
			for i := range granSizes {
				s := RunSpec{App: "granularity", Machine: machine, Procs: instrumentedProcs,
					Fusion: k.fusion, variant: granVariant + variantID(i)}
				if machine == "ipsc" {
					s.Level, s.Coalescing = LevelPlacement, k.coalescing
				} else {
					agg := k.coalescing
					s.Level, s.Aggregation = LevelLocality, &agg
				}
				cells = append(cells, s)
			}
		}
	}
	return cells
}

// BuildGranularityReport runs the sweep's cells at one scale on the
// runner's pool and assembles the jade-granularity/v1 document, which
// is byte-identical at any width.
func BuildGranularityReport(runner Runner, scale Scale) *GranularityReport {
	runs, err := runner.ExecuteRuns(granCells(scale), scale)
	if err != nil {
		panic(fmt.Sprintf("experiments: granularity-sweep built an invalid cell: %v", err))
	}
	return granularityReport(scale, runs)
}

// granularityReport assembles the document from the runs of granCells.
func granularityReport(scale Scale, runs []*metrics.Run) *GranularityReport {
	sh := granShapeFor(scale)
	rep := &GranularityReport{
		Schema: GranularitySchema, Scale: string(scale), Procs: instrumentedProcs,
		TaskSizesSec: append([]float64(nil), granSizes...),
	}
	for k, s := range granCells(scale) {
		w, coalescing := granSizes[s.variant-granVariant], s.Coalescing || s.Aggregation != nil && *s.Aggregation
		r := runs[k]
		serial := granSerialTime(sh, w, granSpeed(s.Machine))
		speedup := 0.0
		if r.ExecTime > 0 {
			speedup = serial / r.ExecTime
		}
		// On PGAS the coalescing layer is the aggregation layer, so
		// its wins land in AggregatedMsgs; fold them into the cell's
		// coalescing counter so the column means the same thing on
		// both machines.
		rep.Cells = append(rep.Cells, GranularityCell{
			Machine: s.Machine, TaskWorkSec: w,
			Fusion: s.Fusion, Coalescing: coalescing,
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
	for _, row := range granRows(rep.Cells) {
		x := GranularityCrossover{Machine: row[0].Machine, Fusion: row[0].Fusion, Coalescing: row[0].Coalescing}
		for _, c := range row {
			if c.ExecTimeSec < c.SerialTimeSec {
				x.CrossoverWorkSec = c.TaskWorkSec
				break
			}
		}
		rep.Crossovers = append(rep.Crossovers, x)
	}
	return rep
}

// granRows splits the report's cells into one row per machine and knob
// combination, each over the task-size grid.
func granRows(cells []GranularityCell) [][]GranularityCell {
	var rows [][]GranularityCell
	for i := 0; i < len(cells); i += len(granSizes) {
		rows = append(rows, cells[i:i+len(granSizes)])
	}
	return rows
}

// granKnobLabel names a knob combination for table rows.
func granKnobLabel(fusion, coalescing bool) string {
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
func granularitySweep(scale Scale, runs []*metrics.Run) *Result {
	rep := granularityReport(scale, runs)
	head := []string{"machine", "variant"}
	for _, w := range rep.TaskSizesSec {
		head = append(head, fmt.Sprintf("%gµs", w*1e6))
	}
	var rows [][]string
	for _, cells := range granRows(rep.Cells) {
		row := []string{cells[0].Machine, granKnobLabel(cells[0].Fusion, cells[0].Coalescing)}
		for _, c := range cells {
			row = append(row, table.Cell(c.ExecTimeSec))
		}
		rows = append(rows, row)
	}
	var notes string
	for _, x := range rep.Crossovers {
		notes += fmt.Sprintf("%s/%s crossover %gµs; ",
			x.Machine, granKnobLabel(x.Fusion, x.Coalescing), x.CrossoverWorkSec*1e6)
	}
	notes += "execution time per task size (s); crossover = smallest task size where 8 processors beat the analytic serial time — see jadebench -granularity-report for the full jade-granularity/v1 document"
	return &Result{
		ID: "granularity-sweep", Title: registry["granularity-sweep"].Title,
		Head: head, Rows: rows, Notes: notes,
	}
}
