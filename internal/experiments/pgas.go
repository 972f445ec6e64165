package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/table"
)

// This file is the three-machine comparison study (ROADMAP item 3):
// every application — the paper's four plus the irregular SpMV
// workload — on DASH, the iPSC/860, and the PGAS machine, asking
// which of the paper's optimizations still move the needle on a
// modern partitioned-global-address-space fabric. It is exposed two
// ways: the registered "pgas-compare" experiment renders the table,
// and BuildPgasReport emits the jade-pgas/v1 JSON document
// (jadebench -pgas-report; schema in EXPERIMENTS.md).

// PgasSchema identifies the JSON layout of PgasReport.
const PgasSchema = "jade-pgas/v1"

// pgasComparePct is the benefit threshold (percent of the baseline
// execution time) above which an optimization is judged to transfer.
const pgasComparePct = 1.0

func init() {
	register("pgas-compare",
		"Three Machines: DASH vs iPSC/860 vs PGAS (all apps, 8 processors)",
		func(Scale) []RunSpec { specs, _ := pgasLayout(); return specs }, pgasCompare)
}

// PgasCell is one app × machine cell of the comparison grid.
type PgasCell struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	Level   string `json:"level"`
	// Aggregation echoes the PGAS aggregation toggle (pgas cells
	// only).
	Aggregation      *bool   `json:"aggregation,omitempty"`
	ExecTimeSec      float64 `json:"exec_time_sec"`
	MsgCount         int64   `json:"msg_count"`
	MsgBytes         int64   `json:"msg_bytes"`
	RemoteGets       int64   `json:"remote_gets,omitempty"`
	RemotePuts       int64   `json:"remote_puts,omitempty"`
	AggregatedMsgs   int64   `json:"aggregated_msgs,omitempty"`
	AggBenefitBytes  int64   `json:"agg_benefit_bytes,omitempty"`
	LocalityPct      float64 `json:"locality_pct"`
	CommCompMBPerSec float64 `json:"comm_comp_mb_per_sec"`
}

// PgasAggregation is the SpMV aggregation study: the same irregular
// run with the coalescing layer on and off, plus the list of regular
// apps whose runs the toggle provably does not change.
type PgasAggregation struct {
	App             string  `json:"app"`
	MsgCountOn      int64   `json:"msg_count_on"`
	MsgCountOff     int64   `json:"msg_count_off"`
	MsgBytesOn      int64   `json:"msg_bytes_on"`
	MsgBytesOff     int64   `json:"msg_bytes_off"`
	ExecOnSec       float64 `json:"exec_on_sec"`
	ExecOffSec      float64 `json:"exec_off_sec"`
	AggregatedMsgs  int64   `json:"aggregated_msgs"`
	AggBenefitBytes int64   `json:"agg_benefit_bytes"`
	// NeutralApps lists the apps whose full metrics report is
	// byte-identical with the toggle off — regular access patterns
	// (at most one remote get per task under affinity scheduling)
	// give the aggregation layer nothing to coalesce.
	NeutralApps []string `json:"neutral_apps"`
}

// PgasTransfer is one row of the which-optimizations-transfer study:
// the execution-time benefit of enabling one optimization for one app
// on one machine.
type PgasTransfer struct {
	Optimization string  `json:"optimization"`
	App          string  `json:"app"`
	Machine      string  `json:"machine"`
	WithSec      float64 `json:"with_sec"`
	WithoutSec   float64 `json:"without_sec"`
	BenefitSec   float64 `json:"benefit_sec"`
	BenefitPct   float64 `json:"benefit_pct"`
	Transfers    bool    `json:"transfers"`
}

// PgasReport is the jade-pgas/v1 document.
type PgasReport struct {
	Schema          string          `json:"schema"`
	Scale           string          `json:"scale"`
	Procs           int             `json:"procs"`
	Cells           []PgasCell      `json:"cells"`
	SpMVAggregation PgasAggregation `json:"spmv_aggregation"`
	Transfers       []PgasTransfer  `json:"transfers"`
}

// WriteJSON writes the report as indented JSON.
func (r *PgasReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// pgasApps is the comparison's app list: the paper's four plus SpMV.
func pgasApps() []*appSpec { return append(append([]*appSpec(nil), allApps...), spmvApp) }

// pgasMachines is the comparison's machine list.
var pgasMachines = []string{"dash", "ipsc", "pgas"}

// defaultLevelOf is the highest locality level the app supports.
func defaultLevelOf(a *appSpec) string {
	if a.hasPlacement {
		return LevelPlacement
	}
	return LevelLocality
}

// pgasSlots indexes the comparison's flat cell list.
type pgasSlots struct {
	grid                          [][]int // [app][machine], default level
	aggOff                        []int   // [app], pgas with aggregation off
	oceanLoc, oceanNone, spmvNone []int   // [machine]
}

// pgasLayout lists the comparison's cells and where each part sits.
func pgasLayout() ([]RunSpec, pgasSlots) {
	apps := pgasApps()
	off := false
	var specs []RunSpec
	var at pgasSlots
	add := func(s RunSpec) int {
		s.Procs = instrumentedProcs
		specs = append(specs, s)
		return len(specs) - 1
	}

	// The grid: every app on every machine at its default level.
	at.grid = make([][]int, len(apps))
	for i, a := range apps {
		for _, machine := range pgasMachines {
			at.grid[i] = append(at.grid[i], add(RunSpec{App: a.key, Machine: machine, Level: defaultLevelOf(a)}))
		}
	}
	// Every app on pgas with aggregation off: the SpMV pair feeds the
	// aggregation study, the regular apps the neutrality check.
	for _, a := range apps {
		at.aggOff = append(at.aggOff, add(RunSpec{App: a.key, Machine: "pgas", Level: defaultLevelOf(a), Aggregation: &off}))
	}
	// The transfer study's extra baselines: locality vs none for one
	// regular app with placement (ocean) and the irregular one (spmv),
	// on every machine.
	for _, machine := range pgasMachines {
		at.oceanLoc = append(at.oceanLoc, add(RunSpec{App: "ocean", Machine: machine, Level: LevelLocality}))
		at.oceanNone = append(at.oceanNone, add(RunSpec{App: "ocean", Machine: machine, Level: LevelNone}))
		at.spmvNone = append(at.spmvNone, add(RunSpec{App: "spmv", Machine: machine, Level: LevelNone}))
	}
	return specs, at
}

// BuildPgasReport runs the three-machine comparison at one scale on
// the runner's pool and assembles the jade-pgas/v1 document, which is
// byte-identical at any width.
func BuildPgasReport(r Runner, scale Scale) (*PgasReport, error) {
	specs, _ := pgasLayout()
	runs, err := r.ExecuteRuns(specs, scale)
	if err != nil {
		return nil, err
	}
	return pgasReport(scale, runs)
}

// pgasReport assembles the document from the runs of pgasLayout's cells.
func pgasReport(scale Scale, runs []*metrics.Run) (*PgasReport, error) {
	apps := pgasApps()
	_, at := pgasLayout()
	rep := &PgasReport{Schema: PgasSchema, Scale: string(scale), Procs: instrumentedProcs}
	aggOn := true
	for i, a := range apps {
		for j, machine := range pgasMachines {
			r := runs[at.grid[i][j]]
			cell := PgasCell{
				App: a.key, Machine: machine, Procs: instrumentedProcs,
				Level:            defaultLevelOf(a),
				ExecTimeSec:      r.ExecTime,
				MsgCount:         r.MsgCount,
				MsgBytes:         r.MsgBytes,
				RemoteGets:       r.RemoteGets,
				RemotePuts:       r.RemotePuts,
				AggregatedMsgs:   r.AggregatedMsgs,
				AggBenefitBytes:  r.AggBenefitBytes,
				LocalityPct:      r.LocalityPct(),
				CommCompMBPerSec: r.CommCompRatio(),
			}
			if machine == "pgas" {
				cell.Aggregation = &aggOn
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}

	// Aggregation study: SpMV on/off plus the neutrality list.
	spmvI := len(apps) - 1
	on := runs[at.grid[spmvI][2]]
	offRun := runs[at.aggOff[spmvI]]
	rep.SpMVAggregation = PgasAggregation{
		App:             "spmv",
		MsgCountOn:      on.MsgCount,
		MsgCountOff:     offRun.MsgCount,
		MsgBytesOn:      on.MsgBytes,
		MsgBytesOff:     offRun.MsgBytes,
		ExecOnSec:       on.ExecTime,
		ExecOffSec:      offRun.ExecTime,
		AggregatedMsgs:  on.AggregatedMsgs,
		AggBenefitBytes: on.AggBenefitBytes,
	}
	var onJSON, offJSON bytes.Buffer
	for i, a := range apps[:spmvI] {
		onJSON.Reset()
		offJSON.Reset()
		if err := runs[at.grid[i][2]].WriteJSON(&onJSON); err != nil {
			return nil, err
		}
		if err := runs[at.aggOff[i]].WriteJSON(&offJSON); err != nil {
			return nil, err
		}
		if bytes.Equal(onJSON.Bytes(), offJSON.Bytes()) {
			rep.SpMVAggregation.NeutralApps = append(rep.SpMVAggregation.NeutralApps, a.key)
		}
	}

	// Which optimizations transfer: enabling each against its
	// baseline, per machine.
	transfer := func(opt, app, machine string, with, without *metrics.Run) {
		benefit := without.ExecTime - with.ExecTime
		pct := 0.0
		if without.ExecTime > 0 {
			pct = benefit / without.ExecTime * 100
		}
		rep.Transfers = append(rep.Transfers, PgasTransfer{
			Optimization: opt, App: app, Machine: machine,
			WithSec: with.ExecTime, WithoutSec: without.ExecTime,
			BenefitSec: benefit, BenefitPct: pct,
			Transfers: pct >= pgasComparePct,
		})
	}
	oceanI := 2 // allApps order: water, string, ocean, cholesky
	for j, machine := range pgasMachines {
		transfer("locality scheduling", "ocean", machine, runs[at.oceanLoc[j]], runs[at.oceanNone[j]])
	}
	for j, machine := range pgasMachines {
		transfer("task placement", "ocean", machine, runs[at.grid[oceanI][j]], runs[at.oceanLoc[j]])
	}
	for j, machine := range pgasMachines {
		transfer("locality scheduling", "spmv", machine, runs[at.grid[spmvI][j]], runs[at.spmvNone[j]])
	}
	transfer("remote-get aggregation", "spmv", "pgas", on, offRun)
	return rep, nil
}

// pgasCompare renders the comparison as the registered experiment.
func pgasCompare(scale Scale, runs []*metrics.Run) *Result {
	rep, err := pgasReport(scale, runs)
	if err != nil {
		panic(fmt.Sprintf("experiments: pgas comparison failed: %v", err))
	}
	head := []string{"app", "machine", "exec (s)", "msgs", "msg KB", "gets", "puts", "agg msgs", "locality %"}
	var rows [][]string
	for _, c := range rep.Cells {
		rows = append(rows, []string{
			c.App, c.Machine,
			table.Cell(c.ExecTimeSec),
			fmt.Sprint(c.MsgCount),
			table.Cell(float64(c.MsgBytes) / 1e3),
			fmt.Sprint(c.RemoteGets),
			fmt.Sprint(c.RemotePuts),
			fmt.Sprint(c.AggregatedMsgs),
			fmt.Sprintf("%.0f", c.LocalityPct),
		})
	}
	transfers := 0
	for _, tr := range rep.Transfers {
		if tr.Transfers {
			transfers++
		}
	}
	agg := rep.SpMVAggregation
	return &Result{
		ID: "pgas-compare", Title: registry["pgas-compare"].Title,
		Head: head, Rows: rows,
		Notes: fmt.Sprintf("SpMV aggregation on pgas: %d msgs vs %d off (%d coalesced, %d header bytes saved, "+
			"exec %s s vs %s s); aggregation-neutral apps: %v; %d/%d optimization/app/machine "+
			"combinations transfer (>=%.0f%% benefit) — see jadebench -pgas-report for the full jade-pgas/v1 document",
			agg.MsgCountOn, agg.MsgCountOff, agg.AggregatedMsgs, agg.AggBenefitBytes,
			table.Cell(agg.ExecOnSec), table.Cell(agg.ExecOffSec),
			agg.NeutralApps, transfers, len(rep.Transfers), pgasComparePct),
	}
}
