package experiments

import (
	"fmt"

	"repro/internal/apps/cholesky"
	"repro/internal/ipsc"
	"repro/internal/metrics"
	"repro/internal/table"
)

func init() {
	// ---- Table 1 / Table 6: serial and stripped times ----
	register("table1", "Serial and Stripped Execution Times on DASH (seconds)",
		noCells, serialTable("table1", 1.0))
	register("table6", "Serial and Stripped Execution Times on the iPSC/860 (seconds)",
		noCells, serialTable("table6", ipsc.DefaultConfig(1, ipsc.Locality).SpeedFactor))

	// ---- Tables 2–5: execution times on DASH ----
	for i, a := range allApps {
		id := fmt.Sprintf("table%d", 2+i)
		register(id, fmt.Sprintf("Execution Times for %s on DASH (seconds)", a.name),
			levelSweep(a, "dash"), levelTable(id, a, execTime, ""))
	}

	// ---- Tables 7–10: execution times on the iPSC/860 (baseline:
	// broadcast + replication + concurrent fetch on, latency hiding off) ----
	for i, a := range allApps {
		id := fmt.Sprintf("table%d", 7+i)
		register(id, fmt.Sprintf("Execution Times for %s on the iPSC/860 (seconds)", a.name),
			levelSweep(a, "ipsc"), levelTable(id, a, execTime, ""))
	}

	// ---- Tables 11–14: adaptive broadcast on/off ----
	for i, a := range allApps {
		id := fmt.Sprintf("table%d", 11+i)
		register(id, fmt.Sprintf("Execution Times for %s on the iPSC/860 with/without Adaptive Broadcast (seconds)", a.name),
			broadcastCells(a), variantTable(id, false, "", "Adaptive Broadcast", "No Adaptive Broadcast"))
	}

	// ---- Figures 2–5: task locality percentage on DASH ----
	for i, a := range allApps {
		id := fmt.Sprintf("fig%d", 2+i)
		register(id, fmt.Sprintf("Task Locality Percentage for %s on DASH", a.name),
			levelSweep(a, "dash"), levelTable(id, a, (*metrics.Run).LocalityPct, "task locality %"))
	}

	// ---- Figures 6–9: total task execution time on DASH ----
	for i, a := range allApps {
		id := fmt.Sprintf("fig%d", 6+i)
		register(id, fmt.Sprintf("Total Task Execution Time for %s on DASH (seconds)", a.name),
			levelSweep(a, "dash"), levelTable(id, a, taskExecTime, "task time (s)"))
	}

	// ---- Figures 10–11: task management percentage on DASH ----
	for i, a := range []*appSpec{oceanApp, choleskyApp} {
		id := fmt.Sprintf("fig%d", 10+i)
		register(id, fmt.Sprintf("Task Management Percentage for %s on DASH", a.name),
			mgmtCells(a, "dash"), mgmtFigure(id))
	}

	// ---- Figures 12–15: task locality percentage on the iPSC/860 ----
	for i, a := range allApps {
		id := fmt.Sprintf("fig%d", 12+i)
		register(id, fmt.Sprintf("Task Locality Percentage for %s on the iPSC/860", a.name),
			levelSweep(a, "ipsc"), levelTable(id, a, (*metrics.Run).LocalityPct, "task locality %"))
	}

	// ---- Figures 16–19: communication-to-computation ratio ----
	for i, a := range allApps {
		id := fmt.Sprintf("fig%d", 16+i)
		register(id, fmt.Sprintf("Communication to Computation Ratio for %s on the iPSC/860 (Mbytes/second)", a.name),
			levelSweep(a, "ipsc"), levelTable(id, a, (*metrics.Run).CommCompRatio, "MB / compute s"))
	}

	// ---- Figures 20–21: task management percentage on the iPSC/860 ----
	for i, a := range []*appSpec{oceanApp, choleskyApp} {
		id := fmt.Sprintf("fig%d", 20+i)
		register(id, fmt.Sprintf("Task Management Percentage for %s on the iPSC/860", a.name),
			mgmtCells(a, "ipsc"), mgmtFigure(id))
	}

	// ---- §5.1, §5.4, §5.5 and the design-choice ablations ----
	register("sec5.1", "Replication: read sharing per application (iPSC/860, 8 processors)",
		perApp(func(a *appSpec) RunSpec {
			return RunSpec{App: a.key, Machine: "ipsc", Procs: 8, Level: LevelLocality}
		}), replicationStudy)
	register("sec5.4", "Latency Hiding: target tasks per processor (Panel Cholesky, iPSC/860)",
		latencyHidingCells, variantTable("sec5.4", false,
			"the paper found virtually no effect; see EXPERIMENTS.md for the analysis",
			"target tasks = 1", "target tasks = 2"))
	register("sec5.5", "Concurrent Fetch: object latency / task latency at the highest locality level",
		perApp(func(a *appSpec) RunSpec {
			return RunSpec{App: a.key, Machine: "ipsc", Procs: 8, Level: defaultLevelOf(a)}
		}), concurrentFetchStudy)
	register("ablation-steal", "Ablation: steal from tail vs head of the object task queues (DASH)",
		choleskySweep("dash", noVariant, stealHead),
		variantTable("ablation-steal", false, "", "steal last of last OTQ (paper)", "steal first of first OTQ"))
	register("ablation-locality-policy", "Ablation: locality-object policy (iPSC/860, Panel Cholesky)",
		choleskySweep("ipsc", noVariant, localityLargest, localityFirstWrite),
		variantTable("ablation-locality-policy", true, "",
			"first declared access (paper)", "largest declared object", "first written object"))
	register("ablation-sticky", "Extension (§5.6): scheduler less eager to move tasks off target (iPSC/860)",
		stickyCells, variantTable("ablation-sticky", true, "",
			"Ocean eager (paper)", "Ocean sticky target", "Panel Cholesky eager (paper)", "Panel Cholesky sticky target"))
	register("ablation-ordering", "Ablation: natural vs reverse Cuthill-McKee ordering (Panel Cholesky)",
		choleskyVariantCells(choleskyRCM),
		choleskyAblation("ablation-ordering",
			[]string{"ordering", "nnz(L)", "modeled serial s", "exec 8p (s)", "exec 32p (s)"},
			[2]string{"natural (default)", "reverse Cuthill-McKee"}, choleskyRCM,
			func(a *appSpec, s Scale) []string {
				return []string{fmt.Sprint(choleskyWorkload(a.key, s).Sym.NNZL()), table.Cell(a.serialWork(s))}
			},
			"the paper's BCSSTK15 runs use a pre-ordered matrix; ordering changes the "+
				"panel dependence structure and the total work"))
	register("extension-update", "Extension (§6): eager update protocol vs demand fetch (iPSC/860, broadcast off)",
		updateCells, updateExtension)
	register("extension-portability", "Portability: the same programs on all three machine models (8 processors)",
		portabilityCells, portabilityStudy)
	register("ablation-panels", "Ablation: blind vs supernodal panel partitioning (Panel Cholesky)",
		choleskyVariantCells(choleskySupernodal),
		choleskyAblation("ablation-panels",
			[]string{"partitioning", "panels", "tasks", "exec 8p (s)", "exec 32p (s)"},
			[2]string{"fixed width (paper)", "supernode-aligned"}, choleskySupernodal,
			func(a *appSpec, s Scale) []string {
				w := choleskyWorkload(a.key, s)
				return []string{fmt.Sprint(w.Sym.NumPanels()), fmt.Sprint(cholesky.TaskCount(w))}
			}, ""))
	register("utilization", "Processor utilization breakdown (Ocean, 8 processors)",
		func(Scale) []RunSpec {
			return []RunSpec{
				{App: "ocean", Machine: "dash", Procs: 8, Level: LevelPlacement},
				{App: "ocean", Machine: "ipsc", Procs: 8, Level: LevelPlacement},
			}
		}, utilizationStudy)
}

func taskExecTime(r *metrics.Run) float64 { return r.TaskExecTotal }

// perApp lists one cell per paper application, in paper order.
func perApp(cell func(a *appSpec) RunSpec) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		cells := make([]RunSpec, len(allApps))
		for i, a := range allApps {
			cells[i] = cell(a)
		}
		return cells
	}
}

// noCells is the cell list of an experiment that reads no runs.
func noCells(Scale) []RunSpec { return nil }

// serialTable renders Table 1/6 from operation counts alone: serial and
// stripped times per app, scaled by the machine's processor speed.
func serialTable(id string, speed float64) func(Scale, []*metrics.Run) *Result {
	return func(scale Scale, _ []*metrics.Run) *Result {
		head := []string{""}
		serialRow := []string{"Serial"}
		strippedRow := []string{"Stripped"}
		for _, a := range allApps {
			head = append(head, a.name)
			serialRow = append(serialRow, table.Cell(a.serialWork(scale)*speed))
			strippedRow = append(strippedRow, table.Cell(a.strippedWork(scale)*speed))
		}
		return &Result{ID: id, Title: registry[id].Title, Head: head,
			Rows: [][]string{serialRow, strippedRow},
			Notes: "modeled from operation counts of the two code paths " +
				"(original vs Jade data structures), scaled by the machine's processor speed"}
	}
}

// levelSweep is the (locality level, processors) grid an app is
// evaluated on: Tables 2–5 and Figures 2–9 read the DASH grid, Tables
// 7–10 and Figures 12–19 the iPSC one.
func levelSweep(a *appSpec, machine string) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		lv := levels(a)
		return sweepCells(len(lv), func(r, p int) RunSpec {
			return RunSpec{App: a.key, Machine: machine, Procs: p, Level: lv[r]}
		})
	}
}

// levelTable renders one metric of a level sweep, one row per level;
// a non-empty ylabel adds the figure's plot.
func levelTable(id string, a *appSpec, metric func(*metrics.Run) float64, ylabel string) func(Scale, []*metrics.Run) *Result {
	return func(_ Scale, runs []*metrics.Run) *Result {
		grid := sweepGrid(runs, metric)
		var rows [][]string
		var labels []string
		for r, level := range levels(a) {
			// DASH and the iPSC name their levels alike.
			labels = append(labels, dashLevel(level).String())
			rows = append(rows, sweepRow(labels[r], grid[r]))
		}
		res := &Result{ID: id, Title: registry[id].Title, Head: procHead("level \\ procs"), Rows: rows}
		if ylabel != "" {
			res.Plot = plotOf(res.Title, ylabel, labels, grid)
		}
		return res
	}
}

// broadcastCells is Tables 11–14's grid: adaptive broadcast on (the
// default, so the row is the top row of Tables 7–10) and off, at the
// app's highest locality level.
func broadcastCells(a *appSpec) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		off := false
		return sweepCells(2, func(r, p int) RunSpec {
			s := RunSpec{App: a.key, Machine: "ipsc", Procs: p, Level: defaultLevelOf(a)}
			if r == 1 {
				s.AdaptiveBroadcast = &off
			}
			return s
		})
	}
}

// mgmtCells is Figures 10/11/20/21's grid: the full and the work-free
// run at the Task Placement level.
func mgmtCells(a *appSpec, machine string) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		return sweepCells(2, func(r, p int) RunSpec {
			return RunSpec{App: a.key, Machine: machine, Procs: p, Level: LevelPlacement, WorkFree: r == 1}
		})
	}
}

// mgmtFigure renders the work-free execution time as a percentage of
// the full run.
func mgmtFigure(id string) func(Scale, []*metrics.Run) *Result {
	return func(_ Scale, runs []*metrics.Run) *Result {
		grid := sweepGrid(runs, execTime)
		vals := make([]float64, len(Procs))
		for i := range Procs {
			if full := grid[0][i]; full > 0 {
				vals[i] = 100 * grid[1][i] / full
			}
		}
		rows := [][]string{sweepRow("Task Placement", vals)}
		return &Result{ID: id, Title: registry[id].Title, Head: procHead("level \\ procs"),
			Rows: rows, Plot: plotOf(registry[id].Title, "task mgmt %", []string{"Task Placement"}, [][]float64{vals})}
	}
}

// replicationStudy quantifies §5.1: read sharing and replicated
// copies per application.
func replicationStudy(_ Scale, runs []*metrics.Run) *Result {
	head := []string{"application", "tasks", "object msgs", "replicated reads", "broadcasts"}
	var rows [][]string
	for i, a := range allApps {
		r := runs[i]
		rows = append(rows, []string{a.name,
			fmt.Sprint(r.TaskCount), fmt.Sprint(r.MsgCount),
			fmt.Sprint(r.ReplicatedReads), fmt.Sprint(r.BroadcastCount)})
	}
	return &Result{ID: "sec5.1", Title: registry["sec5.1"].Title, Head: head, Rows: rows,
		Notes: "every application reads at least one object on all processors; " +
			"without replication those reads would serialize (§5.1)"}
}

// latencyHidingCells is §5.4's grid: Panel Cholesky with the target
// number of tasks per processor at one (off) and two (on). Target one
// is the default, so that row is Table 10's Locality row.
func latencyHidingCells(Scale) []RunSpec {
	return sweepCells(2, func(r, p int) RunSpec {
		return RunSpec{App: "cholesky", Machine: "ipsc", Procs: p, Level: LevelLocality, TargetTasks: 2 * r}
	})
}

// concurrentFetchStudy reproduces §5.5: the ratio of object latency to
// task latency at the highest locality optimization level.
func concurrentFetchStudy(_ Scale, runs []*metrics.Run) *Result {
	head := []string{"application", "object msgs", "object/task latency ratio"}
	var rows [][]string
	for i, a := range allApps {
		rows = append(rows, []string{a.name, fmt.Sprint(runs[i].MsgCount),
			table.Cell(runs[i].ObjectToTaskLatencyRatio())})
	}
	return &Result{ID: "sec5.5", Title: registry["sec5.5"].Title, Head: head, Rows: rows,
		Notes: "a ratio near one means almost all tasks fetch at most one remote object " +
			"per communication point, so there is nothing to parallelize (§5.5)"}
}

// utilizationStudy reports the per-processor busy fraction for Ocean
// at the Task Placement level on both machines — the view behind the
// task-management figures: the main processor is busy managing while
// the workers compute.
func utilizationStudy(_ Scale, runs []*metrics.Run) *Result {
	head := []string{"machine"}
	for i := 0; i < 8; i++ {
		head = append(head, fmt.Sprintf("p%d", i))
	}
	var rows [][]string
	for i, name := range []string{"DASH", "iPSC/860"} {
		row := []string{name}
		for _, f := range runs[i].Utilization() {
			row = append(row, fmt.Sprintf("%.0f%%", 100*f))
		}
		rows = append(rows, row)
	}
	return &Result{ID: "utilization", Title: registry["utilization"].Title,
		Head: head, Rows: rows,
		Notes: "p0 is the main processor: task creation/assignment/completion handling " +
			"keep it busy while it executes no application tasks at this level"}
}

// portabilityCells runs every application, unmodified, on the three
// simulated platforms — the paper's portability claim made measurable —
// four cells per app: DASH, iPSC, and the heterogeneous cluster with
// naive and speed-aware scheduling.
func portabilityCells(Scale) []RunSpec {
	var cells []RunSpec
	for _, a := range allApps {
		cells = append(cells,
			RunSpec{App: a.key, Machine: "dash", Procs: 8, Level: LevelLocality},
			RunSpec{App: a.key, Machine: "ipsc", Procs: 8, Level: LevelLocality},
			RunSpec{App: a.key, Machine: "cluster", Procs: 8},
			RunSpec{App: a.key, Machine: "cluster", Procs: 8, SpeedAware: true})
	}
	return cells
}

func portabilityStudy(_ Scale, runs []*metrics.Run) *Result {
	head := []string{"application", "DASH (s)", "iPSC/860 (s)", "cluster (s)", "cluster speed-aware (s)"}
	var rows [][]string
	for i, a := range allApps {
		row := []string{a.name}
		for _, r := range runs[4*i : 4*i+4] {
			row = append(row, table.Cell(r.ExecTime))
		}
		rows = append(rows, row)
	}
	return &Result{ID: "extension-portability", Title: registry["extension-portability"].Title,
		Head: head, Rows: rows,
		Notes: "identical program text on every platform; the cluster's shared 10 Mbit/s " +
			"medium and heterogeneous (1.25x/0.6x) workstations shift the tradeoffs"}
}

// choleskySweep is Panel Cholesky on one machine at the Locality level
// over the processor sweep, one row per variant: the ablation-steal
// rows on DASH (the paper's tail-steal row is Table 5's Locality row)
// and the ablation-locality-policy rows on the iPSC (the paper's
// first-access row is Table 10's).
func choleskySweep(machine string, vs ...variantID) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		return sweepCells(len(vs), func(r, p int) RunSpec {
			return RunSpec{App: "cholesky", Machine: machine, Procs: p, Level: LevelLocality, variant: vs[r]}
		})
	}
}

// variantTable renders a sweep with one row per label, in sweepCells
// order: each row's exec times or, with loc, its exec times and task
// locality percentages.
func variantTable(id string, loc bool, notes string, labels ...string) func(Scale, []*metrics.Run) *Result {
	return func(_ Scale, runs []*metrics.Run) *Result {
		times, locs := sweepGrid(runs, execTime), [][]float64(nil)
		if loc {
			locs = sweepGrid(runs, (*metrics.Run).LocalityPct)
		}
		rows := make([][]string, 0, 2*len(labels))
		for i, label := range labels {
			if loc {
				rows = append(rows, sweepRow(label+" [time]", times[i]), sweepRow(label+" [loc%]", locs[i]))
			} else {
				rows = append(rows, sweepRow(label, times[i]))
			}
		}
		return &Result{ID: id, Title: registry[id].Title, Head: procHead("variant \\ procs"), Rows: rows, Notes: notes}
	}
}

// choleskyVariantCells compares Table 5's Panel Cholesky workload with
// the structural variant v on the iPSC model at the Locality level, at
// 8 and 32 processors: default first, then v. The default's cells are
// Table 10's.
func choleskyVariantCells(v variantID) func(Scale) []RunSpec {
	return func(Scale) []RunSpec {
		var cells []RunSpec
		for _, variant := range []variantID{noVariant, v} {
			for _, p := range []int{8, 32} {
				cells = append(cells, RunSpec{App: "cholesky", Machine: "ipsc", Procs: p,
					Level: LevelLocality, variant: variant})
			}
		}
		return cells
	}
}

// choleskyAblation renders choleskyVariantCells(v)' runs, one row per
// workload; stats renders the columns a workload fixes before any run.
func choleskyAblation(id string, head []string, labels [2]string, v variantID,
	stats func(*appSpec, Scale) []string, notes string) func(Scale, []*metrics.Run) *Result {
	return func(scale Scale, runs []*metrics.Run) *Result {
		rows := make([][]string, 2)
		for i, a := range [2]*appSpec{choleskyApp, variants[v].app} {
			rows[i] = append(append([]string{labels[i]}, stats(a, scale)...),
				table.Cell(runs[2*i].ExecTime), table.Cell(runs[2*i+1].ExecTime))
		}
		return &Result{ID: id, Title: registry[id].Title, Head: head, Rows: rows, Notes: notes}
	}
}

// updateCells evaluates the §6 eager-update protocol against demand
// fetching with adaptive broadcast disabled, per application: two cells
// per app at 16 processors. The demand cell is the 16-processor cell of
// the app's "No Adaptive Broadcast" row in Tables 11–14.
func updateCells(Scale) []RunSpec {
	off := false
	var cells []RunSpec
	for _, a := range allApps {
		for _, update := range []bool{false, true} {
			cells = append(cells, RunSpec{App: a.key, Machine: "ipsc", Procs: 16, Level: defaultLevelOf(a),
				AdaptiveBroadcast: &off, EagerUpdate: update})
		}
	}
	return cells
}

func updateExtension(_ Scale, runs []*metrics.Run) *Result {
	head := []string{"application", "demand 16p (s)", "update 16p (s)", "demand MB", "update MB"}
	var rows [][]string
	for i, a := range allApps {
		demand, upd := runs[2*i], runs[2*i+1]
		rows = append(rows, []string{a.name,
			table.Cell(demand.ExecTime), table.Cell(upd.ExecTime),
			table.Cell(float64(demand.MsgBytes) / 1e6), table.Cell(float64(upd.MsgBytes) / 1e6)})
	}
	return &Result{ID: "extension-update", Title: registry["extension-update"].Title,
		Head: head, Rows: rows,
		Notes: "§6: the update protocol worked well for the regular applications but " +
			"generated excessive communication for the others"}
}

// stickyCells evaluates the §5.6 suggestion of a scheduler less eager
// to move tasks off their target processor: an eager (the paper's
// scheduler) and a sticky row for Ocean and Panel Cholesky. The eager
// rows are Tables 9–10's Locality rows.
func stickyCells(Scale) []RunSpec {
	apps := []*appSpec{oceanApp, choleskyApp}
	return sweepCells(2*len(apps), func(r, p int) RunSpec {
		return RunSpec{App: apps[r/2].key, Machine: "ipsc", Procs: p, Level: LevelLocality,
			StickyTarget: r%2 == 1}
	})
}
