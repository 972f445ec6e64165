package experiments

import (
	"fmt"

	"repro/internal/apps/cholesky"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/metrics"
	"repro/internal/table"
)

func init() {
	// ---- Table 1 / Table 6: serial and stripped times ----
	registerBespoke("table1", "Serial and Stripped Execution Times on DASH (seconds)",
		func(_ Runner, scale Scale) *Result { return serialTable("table1", scale, 1.0) })
	registerBespoke("table6", "Serial and Stripped Execution Times on the iPSC/860 (seconds)",
		func(_ Runner, scale Scale) *Result {
			return serialTable("table6", scale, ipsc.DefaultConfig(1, ipsc.Locality).SpeedFactor)
		})

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
			broadcastCells(a), broadcastTable(id))
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
		latencyHidingCells, latencyHidingStudy)
	register("sec5.5", "Concurrent Fetch: object latency / task latency at the highest locality level",
		perApp(func(a *appSpec) RunSpec {
			return RunSpec{App: a.key, Machine: "ipsc", Procs: 8, Level: defaultLevelOf(a)}
		}), concurrentFetchStudy)
	registerBespoke("ablation-steal", "Ablation: steal from tail vs head of the object task queues (DASH)", stealAblation)
	registerBespoke("ablation-locality-policy", "Ablation: locality-object policy (iPSC/860, Panel Cholesky)", localityPolicyAblation)
	register("ablation-sticky", "Extension (§5.6): scheduler less eager to move tasks off target (iPSC/860)",
		stickyCells, stickyAblation)
	registerBespoke("ablation-ordering", "Ablation: natural vs reverse Cuthill-McKee ordering (Panel Cholesky)",
		choleskyAblation("ablation-ordering",
			[]string{"ordering", "nnz(L)", "modeled serial s", "exec 8p (s)", "exec 32p (s)"},
			[2]string{"natural (default)", "reverse Cuthill-McKee"},
			newCholeskyApp("Panel Cholesky, RCM ordering", "cholesky-rcm"),
			func(a *appSpec, s Scale) []string {
				return []string{fmt.Sprint(choleskyWorkload(a.key, s).Sym.NNZL()), table.Cell(a.serialWork(s))}
			},
			"the paper's BCSSTK15 runs use a pre-ordered matrix; ordering changes the "+
				"panel dependence structure and the total work"))
	register("extension-update", "Extension (§6): eager update protocol vs demand fetch (iPSC/860, broadcast off)",
		updateCells, updateExtension)
	register("extension-portability", "Portability: the same programs on all three machine models (8 processors)",
		portabilityCells, portabilityStudy)
	registerBespoke("ablation-panels", "Ablation: blind vs supernodal panel partitioning (Panel Cholesky)",
		choleskyAblation("ablation-panels",
			[]string{"partitioning", "panels", "tasks", "exec 8p (s)", "exec 32p (s)"},
			[2]string{"fixed width (paper)", "supernode-aligned"},
			newCholeskyApp("Panel Cholesky, supernodal panels", "cholesky-supernodal"),
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

// serialTable builds Table 1/6: serial and stripped times per app.
func serialTable(id string, scale Scale, speed float64) *Result {
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

func broadcastTable(id string) func(Scale, []*metrics.Run) *Result {
	return func(_ Scale, runs []*metrics.Run) *Result {
		grid := sweepGrid(runs, execTime)
		rows := [][]string{
			sweepRow("Adaptive Broadcast", grid[0]),
			sweepRow("No Adaptive Broadcast", grid[1]),
		}
		return &Result{ID: id, Title: registry[id].Title, Head: procHead("variant \\ procs"), Rows: rows}
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

func latencyHidingStudy(_ Scale, runs []*metrics.Run) *Result {
	grid := sweepGrid(runs, execTime)
	rows := [][]string{
		sweepRow("target tasks = 1", grid[0]),
		sweepRow("target tasks = 2", grid[1]),
	}
	return &Result{ID: "sec5.4", Title: registry["sec5.4"].Title,
		Head: procHead("variant \\ procs"), Rows: rows,
		Notes: "the paper found virtually no effect; see EXPERIMENTS.md for the analysis"}
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

// stealAblation compares tail-stealing (the paper's design) with
// head-stealing on DASH for Panel Cholesky. StealFromHead is a machine
// field no RunSpec sets, so it is bespoke, but its cells replay the same
// timed graphs as Table 5's Locality row.
func stealAblation(r Runner, scale Scale) *Result {
	variants := []bool{false, true}
	vals := make([]float64, len(variants)*len(Procs))
	r.Each(len(vals), func(k int) {
		m := dash.New(dash.DefaultConfig(Procs[k%len(Procs)], dash.Locality))
		m.StealFromHead = variants[k/len(Procs)]
		vals[k] = runApp(m, jade.Config{}, choleskyApp, scale, false).ExecTime
	})
	var rows [][]string
	for v, fromHead := range variants {
		label := "steal last of last OTQ (paper)"
		if fromHead {
			label = "steal first of first OTQ"
		}
		rows = append(rows, sweepRow(label, vals[v*len(Procs):(v+1)*len(Procs)]))
	}
	return &Result{ID: "ablation-steal", Title: registry["ablation-steal"].Title,
		Head: procHead("variant \\ procs"), Rows: rows}
}

// localityPolicyAblation compares locality-object policies, a runtime
// setting (jade.Config.Locality) no RunSpec carries, so it is bespoke.
func localityPolicyAblation(r Runner, scale Scale) *Result {
	policies := []struct {
		label  string
		policy jade.LocalityPolicy
	}{
		{"first declared access (paper)", 0},
		{"largest declared object", 1},
		{"first written object", 2},
	}
	runs := make([]*metrics.Run, len(policies)*len(Procs))
	r.Each(len(runs), func(k int) {
		m := ipsc.New(ipsc.DefaultConfig(Procs[k%len(Procs)], ipsc.Locality))
		runs[k] = runApp(m, jade.Config{Locality: policies[k/len(Procs)].policy}, choleskyApp, scale, false)
	})
	times, locs := sweepGrid(runs, execTime), sweepGrid(runs, (*metrics.Run).LocalityPct)
	var rows [][]string
	for p, pol := range policies {
		rows = append(rows, sweepRow(pol.label+" [time]", times[p]))
		rows = append(rows, sweepRow(pol.label+" [loc%]", locs[p]))
	}
	return &Result{ID: "ablation-locality-policy", Title: registry["ablation-locality-policy"].Title,
		Head: procHead("variant \\ procs"), Rows: rows}
}

// choleskyAblation compares Table 5's Panel Cholesky workload with one
// structural variant on the iPSC model at the Locality level, at 8 and
// 32 processors. Like ablation-steal it is bespoke, because the variant
// is an appSpec no RunSpec names (it is not in appKeys), but its cells
// replay cached graphs through runApp: the default's are Table 5's.
// stats renders the columns a workload fixes before any run.
func choleskyAblation(id string, head []string, labels [2]string, variant *appSpec,
	stats func(*appSpec, Scale) []string, notes string) func(Runner, Scale) *Result {
	return func(r Runner, scale Scale) *Result {
		apps, procs := [2]*appSpec{choleskyApp, variant}, [2]int{8, 32}
		times := make([]float64, 4)
		r.Each(len(times), func(k int) {
			m := ipsc.New(ipsc.DefaultConfig(procs[k%2], ipsc.Locality))
			times[k] = runApp(m, jade.Config{}, apps[k/2], scale, false).ExecTime
		})
		rows := make([][]string, 2)
		for v, a := range apps {
			rows[v] = append(append([]string{labels[v]}, stats(a, scale)...),
				table.Cell(times[2*v]), table.Cell(times[2*v+1]))
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

// stickyApps are the apps of the §5.6 sticky-target ablation; each
// contributes an eager (the paper's scheduler) and a sticky row.
func stickyApps() []*appSpec { return []*appSpec{oceanApp, choleskyApp} }

// stickyCells evaluates the §5.6 suggestion of a scheduler less eager
// to move tasks off their target processor. The eager rows are Tables
// 9–10's Locality rows.
func stickyCells(Scale) []RunSpec {
	apps := stickyApps()
	return sweepCells(2*len(apps), func(r, p int) RunSpec {
		return RunSpec{App: apps[r/2].key, Machine: "ipsc", Procs: p, Level: LevelLocality,
			StickyTarget: r%2 == 1}
	})
}

func stickyAblation(_ Scale, runs []*metrics.Run) *Result {
	times, locs := sweepGrid(runs, execTime), sweepGrid(runs, (*metrics.Run).LocalityPct)
	var rows [][]string
	for r := range times {
		a, sticky := stickyApps()[r/2], r%2 == 1
		label := a.name + " eager (paper)"
		if sticky {
			label = a.name + " sticky target"
		}
		rows = append(rows, sweepRow(label+" [time]", times[r]))
		rows = append(rows, sweepRow(label+" [loc%]", locs[r]))
	}
	return &Result{ID: "ablation-sticky", Title: registry["ablation-sticky"].Title,
		Head: procHead("variant \\ procs"), Rows: rows}
}
