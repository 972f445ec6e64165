// Package experiments contains one driver per table and figure in the
// paper's evaluation section (§5), plus the extension studies. Every
// driver is a projection: it declares the RunSpec cells it reads (an
// app, a machine, a processor count, a locality level, the toggles,
// and a variant for what no JSON field names) and renders the paper's
// rows and series from those runs. Runner.Execute plans the union of
// the cells of every experiment requested in one call, runs each
// distinct cell once, and hands each view its runs — so Table 2,
// Figure 2 and Figure 6 read the same DASH runs instead of executing
// them three times. cmd/jadebench, jaded and the repository benchmarks
// are thin wrappers around this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// Scale selects the workload size.
type Scale string

const (
	// Small is the CI-friendly default scale.
	Small Scale = "small"
	// PaperScale uses the paper's data-set sizes.
	PaperScale Scale = "paper"
)

// Procs is the paper's processor sweep.
var Procs = []int{1, 2, 4, 8, 16, 24, 32}

// Result is a regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Head  []string
	Rows  [][]string
	Plot  *table.Plot
	Notes string
}

// Render writes the result as text.
func (r *Result) Render(w *strings.Builder) {
	t := &table.Table{Title: fmt.Sprintf("%s: %s", r.ID, r.Title), Head: r.Head, Rows: r.Rows}
	t.Render(w)
	if r.Plot != nil {
		w.WriteString("\n")
		r.Plot.Render(w)
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", r.Notes)
	}
}

// Markdown renders the result as a markdown table.
func (r *Result) Markdown(w *strings.Builder) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(r.Head, " | "))
	seps := make([]string, len(r.Head))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "\n%s\n", r.Notes)
	}
	w.WriteString("\n")
}

// Experiment is a registered table, figure or study. It declares the
// RunSpec cells it reads and renders its result from their runs, so
// Runner.Execute can share a cell between every view that reads it.
// What a cell varies beyond its JSON fields (an alternate workload, a
// runtime policy, a machine field set after New) is its variant.
type Experiment struct {
	ID    string
	Title string
	// cells lists the runs the experiment reads; Tables 1 and 6,
	// modeled from operation counts, read none.
	cells func(scale Scale) []RunSpec
	// render builds the result; runs[i] is the read-only run of
	// cells(scale)[i].
	render func(scale Scale, runs []*metrics.Run) *Result
}

var registry = map[string]*Experiment{}
var order []string

// register adds an experiment.
func register(id, title string, cells func(Scale) []RunSpec, render func(Scale, []*metrics.Run) *Result) {
	registry[id] = &Experiment{ID: id, Title: title, cells: cells, render: render}
	order = append(order, id)
}

// IDs returns all experiment IDs in registration (paper) order.
func IDs() []string { return append([]string(nil), order...) }

// Get returns the experiment with the given ID.
func Get(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		known := append([]string(nil), order...)
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
	}
	return e, nil
}

// Run executes the experiment with the given ID at the given scale on a
// GOMAXPROCS-wide runner.
func Run(id string, scale Scale) (*Result, error) {
	res, _, err := Runner{}.Execute([]string{id}, nil, scale)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ---- shared cell and row builders ----

// levels returns the locality levels an app is evaluated at, highest
// first (matching the paper's table row order).
func levels(a *appSpec) []string {
	if a.hasPlacement {
		return []string{LevelPlacement, LevelLocality, LevelNone}
	}
	return []string{LevelLocality, LevelNone}
}

// sweepCells lists one cell per (row, processor count), row-major, so
// sweepGrid can fold the runs back into rows.
func sweepCells(rows int, cell func(r, procs int) RunSpec) []RunSpec {
	cells := make([]RunSpec, 0, rows*len(Procs))
	for r := 0; r < rows; r++ {
		for _, p := range Procs {
			cells = append(cells, cell(r, p))
		}
	}
	return cells
}

// sweepGrid folds sweepCells' runs into rows of one metric.
func sweepGrid(runs []*metrics.Run, metric func(*metrics.Run) float64) [][]float64 {
	grid := make([][]float64, len(runs)/len(Procs))
	for k, run := range runs {
		grid[k/len(Procs)] = append(grid[k/len(Procs)], metric(run))
	}
	return grid
}

func execTime(r *metrics.Run) float64 { return r.ExecTime }

// procHead builds the "level, 1, 2, 4, ..." table header.
func procHead(first string) []string {
	head := []string{first}
	for _, p := range Procs {
		head = append(head, fmt.Sprint(p))
	}
	return head
}

// sweepRow formats one row of a processor sweep.
func sweepRow(label string, vals []float64) []string {
	row := []string{label}
	for _, v := range vals {
		row = append(row, table.Cell(v))
	}
	return row
}

// plotOf builds an ASCII figure from sweep rows.
func plotOf(title, ylabel string, labels []string, series [][]float64) *table.Plot {
	markers := []byte{'*', 'o', '+', 'x', '#'}
	p := &table.Plot{Title: title, XLabel: "processors", YLabel: ylabel}
	for i, lab := range labels {
		xs := make([]float64, len(Procs))
		for k, pc := range Procs {
			xs[k] = float64(pc)
		}
		p.Series = append(p.Series, table.Series{
			Label: lab, X: xs, Y: series[i], Marker: markers[i%len(markers)],
		})
	}
	return p
}
