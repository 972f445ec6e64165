package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jade"
	"repro/internal/sim"
)

// TestLifeCycleDefinedOnce fails if a machine package declares what
// the kit owns: the front half of jade.Platform on all four machines,
// the centralized scheduler's life cycle on the three that embed
// Central, the accounting on all four (a machine writes no Metrics
// field), the event stream on all four (a machine names no obsv.Event
// or obsv.Fetch and calls no Record: the kit's folds and emitters
// record every event), and the one message transport: no machine
// declares a send, a retransmit protocol or a fault injector of its
// own, folds a transmission, or draws a message's loss.
func TestLifeCycleDefinedOnce(t *testing.T) {
	core := []string{"TaskCreated", "TaskEnabled", "Drain", "Stats", "ResetStats",
		"Attach", "Attached", "submitMgmt", "drainPool", "Send", "transmit", "sendRec"}
	central := []string{"assign", "completed", "taskState"}
	transport := map[string]bool{"Sent": true, "Dropped": true, "Duplicated": true,
		"NextMsg": true, "Drop": true, "Duplicate": true, "Jitter": true}
	for _, pkg := range []string{"dash", "ipsc", "pgas", "cluster"} {
		banned := map[string]bool{}
		for _, name := range core {
			banned[name] = true
		}
		if pkg != "dash" {
			for _, name := range central {
				banned[name] = true
			}
		}
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources found (%v)", pkg, err)
		}
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				var names []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					names = append(names, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							names = append(names, ts.Name)
						}
					}
				}
				for _, id := range names {
					if banned[id.Name] {
						t.Errorf("%s: declares %s, which the machine kit owns", fset.Position(id.Pos()), id.Name)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Record" {
						t.Errorf("%s: calls Record; the kit's folds and emitters record every event", fset.Position(n.Pos()))
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && transport[sel.Sel.Name] {
						t.Errorf("%s: calls %s; the kit's transport (Transmit, RoundTrip) sends every message",
							fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "obsv" && (n.Sel.Name == "Fetch" || n.Sel.Name == "Event") {
						t.Errorf("%s: names obsv.%s; the kit's folds and emitters build every event",
							fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.StructType:
					for _, f := range n.Fields.List {
						for _, id := range f.Names {
							if id.Name == "Inj" {
								t.Errorf("%s: declares an Inj field; the machine's injector is Core.Inj", fset.Position(id.Pos()))
							}
						}
					}
				}
				for _, x := range lhs {
					if sel, ok := x.(*ast.SelectorExpr); ok {
						if field, ok := sel.X.(*ast.SelectorExpr); ok && field.Sel.Name == "Metrics" {
							t.Errorf("%s: writes Metrics.%s; the kit folds it from the event stream",
								fset.Position(x.Pos()), sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// toy is the smallest centrally scheduled machine: one task per
// processor, every message on one shared wire, no data movement.
// skipDrains makes its pool pick refuse that many times, leaving a
// freed processor idle with work still pooled.
type toy struct {
	Central
	wire       sim.Processor
	skipDrains int
}

func newToy(procs int) *toy {
	m := &toy{}
	m.Reset(procs, Params{CreateSec: 1e-6, AssignSec: 1e-6, CompleteSec: 1e-6, DispatchSec: 1e-6,
		TaskMsgBytes: 64, CompletionBytes: 16, TargetTasks: 1}, m)
	m.wire = sim.MakeProcessor(m.Eng)
	return m
}

func (m *toy) ObjectAllocated(*jade.Object) {}
func (m *toy) SerialWork(float64)           {}
func (m *toy) MainTouches([]jade.Access)    {}

func (m *toy) Schedule(ts *TaskState) int {
	for p, l := range m.Load {
		if l == 0 {
			return p
		}
	}
	return -1
}

func (m *toy) PickPooled(p int) int {
	if m.skipDrains > 0 {
		m.skipDrains--
		return -1
	}
	return 0
}

// Link prices a byte at a nanosecond of wire time and every message at
// a microsecond of latency.
func (m *toy) Link(from, to, bytes int) Leg {
	return Leg{Res: &m.wire, Occ: sim.Time(bytes) * 1e-9, Lat: 1e-6, Bytes: bytes}
}

func (m *toy) Arrive(ts *TaskState)             { m.Ready(ts) }
func (m *toy) CPUTime(p int, w float64) float64 { return w }
func (m *toy) Complete(*TaskState)              {}

func (m *toy) Release(ts *TaskState, objs []*jade.Object) {
	for _, o := range objs {
		m.RT.ReleaseEarly(ts.T, o)
	}
}

// readers creates n independent readers of one object, more than the
// toy's processors hold at once, so some wait in the pool.
func readers(m *toy, n int) *jade.Runtime {
	rt := jade.New(m, jade.Config{})
	o := rt.Alloc("o", 8, nil)
	for i := 0; i < n; i++ {
		rt.WithOnly(func(s *jade.Spec) { s.Rd(o) }, 1e-3, func() {})
	}
	return rt
}

func TestDrainConservesTasks(t *testing.T) {
	m := newToy(2)
	if r := readers(m, 6).Finish(); r.TaskCount != 6 {
		t.Fatalf("ran %d of 6 tasks", r.TaskCount)
	}
}

// A model that fails to hand pooled work to a freed processor strands
// the pool; Drain must say so instead of returning a short run.
func TestDrainPanicsOnStrandedPool(t *testing.T) {
	m := newToy(1)
	m.skipDrains = 1
	rt := readers(m, 3)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "machine: engine emptied with 2 of 3 created tasks never dispatched") {
			t.Fatalf("Drain panic = %q, want the kit's conservation check", msg)
		}
	}()
	rt.Wait()
}

// TestConservationLaws drives the fold through the kit's entry points.
// The consistent sequence passes Drain even with a ResetStats in its
// middle, which restarts the measurements but not the laws' tallies;
// each other row breaks one law, and Drain must panic naming it.
func TestConservationLaws(t *testing.T) {
	type step func(c *Core)
	batch := func(bytes int) []jade.Access { return []jade.Access{{Obj: &jade.Object{Size: bytes}}} }
	consistent := []step{
		func(c *Core) { c.created() },
		func(c *Core) { c.created() },
		func(c *Core) { c.sent(64) }, // task 0's assignment
		func(c *Core) { c.Arrived(64, 0) },
		func(c *Core) { c.Dispatched(1, 0, 1, false, 0, 2) },
		func(c *Core) { c.sent(100) }, // a reply, lost once
		func(c *Core) { c.dropped(100) },
		func(c *Core) { c.sent(100) },
		func(c *Core) { c.ResetStats() },
		func(c *Core) { c.sent(100) }, // duplicated in flight
		func(c *Core) { c.duplicated(100) },
		func(c *Core) { c.Replied(1, batch(100), false, 1, 3) },
		func(c *Core) { c.Dispatched(0, 1, 1, false, 0, 1) },
	}
	with := func(steps ...step) []step { return append(consistent[:len(consistent):len(consistent)], steps...) }
	rows := []struct {
		name  string
		steps []step
		law   string
	}{
		{name: "consistent", steps: consistent},
		{name: "a created task never runs", law: lawTasks, steps: with(func(c *Core) { c.created() })},
		{name: "a task runs twice", law: lawTasks, steps: with(consistent[len(consistent)-1])},
		{name: "a reply under-reports its bytes", law: lawMessages,
			steps: with(func(c *Core) { c.sent(100) }, func(c *Core) { c.Replied(1, batch(99), false, 3, 4) })},
		{name: "a transmission never lands", law: lawMessages, steps: with(func(c *Core) { c.sent(8) })},
		{name: "a processor is charged past the run", law: lawBusy,
			steps: with(func(c *Core) { c.CPUs[1].Submit(0, 1, nil) })},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := &Core{}
			c.Reset(2, 0)
			for _, s := range row.steps {
				s(c)
			}
			defer func() {
				msg, _ := recover().(string)
				if row.law == "" {
					if msg != "" {
						t.Fatalf("Drain panicked: %s", msg)
					}
					// Only what followed the reset is measured.
					if m := c.Metrics; m.TaskCount != 1 || m.TaskExecTotal != 1 || m.MsgCount != 1 ||
						m.MsgBytes != 100 || m.MsgDuplicates != 1 || m.MsgDropped != 0 {
						t.Fatalf("measured %+v after the reset", m)
					}
					return
				}
				if !strings.Contains(msg, row.law) {
					t.Fatalf("Drain panic = %q, want the law %q", msg, row.law)
				}
			}()
			c.Drain()
		})
	}
}

// A sinkless run builds no span callback for a management charge.
func TestSpanNeedsASink(t *testing.T) {
	c := &Core{}
	c.Reset(1, 0)
	if testing.AllocsPerRun(100, func() { c.submitMgmt(0, 1) }) != 0 {
		t.Fatal("a sinkless management charge allocates")
	}
}
