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
// and the centralized scheduler's life cycle on the three that embed
// Central.
func TestLifeCycleDefinedOnce(t *testing.T) {
	core := []string{"TaskCreated", "TaskEnabled", "Drain", "Stats", "ResetStats",
		"Attach", "Attached", "submitMgmt", "drainPool"}
	central := []string{"assign", "completed", "taskState"}
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
		}
	}
}

// toy is the smallest centrally scheduled machine: one task per
// processor, free messages, no data movement. skipDrains makes its
// pool pick refuse that many times, leaving a freed processor idle
// with work still pooled.
type toy struct {
	Central
	skipDrains int
}

func newToy(procs int) *toy {
	m := &toy{}
	m.Reset(procs, Params{CreateSec: 1e-6, AssignSec: 1e-6, CompleteSec: 1e-6, DispatchSec: 1e-6, TargetTasks: 1}, m)
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

func (m *toy) Send(at sim.Time, from, to, bytes int, h sim.Handler, arg int32) {
	m.Eng.AtCall(at, h, arg)
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
		if !strings.HasPrefix(msg, "machine: engine emptied with 2 of 3 created tasks incomplete") {
			t.Fatalf("Drain panic = %q, want the kit's conservation check", msg)
		}
	}()
	rt.Wait()
}
