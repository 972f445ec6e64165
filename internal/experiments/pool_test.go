package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// runSignature is a run's jade-metrics/v1 bytes followed by its
// observer snapshot.
func runSignature(t *testing.T, r *metrics.Run) []byte {
	t.Helper()
	obs, err := json.Marshal(r.Obsv)
	if err != nil {
		t.Fatal(err)
	}
	return append(runBytes(t, r), obs...)
}

// TestPooledMachinesMatchFresh runs resetCells through successive
// Runner calls that share pooled machines — at widths 1, 2 and 3, and
// from four goroutines each making one-cell calls at once, the pattern
// of a server executing jobs — and checks every run against a replay
// onto a new machine. A call whose spec panics comes between them: the
// calls after it must still match.
func TestPooledMachinesMatchFresh(t *testing.T) {
	cells := resetCells()
	want := make([][]byte, len(cells))
	for i, s := range cells {
		want[i] = runSignature(t, s.execute(Small, nil, nil))
	}
	check := func(label string, i int, r *metrics.Run) {
		if got := runSignature(t, r); !bytes.Equal(got, want[i]) {
			t.Errorf("%s: cell %d %+v: run on a pooled machine differs from a new machine", label, i, cells[i])
		}
	}
	for width := 1; width <= 3; width++ {
		r := NewRunner(width)
		for lo := 0; lo < len(cells); lo += width {
			hi := min(lo+width, len(cells))
			runs, err := r.ExecuteRuns(cells[lo:hi], Small)
			if err != nil {
				t.Fatal(err)
			}
			for k, run := range runs {
				check(fmt.Sprintf("width %d", width), lo+k, run)
			}
		}
		panicking := RunSpec{App: "water", Machine: "dash", Fault: &fault.Spec{Panic: true}}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a spec with an injected panic did not panic")
				}
			}()
			r.ExecuteRuns([]RunSpec{cells[0], panicking, cells[1]}, Small)
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				i := (k + g*len(cells)/4) % len(cells)
				runs, err := NewRunner(1).ExecuteRuns(cells[i:i+1], Small)
				if err != nil {
					t.Error(err)
					return
				}
				check(fmt.Sprintf("goroutine %d", g), i, runs[0])
			}
		}()
	}
	wg.Wait()
}
