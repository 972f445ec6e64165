package dash

import (
	"math/rand"
	"testing"

	"repro/internal/jade"
)

// popFirst is the dispatch path's pop on a processor's own queue: the
// first placed task, else the first task of the first object task
// queue.
func (q *procQueue) popFirst() int32 {
	if tid := q.popPlaced(); tid != noTask {
		return tid
	}
	return q.stealFirst()
}

// refNext is the dispatch choice before the stealable count: pop the
// own queue, else try every victim in cyclic order until one yields a
// task. It is the reference Machine.next must agree with.
func refNext(queues []procQueue, p int, fromHead bool) (int32, bool) {
	if tid := queues[p].popFirst(); tid != noTask {
		return tid, false
	}
	for i := 1; i < len(queues); i++ {
		victim := &queues[(p+i)%len(queues)]
		var tid int32
		if fromHead {
			tid = victim.stealFirst()
		} else {
			tid = victim.stealLast()
		}
		if tid != noTask {
			return tid, true
		}
	}
	return noTask, false
}

// TestStealMatchesReference drives random enqueue and dispatch
// sequences through the machine's scheduling queues and a reference
// copy served by the full victim scan: every dispatch must pick the
// same task with the same stole flag, and the machine-wide stealable
// count must equal the queues' summed counts after every step.
func TestStealMatchesReference(t *testing.T) {
	objs := make([]*jade.Object, 12)
	for i := range objs {
		objs[i] = obj(i, 64)
	}
	var steals, failed, placed int
	for seed := int64(1); seed <= 20; seed++ {
		for _, procs := range []int{1, 2, 3, 5, 8} {
			for _, fromHead := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				m := New(DefaultConfig(procs, TaskPlacement))
				m.StealFromHead = fromHead
				ref := make([]procQueue, procs)
				tid := int32(0)
				for step := 0; step < 400; step++ {
					p := rng.Intn(procs)
					switch r := rng.Intn(10); {
					case r < 1:
						m.queues[p].pushPlaced(tid)
						ref[p].pushPlaced(tid)
						tid++
						placed++
					case r < 5:
						o := objs[rng.Intn(len(objs))]
						m.push(p, tid, o)
						ref[p].push(tid, o)
						tid++
					default:
						got, gotStole := m.next(p)
						want, wantStole := refNext(ref, p, fromHead)
						if got != want || gotStole != wantStole {
							t.Fatalf("seed %d procs %d fromHead %t step %d: next(%d) = (%d, %t), reference (%d, %t)",
								seed, procs, fromHead, step, p, got, gotStole, want, wantStole)
						}
						switch {
						case gotStole:
							steals++
						case got == noTask:
							failed++
						}
					}
					sum := 0
					for i := range m.queues {
						sum += m.queues[i].count
					}
					if m.stealable != sum {
						t.Fatalf("seed %d procs %d fromHead %t step %d: stealable %d, queues hold %d",
							seed, procs, fromHead, step, m.stealable, sum)
					}
				}
			}
		}
	}
	if steals == 0 || failed == 0 || placed == 0 {
		t.Fatalf("sequences too narrow: %d steals, %d failed searches, %d placed tasks", steals, failed, placed)
	}
}
