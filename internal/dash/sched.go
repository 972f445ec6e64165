package dash

import (
	"repro/internal/jade"
	"repro/internal/machine"
)

// noTask is the "queue is empty" sentinel returned by the pop/steal
// paths. Queues hold task IDs, not task pointers: the machine resolves
// IDs through its dense task table, so the queue slices stay
// pointer-free — appends skip the write barrier and the garbage
// collector never scans them.
const noTask int32 = -1

// objQueue is an object task queue (§3.2.1): the FIFO of enabled tasks
// whose locality object is obj. head indexes the first live task, so
// popping reuses the slice capacity instead of leaking it one element
// per front-reslice.
type objQueue struct {
	tasks []int32
	head  int
}

// size is the number of live tasks in the queue.
func (o *objQueue) size() int { return len(o.tasks) - o.head }

// procQueue is one processor's task queue: a FIFO of non-empty object
// task queues, plus a FIFO of explicitly placed tasks (which are never
// stolen). Both FIFOs pop by advancing a head index and reset when
// they drain, so the backing arrays reach a steady-state capacity and
// stop allocating — a front-reslice would leak the popped prefix and
// force every later append to grow the slice again.
type procQueue struct {
	placed     []int32
	placedHead int
	// otqs is the FIFO of non-empty object task queues, as indices into
	// slab; byObj maps object ID (dense, allocation order) to slab
	// index plus one, with zero meaning the object has no queue here
	// yet. Holding indices instead of pointers keeps both slices
	// pointer-free and lets slab grow by reallocation without
	// invalidating them.
	otqs     []int32
	otqsHead int
	byObj    []int32
	slab     []objQueue
	// count of schedulable (stealable) tasks across otqs.
	count int
}

// reset empties the queue, keeping its storage: the object task
// queues in slab keep their task slices for reuse.
func (q *procQueue) reset() {
	q.placed, q.placedHead = q.placed[:0], 0
	q.otqs, q.otqsHead = q.otqs[:0], 0
	q.byObj = q.byObj[:0]
	q.slab = q.slab[:0]
	q.count = 0
}

// pushPlaced appends an explicitly placed task.
func (q *procQueue) pushPlaced(tid int32) { q.placed = append(q.placed, tid) }

// push inserts a task into the object task queue of its locality
// object, creating and appending the OTQ if it was empty.
func (q *procQueue) push(tid int32, obj *jade.Object) {
	if n := len(q.byObj); n <= int(obj.ID) {
		if cap(q.byObj) > int(obj.ID) {
			// Storage kept across a reset may hold old entries.
			q.byObj = q.byObj[:int(obj.ID)+1]
			clear(q.byObj[n:])
		} else {
			grown := make([]int32, int(obj.ID)+1, 2*(int(obj.ID)+1))
			copy(grown, q.byObj)
			q.byObj = grown
		}
	}
	oi := q.byObj[obj.ID]
	added := oi == 0
	if added {
		q.slab = machine.Resize(q.slab, len(q.slab)+1)
		oi = int32(len(q.slab))
		q.byObj[obj.ID] = oi
	}
	otq := &q.slab[oi-1]
	// An added entry may be an object task queue from before a reset:
	// it keeps its task storage, not its tasks.
	if added || otq.size() == 0 {
		otq.tasks, otq.head = otq.tasks[:0], 0
		if q.otqsHead == len(q.otqs) {
			// The FIFO drained: restart it at the front.
			q.otqs, q.otqsHead = q.otqs[:0], 0
		}
		q.otqs = append(q.otqs, oi-1)
	}
	otq.tasks = append(otq.tasks, tid)
	q.count++
}

// liveOtqs returns the live window of the OTQ FIFO.
func (q *procQueue) liveOtqs() []int32 { return q.otqs[q.otqsHead:] }

// popPlaced removes and returns the first placed task, or noTask.
// The dispatch path takes a placed task before the first task of the
// first object task queue (stealFirst).
func (q *procQueue) popPlaced() int32 {
	if q.placedHead == len(q.placed) {
		return noTask
	}
	tid := q.placed[q.placedHead]
	q.placedHead++
	if q.placedHead == len(q.placed) {
		q.placed = q.placed[:0]
		q.placedHead = 0
	}
	return tid
}

// stealLast removes and returns the last task of the last object task
// queue (the steal path). Placed tasks are not stealable.
func (q *procQueue) stealLast() int32 {
	for live := q.liveOtqs(); len(live) > 0; live = q.liveOtqs() {
		otq := &q.slab[live[len(live)-1]]
		if otq.size() == 0 {
			q.otqs = q.otqs[:len(q.otqs)-1]
			continue
		}
		tid := otq.tasks[len(otq.tasks)-1]
		otq.tasks = otq.tasks[:len(otq.tasks)-1]
		q.count--
		if otq.size() == 0 {
			q.otqs = q.otqs[:len(q.otqs)-1]
		}
		return tid
	}
	return noTask
}

// stealFirst removes and returns the first task of the first object
// task queue — as a steal it is the ablation variant that destroys the
// consecutive-execution property the tail-steal preserves.
func (q *procQueue) stealFirst() int32 {
	for live := q.liveOtqs(); len(live) > 0; live = q.liveOtqs() {
		otq := &q.slab[live[0]]
		if otq.size() == 0 {
			q.otqsHead++
			continue
		}
		tid := otq.tasks[otq.head]
		otq.head++
		q.count--
		if otq.size() == 0 {
			q.otqsHead++
		}
		return tid
	}
	return noTask
}

// empty reports whether the queue holds no tasks at all.
func (q *procQueue) empty() bool { return q.count == 0 && q.placedHead == len(q.placed) }
