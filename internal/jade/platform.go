package jade

import "repro/internal/metrics"

// Platform is the machine-specific half of the Jade implementation: a
// scheduler plus (on message-passing machines) a communicator. The
// Runtime calls into the platform as the program allocates objects,
// creates tasks, and waits; the platform calls Runtime.RunBody /
// Runtime.TaskDone as it executes tasks.
type Platform interface {
	// Attach binds the platform to the runtime before any other call.
	Attach(rt *Runtime)
	// Processors returns the number of processors in the machine.
	Processors() int
	// ObjectAllocated notifies the platform of a new shared object so
	// it can record placement. Called from the main program.
	ObjectAllocated(o *Object)
	// TaskCreated charges task-creation overhead to the main
	// processor and records the task. Called in serial program order.
	// If enabled, the task has no unsatisfied dependences and may be
	// scheduled as soon as its creation completes.
	TaskCreated(t *Task, enabled bool)
	// TaskEnabled notifies the platform that a previously created
	// task's dependences were satisfied by the completion of another
	// task or an early release (from within TaskDone or ReleaseEarly,
	// at the current virtual time). It must not call back into the
	// runtime.
	TaskEnabled(t *Task)
	// SerialWork charges d seconds of serial-phase computation to the
	// main processor.
	SerialWork(d float64)
	// MainTouches charges the main program's own accesses to shared
	// objects (serial phases read/write objects too; on
	// message-passing machines this fetches them to processor 0).
	MainTouches(accs []Access)
	// Drain runs the machine until every created task has completed,
	// then synchronizes the main processor with the completion time.
	Drain()
	// Stats returns the run's accumulated measurements.
	Stats() *metrics.Run
	// ResetStats zeroes the accumulated measurements and restarts the
	// execution-time baseline. The paper's timing runs omit initial
	// I/O and initialization phases; applications call
	// Runtime.ResetMetrics after their setup phases to match.
	ResetStats()
}

// Config holds runtime-level options shared by all platforms.
type Config struct {
	// WorkFree, when set, means the runtime runs no task, segment or
	// serial body and the machines price no work and no traffic,
	// leaving only task-management activity — the paper's "work-free
	// version" used to measure task management percentage (Figures
	// 10, 11, 20, 21). Tasks keep their declared work and segments.
	WorkFree bool
	// Locality selects the locality-object policy.
	Locality LocalityPolicy
}
