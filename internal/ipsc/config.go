// Package ipsc models a message-passing hypercube machine in the
// style of the Intel iPSC/860 (Appendix A of the paper) running the
// Jade message-passing implementation (§3.3–3.4): a software
// communicator implements the single-address-space abstraction with
// explicit object fetch messages, replication, adaptive broadcast and
// concurrent fetches; a centralized scheduler on the main processor
// assigns tasks with a locality heuristic and a target number of
// tasks per processor (latency hiding).
package ipsc

import "math/bits"

// LocalityLevel selects the paper's three locality optimization levels
// (§5.2) for the message-passing scheduler.
type LocalityLevel int

const (
	// NoLocality keeps a single task queue at the main processor and
	// hands enabled tasks to idle processors first-come first-served.
	NoLocality LocalityLevel = iota
	// Locality uses the §3.4.3 scheduler: assign to the least-loaded
	// processors, preferring the task's target processor.
	Locality
	// TaskPlacement honors explicit jade.PlaceOn placement.
	TaskPlacement
)

// String implements fmt.Stringer.
func (l LocalityLevel) String() string {
	switch l {
	case NoLocality:
		return "No Locality"
	case Locality:
		return "Locality"
	case TaskPlacement:
		return "Task Placement"
	}
	return "unknown"
}

// Config parameterizes the machine model. Defaults follow the
// published iPSC/860 constants: 2.8 MB/s per link and 47 µs minimum
// message latency.
type Config struct {
	// Procs is the node count (the iPSC/860 hypercube scales to 128;
	// the paper uses up to 32).
	Procs int
	// Level is the locality optimization level.
	Level LocalityLevel

	// MsgLatencySec is the fixed per-message latency (47 µs).
	MsgLatencySec float64
	// HopLatencySec is the additional latency per hypercube hop
	// beyond the first. The network is circuit-switched, so this is
	// small (~2 µs of switch setup per dimension crossed).
	HopLatencySec float64
	// BandwidthBytesPerSec is the per-link bandwidth (2.8 MB/s).
	BandwidthBytesPerSec float64
	// SendOverheadSec is the fixed per-send NIC occupancy beyond the
	// byte time (NX/2 buffering).
	SendOverheadSec float64

	// RequestBytes sizes an object-request message; TaskMsgBytes a
	// task-assignment message; CompletionBytes a completion notice.
	RequestBytes    int
	TaskMsgBytes    int
	CompletionBytes int

	// SpeedFactor scales task work relative to the reference (DASH)
	// processor; the i860 runs our applications faster.
	SpeedFactor float64

	// Main-processor task management costs: creating a task,
	// deciding+initiating an assignment, and handling a completion
	// message. The iPSC/860's poor fine-grained communication makes
	// these large; they serialize on the main processor and produce
	// the paper's Figures 20–21.
	TaskCreateSec     float64
	AssignSec         float64
	CompleteHandleSec float64
	// DispatchSec is the per-task dispatch cost on the executing node.
	DispatchSec float64
	// BcastSetupSec is the producer-CPU cost to initiate a broadcast
	// (buffer copy is charged at the link rate on top).
	BcastSetupSec float64

	// TargetTasks is the scheduler's target number of tasks per
	// processor (§3.4.3). One disables latency hiding; two or more
	// let a processor fetch objects for one task while running
	// another.
	TargetTasks int

	// AdaptiveBroadcast enables the §3.4.2 optimization.
	AdaptiveBroadcast bool
	// ConcurrentFetch fetches a task's remote objects in parallel
	// (§3.4.1); when false the communicator fetches them one at a
	// time.
	ConcurrentFetch bool
	// StickyTarget is the paper's §5.6 suggestion: make the scheduler
	// less eager to move tasks off their target processor — assign to
	// the target whenever its load is below TargetTasks+1, even if it
	// is not among the least loaded.
	StickyTarget bool
	// EagerUpdate enables the update-protocol implementation the
	// paper describes in §6: when a new version of an object is
	// produced, eagerly push it to every processor that accessed the
	// previous version. It worked well for regular applications
	// (Water, String) and degraded others by generating excessive
	// communication.
	EagerUpdate bool
	// Coalescing batches a task's same-owner object fetches into one
	// request/reply pair paying a single header cost (the granularity
	// pass's message-coalescing half; the paper has no equivalent).
	// Serial-phase fetches in MainTouches stay uncoalesced: they are
	// synchronous, one-at-a-time touches by the main program, so there
	// is never a batch to form. Off by default — the paper's runs
	// never coalesce.
	Coalescing bool
}

// DefaultConfig returns the iPSC/860 model at the given processor
// count and locality level, with replication, adaptive broadcast and
// concurrent fetches on and latency hiding off (TargetTasks=1) — the
// paper's baseline configuration for the locality experiments.
func DefaultConfig(procs int, level LocalityLevel) Config {
	return Config{
		Procs:                procs,
		Level:                level,
		MsgLatencySec:        47e-6,
		HopLatencySec:        2e-6,
		BandwidthBytesPerSec: 2.8e6,
		SendOverheadSec:      30e-6,
		RequestBytes:         32,
		TaskMsgBytes:         256,
		CompletionBytes:      32,
		SpeedFactor:          0.75,
		TaskCreateSec:        100e-6,
		AssignSec:            150e-6,
		CompleteHandleSec:    150e-6,
		DispatchSec:          50e-6,
		BcastSetupSec:        60e-6,
		TargetTasks:          1,
		AdaptiveBroadcast:    true,
		ConcurrentFetch:      true,
	}
}

// byteTime returns the link time for n bytes.
func (c *Config) byteTime(n int) float64 {
	return float64(n) / c.BandwidthBytesPerSec
}

// sendOccupancy is the NIC time to push one message.
func (c *Config) sendOccupancy(bytes int) float64 {
	return c.SendOverheadSec + c.byteTime(bytes)
}

// hops returns the hypercube distance between two nodes: the number
// of dimensions in which their (e-cube routed) addresses differ.
func (c *Config) hops(a, b int) int { return bits.OnesCount(uint(a ^ b)) }

// msgLatency returns the wire latency from a to b: the base latency
// plus the per-hop switch setup for each extra dimension crossed.
func (c *Config) msgLatency(a, b int) float64 {
	h := c.hops(a, b)
	if h <= 1 {
		return c.MsgLatencySec
	}
	return c.MsgLatencySec + float64(h-1)*c.HopLatencySec
}

// bcastSteps is the number of sequential transmissions a spanning-tree
// broadcast costs the root: ⌈log2 P⌉, minimum 1 (the degenerate
// single-processor case still performs one send; §5.3 notes it
// degrades performance).
func (c *Config) bcastSteps() int { return max(bits.Len(uint(c.Procs-1)), 1) }
