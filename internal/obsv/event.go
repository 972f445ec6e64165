package obsv

// Kind classifies a simulated event. Instants happen at At; spans
// cover [At, End). The stream carries what its consumers read: a
// run's counters, message traffic included, are folded apart from it
// in the machine kit (internal/machine).
type Kind uint8

const (
	// Created: a task's creation finishes on the main processor Proc.
	Created Kind = iota
	// Enabled: a task enters DASH's ready queues (Proc -1: no
	// processor yet).
	Enabled
	// Assigned: the scheduler hands a task to Proc; N is the task's
	// target processor.
	Assigned
	// FetchStart: a task on Proc requests N remote objects.
	FetchStart
	// FetchEnd: the fetch stall of a task on Proc, from its first
	// request to its last arrival, ends. Task -1 is the main program's
	// synchronous fetch in a serial phase.
	FetchEnd
	// ExecStart: a task is dispatched on Proc (DASH's dispatcher, or
	// the centralized scheduler's Ready); Flag marks a steal.
	ExecStart
	// ExecEnd: a task finishes on Proc, spanning its CPU time. Flag marks
	// a staged task, whose Segment events carry its time: an instant.
	ExecEnd
	// Segment: one segment of a staged task runs on Proc.
	Segment
	// Mgmt: task-management work (creation, assignment, completion
	// handling) occupies Proc.
	Mgmt
	// Fetch: object Obj (Name, Bytes) reaches Proc with latency
	// End−At, by a transfer of the given Class.
	Fetch
	// Broadcast: Proc broadcasts version N of object Obj (Name, Bytes)
	// to every other processor (adaptive broadcast, §3.4.2).
	Broadcast
	// Delivery: a protocol message was delivered after N transmission
	// attempts under fault injection.
	Delivery
	// Reset: the platform's measurements restart
	// (Runtime.ResetMetrics).
	Reset
)

var kindNames = [...]string{"created", "enabled", "assigned", "fetch-start", "fetch-end",
	"exec-start", "exec-end", "segment", "mgmt", "fetch", "broadcast", "delivery", "reset"}

// String implements fmt.Stringer; the names are the event log's.
func (k Kind) String() string { return kindNames[k] }

// FetchClass is how a Fetch event's object reached its processor: one
// value per distinction the machine kit's folds make. The zero value,
// Unclassified, is no class: the Observer rejects a Fetch carrying it.
type FetchClass uint8

const (
	Unclassified FetchClass = iota
	Replica                 // a task's fetch adds a read copy (§5.1): iPSC/cluster reply, PGAS get
	Copy                    // a task's fetch adds none: an iPSC reply from the requester itself
	LocalLine               // a DASH cache miss moves the line from local memory
	RemoteLine              // a DASH cache miss moves the line from remote memory
	Hit                     // a read served in place: a DASH cache hit, a PGAS locale's cache or segment
	Main                    // the main program's synchronous fetch in a serial phase
	Push                    // an update pushed to a reader that did not request it (§6)
)

// Event is one simulated fact, emitted by a machine model at the
// virtual time it happens. It is a plain value (Name shares the
// object's string), so emitting one allocates nothing.
type Event struct {
	Kind  Kind
	Flag  bool       // a steal on ExecStart, a staged task on ExecEnd
	Class FetchClass // a Fetch event's transfer
	Proc  int
	Task  int
	// Obj and Name identify the object of Fetch and Broadcast events.
	Obj   int
	Name  string
	Bytes int
	// N is a count: target processor, objects requested, version, or
	// transmission attempts, by kind.
	N       int
	At, End float64
}

// Sink consumes one run's event stream. Each machine model holds one
// nil-able Sink; *Observer and *trace.Trace are its consumers.
type Sink interface{ Record(Event) }

// Tee fans one stream out to several sinks, in order.
type Tee []Sink

// Record implements Sink.
func (t Tee) Record(e Event) {
	for _, s := range t {
		s.Record(e)
	}
}
