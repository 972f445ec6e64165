// Package jade implements the core of a Jade-style implicitly parallel
// programming model (Rinard, SC'95). Programs are written as serial
// code plus access specifications: each task declares, before it runs,
// exactly which shared objects it will read and write. The runtime
// extracts concurrency by enforcing the dynamic data dependences
// implied by those declarations, and hands scheduling and
// communication decisions to a pluggable Platform (a shared-memory
// machine model, a message-passing machine model, or a native
// goroutine runtime).
package jade

// ObjectID identifies a shared object within one Runtime.
type ObjectID int

// Object is a Jade shared object: a piece of data, allocated at some
// granularity chosen by the programmer, that tasks declare accesses
// against. The runtime tracks versions: each completed write produces
// the next version of the object.
type Object struct {
	ID   ObjectID
	Name string
	// Size is the object's footprint in bytes; machine models use it
	// to cost communication.
	Size int
	// Data is the program's actual payload (owned by the application;
	// the runtime never inspects it).
	Data interface{}
	// Home is the processor whose memory module holds the object's
	// initial allocation. The owner of later versions is the last
	// writer.
	Home int
}

// Version numbers an object's state: version 0 is the initial
// allocation; each write produces the next version.
type Version int32

// AllocOpt configures Alloc.
type AllocOpt func(*Object)

// OnProcessor places the object's home in processor p's memory module.
func OnProcessor(p int) AllocOpt {
	return func(o *Object) { o.Home = p }
}
