package fault

import "slices"

// Injector answers a machine model's per-event fault questions for one
// run. All methods are safe on a nil receiver and answer "healthy", so
// the models consult it unconditionally; the per-proc counters make
// each decision a pure function of (seed, proc, event index), which is
// what keeps faulted runs deterministic.
//
// The injector is not goroutine-safe: like the machine models it
// serves, it assumes the single-goroutine discrete-event simulation.
type Injector struct {
	spec  Spec
	procs int

	// msgSeq and accSeq number each processor's outgoing protocol
	// messages and memory accesses; the indices key the drop/duplicate
	// and invalidation draws.
	msgSeq []uint64
	accSeq []uint64

	straggler []bool
	// victims marks the victim clusters among len(victims), built by
	// the first RemoteFactor call after Reset.
	victims []bool
}

// NewInjector builds an injector for a machine with the given
// processor count. The spec must be canonical (Canonicalize'd); a spec
// that injects nothing returns nil, so the machine models fall back to
// the exact healthy path.
func NewInjector(spec Spec, procs int) *Injector {
	if !spec.Active() || procs < 1 {
		return nil
	}
	return new(Injector).Reset(spec, procs)
}

// Reset makes in the injector NewInjector(spec, procs) builds, keeping
// its storage, and returns it; when the spec injects nothing it
// returns nil and leaves in alone. The run in last served must be over:
// a caller that replays run after run recycles one injector this way.
func (in *Injector) Reset(spec Spec, procs int) *Injector {
	if !spec.Active() || procs < 1 {
		return nil
	}
	in.spec, in.procs = spec, procs
	in.msgSeq = zeroed(in.msgSeq, procs)
	in.accSeq = zeroed(in.accSeq, procs)
	in.straggler = pick(zeroed(in.straggler, procs), spec.Seed, kStraggler, spec.Stragglers)
	in.victims = in.victims[:0]
	return in
}

// zeroed returns s with length n and every element zero, reusing its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// pick deterministically selects k of the len(sel) indices, marking
// them in sel, which must be all false, and returns sel: rank every
// index by its keyed hash and take the k smallest. Selection depends
// only on (seed, tag), never on event order.
func pick(sel []bool, seed, tag uint64, k int) []bool {
	n := len(sel)
	if k <= 0 {
		return sel
	}
	if k >= n {
		for i := range sel {
			sel[i] = true
		}
		return sel
	}
	for i := 0; i < n; i++ {
		rank := 0
		hi := mix(seed, tag, uint64(i))
		for j := 0; j < n; j++ {
			hj := mix(seed, tag, uint64(j))
			if hj < hi || (hj == hi && j < i) {
				rank++
			}
		}
		sel[i] = rank < k
	}
	return sel
}

// Enabled reports whether fault injection is on.
func (in *Injector) Enabled() bool { return in != nil }

// Spec returns the canonical spec the injector was built from.
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Lossy reports whether the injector can drop or duplicate a message,
// so messages must travel under a retransmit protocol.
func (in *Injector) Lossy() bool {
	return in != nil && (in.spec.DropPct > 0 || in.spec.DupPct > 0)
}

// NextMsg allocates the next message index for a sender. The machine
// model calls it once per logical protocol message and passes the
// index to Drop/Duplicate/Jitter for every (re)transmission attempt.
func (in *Injector) NextMsg(from int) uint64 {
	if in == nil {
		return 0
	}
	idx := in.msgSeq[from]
	in.msgSeq[from]++
	return idx
}

// Drop reports whether transmission attempt `attempt` of message
// (from, msg) is lost in flight.
func (in *Injector) Drop(from int, msg uint64, attempt int) bool {
	if in == nil {
		return false
	}
	return chance(in.spec.DropPct, in.spec.Seed, kDrop, uint64(from), msg, uint64(attempt))
}

// Duplicate reports whether the delivered copy of message (from, msg)
// is duplicated in flight.
func (in *Injector) Duplicate(from int, msg uint64) bool {
	if in == nil {
		return false
	}
	return chance(in.spec.DupPct, in.spec.Seed, kDup, uint64(from), msg)
}

// Jitter returns the deterministic backoff jitter for a retransmission
// of message (from, msg) at the given attempt, in [0, 1).
func (in *Injector) Jitter(from int, msg uint64, attempt int) float64 {
	if in == nil {
		return 0
	}
	return unit(in.spec.Seed, kJitter, uint64(from), msg, uint64(attempt))
}

// LinkFactor returns the bandwidth-degradation factor (>= 1) for the
// ordered link from -> to. Degraded links are a fixed, seed-determined
// subset of the ordered pairs. It is small enough to inline, so a
// healthy machine's transport pays no call per message.
func (in *Injector) LinkFactor(from, to int) float64 {
	if in == nil || in.spec.DegradedLinkPct <= 0 || from == to {
		return 1
	}
	return in.linkFactor(from, to)
}

// linkFactor draws LinkFactor on a machine with degraded links.
func (in *Injector) linkFactor(from, to int) float64 {
	if chance(in.spec.DegradedLinkPct, in.spec.Seed, kLink, uint64(from), uint64(to)) {
		return in.spec.LinkSlowdown
	}
	return 1
}

// CPUFactor returns the compute slowdown (>= 1) for processor p; the
// straggler set is fixed per seed.
func (in *Injector) CPUFactor(p int) float64 {
	if in == nil || !in.straggler[p] {
		return 1
	}
	return in.spec.StraggleFactor
}

// Straggler reports whether processor p is in the straggler set.
func (in *Injector) Straggler(p int) bool {
	return in != nil && in.straggler[p]
}

// RemoteFactor returns the remote-access latency factor (>= 1) for a
// DASH cluster or a PGAS locale. The victim set is the spec's
// VictimClusters clusters, chosen deterministically from the seed
// among nClusters (pick).
func (in *Injector) RemoteFactor(cluster, nClusters int) float64 {
	if in == nil || in.spec.VictimClusters <= 0 || nClusters < 1 {
		return 1
	}
	// Built on first use, so the injector needs no knowledge of the
	// machine's cluster geometry at build time.
	if len(in.victims) != nClusters {
		in.victims = pick(zeroed(in.victims, nClusters), in.spec.Seed, kVictim, in.spec.VictimClusters)
	}
	if in.victims[cluster] {
		return in.spec.RemoteLatencyFactor
	}
	return 1
}

// invWindowBits sizes the invalidation-storm window: draws are made
// per 32-access window, so a hit means a burst of forced misses rather
// than isolated ones.
const invWindowBits = 5

// Invalidate consumes one memory access on processor p and reports
// whether it falls in an invalidation storm (the whole 32-access
// window misses).
func (in *Injector) Invalidate(p int) bool {
	if in == nil || in.spec.InvalidatePct <= 0 {
		return false
	}
	idx := in.accSeq[p]
	in.accSeq[p]++
	return chance(in.spec.InvalidatePct, in.spec.Seed, kInvalidate, uint64(p), idx>>invWindowBits)
}
