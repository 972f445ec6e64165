// Package fault is the deterministic fault injector for the simulated
// machines. A Spec describes how a machine is degraded — lossy and
// slow links, straggling processors, elevated remote-memory latency,
// cache-invalidation storms — and an Injector turns the spec into
// per-event decisions that are a pure function of (seed, processor,
// message index): the same seed always produces byte-identical traces,
// so faulted runs stay as reproducible and cacheable as healthy ones.
//
// The injector is nil-safe: machine models consult it unconditionally,
// and a nil injector answers "no fault" everywhere at effectively zero
// cost, keeping the healthy path byte-identical to a build without
// this package.
package fault

import "fmt"

// Schema identifies the fault-block JSON layout (embedded in
// jade-job/v1 run specs). Bump only on breaking changes.
const Schema = "jade-fault/v1"

// Domain tags keep the keyed draws for different decision kinds
// statistically independent even when their indices collide.
const (
	kDrop uint64 = iota + 1
	kDup
	kLink
	kStraggler
	kVictim
	kInvalidate
	kJitter
)

// Spec is a serializable machine-degradation description (schema
// jade-fault/v1). The zero value injects nothing. Each field applies
// to the machine models that implement its kind of fault (Kind):
// message loss to the iPSC model, degraded links and stragglers to the
// iPSC and PGAS models, victim latency to the DASH and PGAS models, and
// invalidation storms to DASH. A run spec canonicalizes away the
// fields its machine does not model (Restricted).
type Spec struct {
	// Schema must be "jade-fault/v1" (empty defaults to it).
	Schema string `json:"schema,omitempty"`
	// Seed keys every injected decision. Two runs of the same spec
	// with the same seed produce byte-identical results.
	Seed uint64 `json:"seed"`

	// DropPct is the per-transmission probability that a protocol
	// message is lost in flight and must be retransmitted after a
	// timeout (iPSC). Must stay below 1: a fully dead link never
	// delivers and the retransmit protocol is built for lossy links.
	DropPct float64 `json:"drop_pct,omitempty"`
	// DupPct is the probability a delivered message is duplicated in
	// flight; the receiver discards the duplicate (sequence-number
	// dedup) but the extra copy still occupies the sender NIC and
	// counts in the traffic metrics (iPSC).
	DupPct float64 `json:"dup_pct,omitempty"`
	// DegradedLinkPct is the fraction of ordered processor pairs whose
	// link runs at reduced bandwidth; LinkSlowdown is the factor the
	// byte time grows by on those links (default 4 when degraded links
	// are requested).
	DegradedLinkPct float64 `json:"degraded_link_pct,omitempty"`
	LinkSlowdown    float64 `json:"link_slowdown,omitempty"`
	// Stragglers is the number of processors running slow;
	// StraggleFactor is how much slower they compute (default 3 when
	// stragglers are requested). The victims are chosen
	// deterministically from the seed.
	Stragglers     int     `json:"stragglers,omitempty"`
	StraggleFactor float64 `json:"straggle_factor,omitempty"`

	// VictimClusters is the number of DASH clusters whose remote
	// accesses run RemoteLatencyFactor times slower (default 4 when
	// victims are requested), modeling a congested mesh segment.
	VictimClusters      int     `json:"victim_clusters,omitempty"`
	RemoteLatencyFactor float64 `json:"remote_latency_factor,omitempty"`
	// InvalidatePct is the probability that a 32-access window on a
	// processor is an invalidation storm: every cached access in the
	// window misses and pays the memory latency again (DASH).
	InvalidatePct float64 `json:"invalidate_pct,omitempty"`

	// Panic makes the run panic at startup. It exists for chaos
	// testing the serving stack's per-job panic isolation; no machine
	// model consults it.
	Panic bool `json:"panic,omitempty"`
}

// Canonicalize validates the spec and fills defaults so equivalent
// specs marshal to identical JSON (the jaded cache key hashes the
// canonical form).
func (s *Spec) Canonicalize() error {
	if s.Schema == "" {
		s.Schema = Schema
	}
	if s.Schema != Schema {
		return fmt.Errorf("fault spec: unknown schema %q (want %q)", s.Schema, Schema)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop_pct", s.DropPct},
		{"dup_pct", s.DupPct},
		{"degraded_link_pct", s.DegradedLinkPct},
		{"invalidate_pct", s.InvalidatePct},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("fault spec: %s %g out of range [0, 1)", p.name, p.v)
		}
	}
	if s.Stragglers < 0 {
		return fmt.Errorf("fault spec: stragglers %d must be >= 0", s.Stragglers)
	}
	if s.VictimClusters < 0 {
		return fmt.Errorf("fault spec: victim_clusters %d must be >= 0", s.VictimClusters)
	}
	if s.DegradedLinkPct > 0 && s.LinkSlowdown == 0 {
		s.LinkSlowdown = 4
	}
	if s.Stragglers > 0 && s.StraggleFactor == 0 {
		s.StraggleFactor = 3
	}
	if s.VictimClusters > 0 && s.RemoteLatencyFactor == 0 {
		s.RemoteLatencyFactor = 4
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"link_slowdown", s.LinkSlowdown},
		{"straggle_factor", s.StraggleFactor},
		{"remote_latency_factor", s.RemoteLatencyFactor},
	} {
		if f.v != 0 && (f.v < 1 || f.v > 1000) {
			return fmt.Errorf("fault spec: %s %g out of range [1, 1000]", f.name, f.v)
		}
	}
	return nil
}

// Kind is a set of the kinds of fault a machine models.
type Kind uint8

// The kinds of fault, each covering the spec fields named.
const (
	Loss         Kind = 1 << iota // drop_pct, dup_pct
	SlowLinks                     // degraded_link_pct, link_slowdown
	Straggling                    // stragglers, straggle_factor
	SlowRemote                    // victim_clusters, remote_latency_factor
	Invalidation                  // invalidate_pct
)

// Restricted returns the spec with the fields of every kind of fault
// outside k zeroed, as is each companion factor whose own fault is
// absent: on a machine that models only k, the two degrade it alike.
func (s Spec) Restricted(k Kind) Spec {
	if k&Loss == 0 {
		s.DropPct, s.DupPct = 0, 0
	}
	if k&SlowLinks == 0 || s.DegradedLinkPct == 0 {
		s.DegradedLinkPct, s.LinkSlowdown = 0, 0
	}
	if k&Straggling == 0 || s.Stragglers == 0 {
		s.Stragglers, s.StraggleFactor = 0, 0
	}
	if k&SlowRemote == 0 || s.VictimClusters == 0 {
		s.VictimClusters, s.RemoteLatencyFactor = 0, 0
	}
	if k&Invalidation == 0 {
		s.InvalidatePct = 0
	}
	return s
}

// Active reports whether the spec injects anything into a machine
// model (the chaos Panic hook is handled above the models and does not
// count).
func (s *Spec) Active() bool {
	if s == nil {
		return false
	}
	return s.DropPct > 0 || s.DupPct > 0 || s.DegradedLinkPct > 0 ||
		s.Stragglers > 0 || s.VictimClusters > 0 || s.InvalidatePct > 0
}
