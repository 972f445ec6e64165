package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// deliveries is a sink keeping the attempt count of every Delivery
// event.
type deliveries []int

func (d *deliveries) Record(e obsv.Event) {
	if e.Kind == obsv.Delivery {
		*d = append(*d, e.N)
	}
}

// At a 99% drop rate nearly every message exhausts its attempts: the
// forced delivery must still land each one, so every task runs and
// Drain's message law holds.
func TestLossyTransportDeliversEveryMessage(t *testing.T) {
	m := newToy(4)
	m.Inj = fault.NewInjector(fault.Spec{Seed: 3, DropPct: 0.99}, 4)
	var d deliveries
	m.Sink = &d
	r := readers(m, 20).Finish()
	if r.TaskCount != 20 {
		t.Fatalf("ran %d of 20 tasks", r.TaskCount)
	}
	if int64(len(d)) != m.ledger.delivered.n {
		t.Fatalf("%d Delivery events for %d delivered messages", len(d), m.ledger.delivered.n)
	}
	retransmits, forced := 0, 0
	for _, n := range d {
		if n-1 > maxSendAttempts-1 {
			t.Fatalf("a message was retransmitted %d times, past the bound of %d", n-1, maxSendAttempts-1)
		}
		if n == maxSendAttempts {
			forced++
		}
		retransmits += n - 1
	}
	if int64(retransmits) != r.MsgRetransmits {
		t.Fatalf("Delivery events count %d retransmits, the fold %d", retransmits, r.MsgRetransmits)
	}
	if forced == 0 {
		t.Fatal("no message reached the forced delivery")
	}
}

// Each Delivery event's N is the number of times its message was
// transmitted, an in-flight duplicate aside.
func TestDeliveryCountsTransmissions(t *testing.T) {
	m := newToy(2)
	m.Inj = fault.NewInjector(fault.Spec{Seed: 9, DropPct: 0.6, DupPct: 0.2}, 2)
	var d deliveries
	m.Sink = &d
	landed := m.Eng.RegisterHandler(func(int32) { m.Arrived(100, 0) })
	var retried, dups bool
	for k := 0; k < 100; k++ {
		sent, dup := m.ledger.sent.n, m.ledger.duplicated.n
		m.Transmit(m.Eng.Now(), 0, 1, 100, landed, 0)
		m.Eng.Run()
		if len(d) != k+1 {
			t.Fatalf("message %d: %d Delivery events in all, want %d", k, len(d), k+1)
		}
		if n, tx := d[k], m.ledger.sent.n-sent-(m.ledger.duplicated.n-dup); int64(n) != tx {
			t.Fatalf("message %d: Delivery N = %d, transmitted %d times", k, n, tx)
		}
		retried = retried || d[k] > 1
		dups = dups || m.ledger.duplicated.n > dup
	}
	if !retried || !dups {
		t.Fatalf("the draws exercised retransmits %t and duplicates %t; want both", retried, dups)
	}
	m.Drain()
}

// An injector that only degrades links stretches the occupancy of a
// message on a degraded link and runs no retransmit protocol.
func TestLinksOnlyInjectorScalesOccupancy(t *testing.T) {
	spec := fault.Spec{Seed: 5, DegradedLinkPct: 0.5, LinkSlowdown: 4}
	inj := fault.NewInjector(spec, 8)
	if inj.Lossy() {
		t.Fatal("a links-only injector is lossy")
	}
	seen := map[float64]bool{}
	for to := 1; to < 8; to++ {
		m := newToy(8)
		m.Inj = inj
		var d deliveries
		m.Sink = &d
		var at sim.Time
		landed := m.Eng.RegisterHandler(func(int32) { at = m.Eng.Now(); m.Arrived(1000, 0) })
		m.Transmit(0, 0, to, 1000, landed, 0)
		m.Drain()
		f := inj.LinkFactor(0, to)
		seen[f] = true
		if want := sim.Time(float64(m.Link(0, to, 1000).Occ)*f) + 1e-6; at != want {
			t.Errorf("link 0→%d (factor %g): landed at %g, want %g", to, f, at, want)
		}
		if len(d) != 0 {
			t.Errorf("link 0→%d: %d Delivery events on a lossless machine", to, len(d))
		}
	}
	if !seen[1] || !seen[spec.LinkSlowdown] {
		t.Fatalf("link factors %v: want both healthy and degraded links", seen)
	}
}

// A round trip folds its request, a descriptor, as sent and delivered,
// and its reply as sent; once the caller folds the reply's arrival the
// tallies balance and Drain's message law holds.
func TestRoundTripBalancesTallies(t *testing.T) {
	m := newToy(2)
	req, rep := m.Route(0, 1, 24), m.Route(1, 0, 100)
	if at, want := m.RoundTrip(0, req, rep), req.Occ+rep.Occ+2*req.Lat; at != want {
		t.Fatalf("reply landed at %g, want %g", at, want)
	}
	m.Arrived(rep.Bytes, 1)
	l := m.ledger
	if want := (tally{2, 124}); l.sent != want || l.delivered != want {
		t.Fatalf("sent %+v, delivered %+v; want both %+v", l.sent, l.delivered, want)
	}
	if r := m.Metrics; r.MsgCount != 1 || r.MsgBytes != 100 {
		t.Fatalf("the request counted toward a message total: %d messages, %d bytes", r.MsgCount, r.MsgBytes)
	}
	m.Drain()
}
