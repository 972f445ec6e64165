package machine

import (
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// The one message transport of the centrally scheduled machines. A
// model only prices a link (Model.Link); the kit submits each message
// to the resource the price names, stretches it on a link the injector
// degrades, runs the retransmit protocol when the injector can lose or
// duplicate messages, and folds every transmission (sent, dropped,
// duplicated) where it charges the sender.

// Leg is what a link charges one message of Bytes payload: the
// resource it occupies leaving its sender (a NIC or a shared bus), its
// occupancy there on a healthy link, and its wire latency.
type Leg struct {
	Res      *sim.Processor
	Occ, Lat sim.Time
	Bytes    int
}

// maxSendAttempts bounds the retransmit protocol: after this many
// lost transmissions the delivery is forced — injected links are
// lossy, not dead, and the simulation must terminate at any drop rate.
const maxSendAttempts = 12

// sendRec is one message under the retransmit protocol: its sender,
// its leg (which carries the payload) and timeout, its index for the injector's
// draws, the attempt it is on, and the delivery to schedule.
type sendRec struct {
	from    int
	leg     Leg
	rto     sim.Time
	msg     uint64
	attempt int
	h       sim.Handler
	arg     int32
}

// Route prices a message of bytes from processor from to processor to:
// the model's Link, its occupancy stretched on a degraded link.
func (c *Central) Route(from, to, bytes int) Leg {
	l := c.model.Link(from, to, bytes)
	l.Occ = sim.Time(float64(l.Occ) * c.Inj.LinkFactor(from, to))
	return l
}

// Transmit sends one protocol message of bytes from processor from to
// processor to, leaving no earlier than at, and runs h(arg) where it
// lands as a pointer-free event; the receiver folds the arrival
// (Arrived or one of its refinements). When the injector can lose or
// duplicate messages, the message travels under the retransmit
// protocol (transmit).
func (c *Central) Transmit(at sim.Time, from, to, bytes int, h sim.Handler, arg int32) {
	l := c.Route(from, to, bytes)
	if !c.Inj.Lossy() {
		c.sent(bytes)
		c.Eng.AtCall(l.Res.Submit(at, l.Occ, nil)+l.Lat, h, arg)
		return
	}
	rec := sendRec{from: from, leg: l, msg: c.Inj.NextMsg(from), h: h, arg: arg,
		// Per-message retransmit timeout: the data push, the wire both
		// ways, and the receiver's push of a completion-sized ack.
		rto: l.Occ + 2*l.Lat + c.model.Link(to, from, c.par.CompletionBytes).Occ}
	var i int32
	if n := len(c.freeSends); n > 0 {
		i = c.freeSends[n-1]
		c.freeSends = c.freeSends[:n-1]
		c.sends[i] = rec
	} else {
		i = int32(len(c.sends))
		c.sends = append(c.sends, rec)
	}
	c.transmit(i, at)
}

// transmit sends attempt rec.attempt of record i, leaving no earlier
// than start. The injector may drop the transmission: the sender
// detects the loss by the record's timeout and retransmits with
// exponential backoff and deterministic jitter, through retryH, so no
// closure is built per message. It may instead duplicate it in flight,
// in which case the receiver discards the extra copy but the sender
// still pays for it. The delivery frees the record.
func (c *Central) transmit(i int32, start sim.Time) {
	rec := &c.sends[i]
	left := rec.leg.Res.Submit(start, rec.leg.Occ, nil)
	c.sent(rec.leg.Bytes)
	if c.Inj.Drop(rec.from, rec.msg, rec.attempt) && rec.attempt < maxSendAttempts-1 {
		c.dropped(rec.leg.Bytes)
		// Exponential backoff with deterministic jitter in [1, 2).
		backoff := sim.Time(float64(rec.rto) * float64(uint64(1)<<uint(rec.attempt)) *
			(1 + c.Inj.Jitter(rec.from, rec.msg, rec.attempt)))
		rec.attempt++
		c.Eng.AtCall(left+backoff, c.retryH, i)
		return
	}
	if c.Inj.Duplicate(rec.from, rec.msg) {
		rec.leg.Res.Submit(left, rec.leg.Occ, nil)
		c.sent(rec.leg.Bytes)
		c.duplicated(rec.leg.Bytes)
	}
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.Delivery, N: rec.attempt + 1})
	}
	c.Eng.AtCall(left+rec.leg.Lat, rec.h, rec.arg)
	c.freeSends = append(c.freeSends, i)
}

// RoundTrip sends a request on req, leaving no earlier than at, and
// once it lands a reply on rep, and returns when the reply lands. Both
// legs fly the request's latency, which its remote end sets. The
// request, a descriptor counting toward no message total, is folded as
// sent and delivered; the reply as sent, and its receiver folds it.
func (c *Central) RoundTrip(at sim.Time, req, rep Leg) sim.Time {
	c.sent(req.Bytes)
	c.Arrived(req.Bytes, 0)
	c.sent(rep.Bytes)
	return rep.Res.Submit(req.Res.Submit(at, req.Occ, nil)+req.Lat, rep.Occ, nil) + req.Lat
}

// MainFetch blocks the main program on a synchronous RoundTrip whose
// reply brings batch: the request leaves once processor 0 is free, and
// processor 0 waits for the reply, a FetchEnd. It folds the reply, a
// one-sided get's data leg when get is set, its objects of class Main.
func (c *Central) MainFetch(req, rep Leg, batch []jade.Access, get bool) {
	issued := c.CPUs[0].FreeAt()
	arrive := c.RoundTrip(issued, req, rep)
	c.CPUs[0].Advance(arrive)
	bytes := c.fetched(0, batch, obsv.Main, float64(issued), float64(arrive))
	if get {
		c.got(bytes, len(batch))
	} else {
		c.Arrived(bytes, len(batch))
	}
	if c.Sink != nil {
		c.Sink.Record(obsv.Event{Kind: obsv.FetchEnd, Task: -1, At: float64(issued), End: float64(arrive)})
	}
}
