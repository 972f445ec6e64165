package sim

// Processor models a serially-busy resource (a CPU, a network link, a
// DMA engine). Work items submitted to it execute one after another;
// each occupies the resource for its stated duration.
type Processor struct {
	eng *Engine
	// freeAt is the earliest virtual time at which the resource can
	// start new work.
	freeAt Time
	// busy accumulates total occupied time, for utilization metrics.
	busy Time
}

// NewProcessor returns a resource bound to eng, free at time zero.
func NewProcessor(eng *Engine) *Processor {
	return &Processor{eng: eng}
}

// MakeProcessor returns a resource value bound to eng, free at time
// zero. Machines that hold processors by value (one slab instead of
// one allocation per resource) construct them with this.
func MakeProcessor(eng *Engine) Processor {
	return Processor{eng: eng}
}

// FreeAt returns the earliest time the resource can start new work.
func (p *Processor) FreeAt() Time { return p.freeAt }

// BusyTime returns the total time the resource has been occupied.
func (p *Processor) BusyTime() Time { return p.busy }

// Start returns when work submitted now, no earlier than earliest,
// would start: the latest of earliest, the resource's free time and
// the current time.
func (p *Processor) Start(earliest Time) Time {
	start := p.freeAt
	if earliest > start {
		start = earliest
	}
	if start < p.eng.Now() {
		start = p.eng.Now()
	}
	return start
}

// Submit occupies the resource for d seconds starting no earlier than
// both `earliest` and the resource's free time, then invokes done (if
// non-nil) at the completion time. It returns the completion time.
func (p *Processor) Submit(earliest Time, d Time, done func(start, end Time)) Time {
	start := p.Start(earliest)
	end := start + d
	p.freeAt = end
	p.busy += d
	if done != nil {
		p.eng.At(end, func() { done(start, end) })
	}
	return end
}

// SubmitCall occupies the resource exactly like Submit and schedules
// registered handler h applied to arg at the completion time. It is
// the pointer-free counterpart of Submit; a caller that needs the
// span's start in the handler takes it from Start just before.
func (p *Processor) SubmitCall(earliest Time, d Time, h Handler, arg int32) Time {
	end := p.Start(earliest) + d
	p.freeAt = end
	p.busy += d
	p.eng.AtCall(end, h, arg)
	return end
}

// Advance moves the resource's free time forward to t if t is later.
// Used when a processor must idle until an external condition.
func (p *Processor) Advance(t Time) {
	if t > p.freeAt {
		p.freeAt = t
	}
}
