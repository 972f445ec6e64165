package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzSchedule turns data into a scenario. The first byte sets the
// number of root events; every event, when scheduled, reads one byte:
// its low three bits are its delay (0 is the current time, so ties and
// zero-delay events are common), bits 3-5 equal to 7 make it a burst
// of nearDepth+2 events at that delay, and the top two bits are how
// many children it schedules when it fires. Both simulators read the
// bytes in firing order, so an ordering difference shows as a trace
// difference. The run stops growing after maxEvents.
func fuzzSchedule(data []byte) func(s scheduler, emit func(string)) {
	const maxEvents = 2000
	return func(s scheduler, emit func(string)) {
		pos, made := 0, 0
		var spawn func(id string)
		spawn = func(id string) {
			if pos >= len(data) || made >= maxEvents {
				return
			}
			b := data[pos]
			pos++
			n := 1
			if b>>3&7 == 7 {
				n = nearDepth + 2
			}
			at := s.Now() + Time(b&7)
			for k := 0; k < n; k++ {
				made++
				kid := fmt.Sprintf("%s.%d", id, k)
				s.At(at, func() {
					emit(kid)
					for c := 0; c < int(b>>6); c++ {
						spawn(fmt.Sprintf("%s/%d", kid, c))
					}
				})
			}
		}
		if len(data) == 0 {
			return
		}
		roots := int(data[0]%32) + 1
		pos = 1
		for i := 0; i < roots; i++ {
			spawn(fmt.Sprint(i))
		}
	}
}

// FuzzEngineOrder runs byte-built schedules with nested rescheduling on
// the engine, fresh and after a Reset, and on the reference simulator,
// and requires the three traces to be equal.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{7, 0x41, 0x82, 0xc3, 0x00, 0x05, 0x3b, 0x81, 0x42})
	f.Add([]byte{31, 0x38, 0x38, 0x39, 0x40, 0x80, 0xc0, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{3, 0xff, 0x7f, 0xbf, 0x3f, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		build := fuzzSchedule(data)
		r := &refSim{}
		want, wantEnd := runScenario(r, r.Run, build)
		e := New()
		for _, pass := range []string{"fresh", "reset"} {
			got, end := runScenario(e, e.Run, build)
			if end != wantEnd || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s engine: %d events ending at %v, reference %d ending at %v\n got %v\nwant %v",
					pass, len(got), end, len(want), wantEnd, got, want)
			}
			e.Reset()
		}
	})
}
