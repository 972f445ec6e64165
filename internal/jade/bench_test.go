package jade

import "testing"

// BenchmarkSynchronizerChain measures dependence tracking for a long
// read-write chain on one object: each task waits on exactly one
// predecessor, the last write.
func BenchmarkSynchronizerChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, _ := newMock()
		o := rt.Alloc("x", 8, nil)
		for k := 0; k < 512; k++ {
			rt.WithOnly(func(s *Spec) { s.RdWr(o) }, 0, func() {})
		}
		rt.Wait()
	}
}

// BenchmarkSynchronizerIndependent measures the no-conflict fast path.
func BenchmarkSynchronizerIndependent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, _ := newMock()
		objs := make([]*Object, 512)
		for k := range objs {
			objs[k] = rt.Alloc("o", 8, nil)
		}
		for _, o := range objs {
			o := o
			rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() {})
		}
		rt.Wait()
	}
}

// BenchmarkSynchronizerFanOut measures one writer releasing many
// readers, repeated in phases.
func BenchmarkSynchronizerFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, _ := newMock()
		o := rt.Alloc("x", 8, nil)
		for phase := 0; phase < 8; phase++ {
			rt.WithOnly(func(s *Spec) { s.Wr(o) }, 0, func() {})
			for r := 0; r < 64; r++ {
				rt.WithOnly(func(s *Spec) { s.Rd(o) }, 0, func() {})
			}
		}
		rt.Wait()
	}
}
