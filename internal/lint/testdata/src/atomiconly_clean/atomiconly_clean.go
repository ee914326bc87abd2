// Package atomiconlyclean is the negative fixture: consistent atomic access
// everywhere, the typed-wrapper idiom, and construction-time initialization.
package atomiconlyclean

import "sync/atomic"

type stats struct {
	// hits is only ever touched through sync/atomic.
	hits int64
	// count uses the typed wrapper, which makes mixed access impossible.
	count atomic.Int64
}

func (s *stats) recordHit() {
	atomic.AddInt64(&s.hits, 1)
}

func (s *stats) readHits() int64 {
	return atomic.LoadInt64(&s.hits)
}

func (s *stats) casHits(old, new int64) bool {
	return atomic.CompareAndSwapInt64(&s.hits, old, new)
}

func (s *stats) bump() int64 {
	return s.count.Add(1)
}

// newStats initializes via a composite literal: construction happens-before
// sharing, so the keyed initialization is allowed.
func newStats() *stats {
	return &stats{hits: 0}
}

// flags uses sync/atomic's Or/And with the result discarded (a bare call or
// `_ =`), the only forms the analyzer admits.
type flags struct {
	bits atomic.Uint32
	raw  uint32
}

func (f *flags) set(m uint32) {
	f.bits.Or(m)
}

func (f *flags) setBlank(m uint32) {
	_ = f.bits.Or(m)
}

func (f *flags) clear(m uint32) {
	atomic.AndUint32(&f.raw, ^m)
}

func (f *flags) isSet(m uint32) bool {
	return atomic.LoadUint32(&f.raw)&m != 0
}
