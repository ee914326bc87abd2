// Package atomiconly is the positive fixture: fields accessed with
// function-style sync/atomic in one place and plainly in another.
package atomiconly

import "sync/atomic"

type stats struct {
	hits   int64
	misses int64
}

var global int64

func (s *stats) recordHit() {
	atomic.AddInt64(&s.hits, 1)
}

func (s *stats) readHitsRacy() int64 {
	return s.hits // want "plain access to hits"
}

func (s *stats) resetRacy() {
	s.hits = 0 // want "plain access to hits"
}

func bumpGlobal() {
	atomic.AddInt64(&global, 1)
}

func readGlobalRacy() int64 {
	return global // want "plain access to global"
}

// readMisses is fine: misses is never touched atomically.
func (s *stats) readMisses() int64 {
	return s.misses
}

// flags uses sync/atomic's Or/And, whose returned old value go1.24.0
// miscompiles when it is used.
type flags struct {
	bits atomic.Uint32
	raw  uint32
}

func (f *flags) setReportsOld(m uint32) bool {
	return f.bits.Or(m)&m != 0 // want "result of atomic Or/And is used"
}

func (f *flags) clearReportsOld(m uint32) uint32 {
	old := atomic.AndUint32(&f.raw, ^m) // want "result of atomic Or/And is used"
	return old
}
