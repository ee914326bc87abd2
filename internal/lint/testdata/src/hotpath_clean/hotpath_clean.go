// Package hotpathclean is the negative fixture: allocation-free idiom only;
// the analyzer must stay silent, including on the justified ignore.
package hotpathclean

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

type shard struct {
	mu    sync.Mutex
	count atomic.Int64
	buf   [8]int64
	n     int
}

//optcc:hotpath
func hash(v string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// fold XORs a buffer a word at a time through the allowlisted
// binary.LittleEndian.Uint64.
//
//optcc:hotpath
func fold(p []byte) uint64 {
	var w uint64
	for ; len(p) >= 8; p = p[8:] {
		w ^= binary.LittleEndian.Uint64(p)
	}
	return w
}

//optcc:hotpath
func (s *shard) record(x int64) bool {
	s.mu.Lock()
	if s.n < len(s.buf) {
		s.buf[s.n] = x
		s.n++
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	return false
}

//optcc:hotpath
func (s *shard) bump() int64 {
	return s.count.Add(1)
}

// callsAnnotated may call the annotated helpers and the vetted stdlib set.
//
//optcc:hotpath
func (s *shard) callsAnnotated(v string, shards int) int64 {
	start := time.Now()
	i := hash(v, shards)
	s.record(int64(i))
	_ = time.Since(start)
	return s.bump()
}

// valueLiteral returns a struct by value: stack-allocated, allowed.
//
//optcc:hotpath
func valueLiteral(a, b int64) struct{ x, y int64 } {
	return struct{ x, y int64 }{x: a, y: b}
}

// justified shows a documented escape hatch: the ignored line may allocate.
//
//optcc:hotpath
func justified(xs []int, x int) []int {
	//cclint:ignore hotpath cold warm-up path; steady state never grows the slice
	return append(xs, x)
}
