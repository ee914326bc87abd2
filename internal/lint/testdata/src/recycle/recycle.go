// Package recycle is the positive fixture: pooled buffers used after being
// returned to a pool or freelist.
package recycle

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 1024) }}

type freelist struct {
	mu   sync.Mutex
	free [][]byte
}

// putBuf returns a dead buffer to the freelist.
//
//optcc:release
func (fl *freelist) putBuf(p []byte) {
	fl.mu.Lock()
	fl.free = append(fl.free, p)
	fl.mu.Unlock()
}

type version struct {
	payload []byte
	sum     byte
}

func useAfterPoolPut() byte {
	buf := bufPool.Get().([]byte)
	buf = buf[:16]
	bufPool.Put(buf)
	return buf[0] // want "use of released buffer"
}

func useAfterFreelistPut(fl *freelist, v *version) byte {
	fl.putBuf(v.payload)
	return v.payload[3] // want "use of released buffer"
}

func writeAfterRelease(fl *freelist, v *version) {
	fl.putBuf(v.payload)
	v.payload[0] = 1 // want "use of released buffer"
}

func doubleRelease(fl *freelist, p []byte) {
	fl.putBuf(p)
	fl.putBuf(p) // want "double release"
}

func aliasThroughChain(fl *freelist, v *version) int {
	fl.putBuf(v.payload)
	return len(v.payload) // want "use of released buffer"
}

// header is a pooled record header: a release hands the whole struct,
// payload and all, back through a pointer.
type header struct {
	next *header
	rec  version
}

type headerList struct {
	mu   sync.Mutex
	free *header
}

// freeLocked returns a dead header to the freelist.
//
//optcc:release
func (hl *headerList) freeLocked(h *header) {
	h.next = hl.free
	hl.free = h
}

func useAfterHeaderFree(hl *headerList, h *header) byte {
	hl.freeLocked(h)
	return h.rec.sum // want "use of released buffer"
}

func writeAfterHeaderFree(hl *headerList, h *header) {
	hl.freeLocked(h)
	h.rec.payload[0] = 1 // want "use of released buffer"
}

type retired struct {
	ver *header
	at  int64
}

func doubleHeaderFree(hl *headerList, r retired) {
	hl.freeLocked(r.ver)
	hl.freeLocked(r.ver) // want "double release"
}
