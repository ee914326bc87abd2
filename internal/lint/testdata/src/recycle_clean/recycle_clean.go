// Package recycleclean is the negative fixture: release-last and
// rebind-after-release idioms the analyzer must accept.
package recycleclean

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 1024) }}

type freelist struct {
	mu   sync.Mutex
	free [][]byte
}

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

// releaseLast touches the buffer only before returning it.
func releaseLast(fl *freelist, v *version) byte {
	b := v.payload[0]
	fl.putBuf(v.payload)
	return b
}

// rebindAfterRelease swaps in a fresh buffer after releasing the old one;
// uses of the rebound variable are fine.
func rebindAfterRelease(fl *freelist, v *version, fresh []byte) byte {
	fl.putBuf(v.payload)
	v.payload = fresh
	return v.payload[0]
}

// poolRoundTrip gets, uses, puts — in that order.
func poolRoundTrip() byte {
	buf := bufPool.Get().([]byte)
	buf = buf[:8]
	b := buf[0]
	bufPool.Put(buf)
	return b
}

// unrelatedBuffers releases one buffer and keeps using another.
func unrelatedBuffers(fl *freelist, dead, live []byte) byte {
	fl.putBuf(dead)
	return live[0]
}

// header is a pooled record header released through a pointer.
type header struct {
	next *header
	rec  version
}

type headerList struct {
	free *header
}

//optcc:release
func (hl *headerList) freeLocked(h *header) {
	h.next = hl.free
	hl.free = h
}

type retired struct {
	ver *header
	at  int64
}

// freeEachLast frees a queue's headers, reading each entry only before
// its release; the loop variable is a fresh entry every iteration.
func freeEachLast(hl *headerList, queue []retired, horizon int64) int {
	n := 0
	for _, r := range queue {
		if r.at > horizon {
			continue
		}
		n += len(r.ver.rec.payload)
		hl.freeLocked(r.ver)
	}
	return n
}

// popAfterFree takes a header back off the list after freeing another.
func popAfterFree(hl *headerList, dead *header) *header {
	hl.freeLocked(dead)
	h := hl.free
	hl.free = h.next
	return h
}
