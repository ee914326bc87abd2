package sim

// batchSizer adapts the central scheduler goroutine's intake-coalescing
// bound by AIMD on the backlog it actually observes, making Config.Batch a
// cap instead of a fixed size. Each drain reports how many requests it
// coalesced: hitting the current bound means the queue had at least that
// much backlog, so the bound grows additively (+1) toward the cap; draining
// less than half the bound means the queue is thin, so the bound halves
// toward 1 — where the goroutine decides one request per iteration. Under
// steady load it therefore earns its large critical sections, and when
// idle it never holds requests hostage to a batch size the traffic cannot
// fill. (The concurrent engine has no intake queue and no sizer.)
//
// A sizer belongs to the scheduler goroutine; it is not safe for concurrent
// use and needs no synchronization.
type batchSizer struct {
	cap, cur int
}

func newBatchSizer(cap int) *batchSizer {
	if cap < 1 {
		cap = 1
	}
	return &batchSizer{cap: cap, cur: 1}
}

// bound returns the current coalescing bound in [1, cap].
//
//optcc:hotpath
func (b *batchSizer) bound() int { return b.cur }

// observe feeds the size of the batch just drained and adjusts the bound.
//
//optcc:hotpath
func (b *batchSizer) observe(n int) {
	if b.cap == 1 {
		return
	}
	switch {
	case n >= b.cur:
		if b.cur < b.cap {
			b.cur++ // additive increase under backlog
		}
	case n <= b.cur/2:
		b.cur = max(1, b.cur/2) // multiplicative decrease as the queue drains
	}
}
