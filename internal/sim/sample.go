package sim

import (
	"optcc/internal/core"
	"optcc/internal/report"
)

// samplePeriod is the stage-timing sample: each user times the per-step
// stages (scheduling, execution) of one transaction in every samplePeriod
// it runs and only counts the others' (report.Histogram.Skip). Transaction
// latency and every parked request's wait are timed on every transaction.
const samplePeriod = 16

// sampler picks which of one user's transactions are timed: one in each
// window of samplePeriod consecutive transactions, at an offset drawn from a
// seeded shuffle of the samplePeriod offsets that is redrawn every
// samplePeriod windows. A fixed rule such as tx % samplePeriod == 0 would
// alias with Instantiate's template cycle — with one user, only template 0
// would ever be timed; the shuffle visits every offset once per
// samplePeriod windows, and redrawing it breaks the longer cycles.
type sampler struct {
	k    int // the user's transactions so far
	perm [samplePeriod]uint8
	rng  uint64 // splitmix64 state
}

func newSampler(seed int64) sampler {
	s := sampler{rng: uint64(seed)}
	for i := range s.perm {
		s.perm[i] = uint8(i)
	}
	return s
}

// next reports whether the user's next transaction is timed.
func (s *sampler) next() bool {
	w, off := s.k/samplePeriod, s.k%samplePeriod
	s.k++
	if off == 0 && w%samplePeriod == 0 {
		for i := samplePeriod - 1; i > 0; i-- {
			j := s.draw() % uint64(i+1)
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
	}
	return off == int(s.perm[w%samplePeriod])
}

// draw is one splitmix64 step.
func (s *sampler) draw() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// userMetrics is one user goroutine's private histograms and yield count,
// merged into the run's Metrics after the users have joined, so recording
// takes no lock.
type userMetrics struct {
	wait, sched, exec, latency report.Histogram
	yields                     int
	_                          [64]byte
}

// newUserMetrics reserves each user's histograms, outside the allocation
// meter like the merge: half again a user's even share of the samples, so
// recording allocates nothing unless the job split is badly skewed (then:
// amortized growth, a cold path). Latency and wait keep a value for every
// transaction and every request; the stage histograms only for the sampled
// share.
func newUserMetrics(sys *core.System, users int, backend bool) []userMetrics {
	um := make([]userMetrics, users)
	steps, jobs := sys.StepCount()/users*3/2+16, sys.NumTxs()/users*3/2+16
	timed := steps/samplePeriod + 16
	for i := range um {
		um[i].wait.Grow(steps)
		um[i].sched.Grow(timed)
		um[i].latency.Grow(jobs)
		if backend {
			um[i].exec.Grow(timed)
		}
	}
	return um
}

// mergeUserMetrics folds the users' histograms into the run's metrics.
func mergeUserMetrics(m *Metrics, um []userMetrics) {
	for i := range um {
		m.WaitNs.Merge(&um[i].wait)
		m.SchedNs.Merge(&um[i].sched)
		m.ExecNs.Merge(&um[i].exec)
		m.TxLatencyNs.Merge(&um[i].latency)
		m.Yields += um[i].yields
	}
}
