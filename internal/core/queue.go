package core

import (
	"math"
	"slices"
)

// maxSlotNeed is jobQueue.minNeed's "no waiting job" sentinel, and the pop
// limit that admits every need.
const maxSlotNeed = math.MaxInt

// jobQueue is the scheduler's wait queue of queued (and preempted) jobs: one
// binary max-heap per slot need (Scheduler.jobNeed), kept sorted by need and
// merged at the heads. Each heap is ordered like Scheduler.before — decreasing
// effective priority, ties broken by earlier submission, then ID — a total
// order, so merging the heads pops exactly the order a sort of the queue
// would. A handful of job classes means a handful of heaps: best finds the
// next job in O(k) for k distinct needs and take pops it in O(log n). A
// caller that can place only jobs needing fewer than some number of slots
// passes it to best as the limit, so jobs it cannot place are never popped.
//
// The heap invariant survives the passage of time: queued jobs all age at the
// same AgingRate, so their relative order is constant. The one exception is a
// mixed queue of aged and preempted jobs (preempted jobs do not age) — the
// scheduler re-establishes the invariant with init before popping in that
// configuration.
type jobQueue struct {
	s *Scheduler
	// heaps holds one heap per need seen, in increasing need order; a heap
	// that empties stays, so its backing array is reused.
	heaps []needHeap
	n     int // jobs across heaps
	// While parking is set (a Reschedule drain is popping the heaps), push
	// collects jobs in parked instead, so a job re-queued by the drain is not
	// popped again by the same drain; unpark pushes them back.
	parked  []*Job
	parking bool
	// pops counts heap pops: the queue's work, pinned by the tests.
	pops int
}

// needHeap is one jobQueue heap: the waiting jobs that need need slots.
type needHeap struct {
	need int
	jobs []*Job
}

// Len reports the number of waiting jobs, parked jobs aside.
func (q *jobQueue) Len() int { return q.n }

// push inserts a job, or parks it while a drain runs.
func (q *jobQueue) push(j *Job) {
	if q.parking {
		q.parked = append(q.parked, j)
		return
	}
	need := q.s.jobNeed(j)
	i := 0
	for i < len(q.heaps) && q.heaps[i].need < need {
		i++
	}
	if i == len(q.heaps) || q.heaps[i].need != need {
		q.heaps = slices.Insert(q.heaps, i, needHeap{need: need})
	}
	h := &q.heaps[i]
	h.jobs = append(h.jobs, j)
	q.up(h.jobs, len(h.jobs)-1)
	q.n++
}

// park diverts pushes to the parked buffer until unpark.
func (q *jobQueue) park() { q.parking = true }

// unpark ends parking and pushes the parked jobs onto the heaps.
func (q *jobQueue) unpark() {
	q.parking = false
	for _, j := range q.parked {
		q.push(j)
	}
	clear(q.parked)
	q.parked = q.parked[:0]
}

// minNeed is the smallest slot need among the heaps' jobs, maxSlotNeed when
// they are empty. Parked jobs are not counted.
func (q *jobQueue) minNeed() int {
	for i := range q.heaps {
		if len(q.heaps[i].jobs) > 0 {
			return q.heaps[i].need
		}
	}
	return maxSlotNeed
}

// best returns the heap whose head schedules first among the heaps of need
// below limit, or nil when they are all empty.
func (q *jobQueue) best(limit int) *needHeap {
	if q.n == 0 {
		return nil // skip the empty heaps: the common case at light load
	}
	var b *needHeap
	for i := range q.heaps {
		h := &q.heaps[i]
		if h.need >= limit {
			break
		}
		if len(h.jobs) > 0 && (b == nil || q.s.before(h.jobs[0], b.jobs[0])) {
			b = h
		}
	}
	return b
}

// take pops h's head, as found by best. h must be non-empty.
func (q *jobQueue) take(h *needHeap) *Job {
	q.pops++
	return q.removeAt(h, 0)
}

// removeAt removes and returns h's i-th job, restoring the heap invariant.
func (q *jobQueue) removeAt(h *needHeap, i int) *Job {
	j := h.jobs[i]
	n := len(h.jobs) - 1
	h.jobs[i] = h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	if i < n {
		q.down(h.jobs, i)
		q.up(h.jobs, i)
	}
	q.n--
	return j
}

// parkAhead parks every job needing at least from slots that schedules ahead
// of j ranked at effective priority p: the jobs a single-heap drain would
// have popped and re-queued before reaching j.
func (q *jobQueue) parkAhead(from int, j *Job, p float64) {
	for i := range q.heaps {
		h := &q.heaps[i]
		for h.need >= from && len(h.jobs) > 0 && compareAt(h.jobs[0], q.s.effPriority(h.jobs[0]), j, p) < 0 {
			q.parked = append(q.parked, q.take(h))
		}
	}
}

func (q *jobQueue) up(h []*Job, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.s.before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *jobQueue) down(h []*Job, i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && q.s.before(h[r], h[child]) {
			child = r
		}
		if !q.s.before(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// remove deletes an arbitrary job from the queue, restoring the heap
// invariant: O(n) to locate the job plus O(log n) to sift — the rare
// fleet-migration withdraw path, never a scheduling hot path.
func (q *jobQueue) remove(j *Job) bool {
	for k := range q.heaps {
		if i := slices.Index(q.heaps[k].jobs, j); i >= 0 {
			q.removeAt(&q.heaps[k], i)
			return true
		}
	}
	return false
}

// init re-establishes the heap invariant over every heap in O(n).
func (q *jobQueue) init() {
	for k := range q.heaps {
		h := q.heaps[k].jobs
		for i := len(h)/2 - 1; i >= 0; i-- {
			q.down(h, i)
		}
	}
}

// reset empties the queue, parked jobs included, keeping its pop count.
func (q *jobQueue) reset() { *q = jobQueue{s: q.s, pops: q.pops} }

// sorted returns the waiting jobs in decreasing priority order without
// disturbing the heaps.
func (q *jobQueue) sorted() []*Job {
	out := make([]*Job, 0, q.n)
	for _, h := range q.heaps {
		out = append(out, h.jobs...)
	}
	q.s.sortJobs(out)
	return out
}
