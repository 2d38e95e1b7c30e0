package core

import (
	"math"
	"slices"
)

// maxSlotNeed is jobQueue.minNeed's "no waiting job" sentinel.
const maxSlotNeed = math.MaxInt

// jobQueue is the scheduler's indexed wait queue: a binary max-heap of queued
// (and preempted) jobs ordered like Scheduler.before — decreasing effective
// priority, ties broken by earlier submission, then ID. It replaces the
// sorted-slice queue whose full re-sort on every enqueue made million-job
// backlogs O(n log n) per scheduling event; heap operations are O(log n).
// before is a total order, so popping the heap yields exactly the order a
// sort of the queue would.
//
// The heap invariant survives the passage of time: queued jobs all age at the
// same AgingRate, so their relative order is constant. The one exception is a
// mixed queue of aged and preempted jobs (preempted jobs do not age) — the
// scheduler re-establishes the invariant with init before popping in that
// configuration.
type jobQueue struct {
	s    *Scheduler
	jobs []*Job
	// needs counts the heap's jobs per slot need (Scheduler.jobNeed),
	// sorted by need and free of zero counts, so minNeed is exact and O(1).
	// A handful of job classes means a handful of entries.
	needs []needCount
	// While parking is set (a Reschedule drain is popping the heap), push
	// collects jobs in parked instead, so a job re-queued by the drain is not
	// popped again by the same drain; unpark pushes them back.
	parked  []*Job
	parking bool
}

// needCount is one jobQueue.needs entry: n heap jobs need need slots.
type needCount struct{ need, n int }

// Len reports the number of waiting jobs.
func (q *jobQueue) Len() int { return len(q.jobs) }

// push inserts a job, or parks it while a drain runs.
func (q *jobQueue) push(j *Job) {
	if q.parking {
		q.parked = append(q.parked, j)
		return
	}
	q.count(j, 1)
	q.jobs = append(q.jobs, j)
	q.up(len(q.jobs) - 1)
}

// park diverts pushes to the parked buffer until unpark.
func (q *jobQueue) park() { q.parking = true }

// unpark ends parking and pushes the parked jobs onto the heap.
func (q *jobQueue) unpark() {
	q.parking = false
	for _, j := range q.parked {
		q.push(j)
	}
	clear(q.parked)
	q.parked = q.parked[:0]
}

// minNeed is the smallest slot need among the heap's jobs, maxSlotNeed when
// the heap is empty. Parked jobs are not counted.
func (q *jobQueue) minNeed() int {
	if len(q.needs) == 0 {
		return maxSlotNeed
	}
	return q.needs[0].need
}

// count adds d to j's need count, inserting or dropping the entry as it
// appears or empties.
func (q *jobQueue) count(j *Job, d int) {
	need := q.s.jobNeed(j)
	i := 0
	for i < len(q.needs) && q.needs[i].need < need {
		i++
	}
	if i == len(q.needs) || q.needs[i].need != need {
		q.needs = slices.Insert(q.needs, i, needCount{need: need, n: d})
		return
	}
	q.needs[i].n += d
	if q.needs[i].n == 0 {
		q.needs = slices.Delete(q.needs, i, i+1)
	}
}

// peek returns the highest-priority job without removing it. The queue must
// be non-empty.
func (q *jobQueue) peek() *Job { return q.jobs[0] }

// pop removes and returns the highest-priority job. The queue must be
// non-empty.
func (q *jobQueue) pop() *Job {
	top := q.jobs[0]
	q.count(top, -1)
	n := len(q.jobs) - 1
	q.jobs[0] = q.jobs[n]
	q.jobs[n] = nil
	q.jobs = q.jobs[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *jobQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.s.before(q.jobs[i], q.jobs[parent]) {
			return
		}
		q.jobs[i], q.jobs[parent] = q.jobs[parent], q.jobs[i]
		i = parent
	}
}

func (q *jobQueue) down(i int) {
	n := len(q.jobs)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && q.s.before(q.jobs[r], q.jobs[child]) {
			child = r
		}
		if !q.s.before(q.jobs[child], q.jobs[i]) {
			return
		}
		q.jobs[i], q.jobs[child] = q.jobs[child], q.jobs[i]
		i = child
	}
}

// remove deletes an arbitrary job from the queue, restoring the heap
// invariant: O(n) to locate the job plus O(log n) to sift — the rare
// fleet-migration withdraw path, never a scheduling hot path.
func (q *jobQueue) remove(j *Job) bool {
	for i, cur := range q.jobs {
		if cur != j {
			continue
		}
		q.count(j, -1)
		n := len(q.jobs) - 1
		q.jobs[i] = q.jobs[n]
		q.jobs[n] = nil
		q.jobs = q.jobs[:n]
		if i < n {
			q.down(i)
			q.up(i)
		}
		return true
	}
	return false
}

// init re-establishes the heap invariant over the whole queue in O(n).
func (q *jobQueue) init() {
	for i := len(q.jobs)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// bulkAdd appends a batch of jobs and rebuilds the heap — O(n), cheaper than
// len(batch) pushes when re-queueing a scanned backlog.
func (q *jobQueue) bulkAdd(jobs []*Job) {
	for _, j := range jobs {
		q.count(j, 1)
	}
	q.jobs = append(q.jobs, jobs...)
	q.init()
}

// reset empties the queue.
func (q *jobQueue) reset() {
	clear(q.jobs)
	q.jobs = q.jobs[:0]
	q.needs = q.needs[:0]
}

// sorted returns the waiting jobs in decreasing priority order without
// disturbing the heap.
func (q *jobQueue) sorted() []*Job {
	out := append([]*Job(nil), q.jobs...)
	q.s.sortJobs(out)
	return out
}
