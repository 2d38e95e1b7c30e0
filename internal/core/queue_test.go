package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// startCounter accepts every actuator call and counts start attempts.
type startCounter struct {
	benchActuator
	starts int
}

func (a *startCounter) StartJob(*Job, int) error {
	a.starts++
	return nil
}

// TestBacklogQueueWorkPinned pins the queue work of BenchmarkSchedulerBacklog's
// sequence at 2,000 jobs. The scheduler is deterministic, so heap pops and
// acts (start, shrink, expand and preempt attempts) are exact functions of
// the input: a drain that pops jobs it cannot place, or a Figure 3 pass that
// pops jobs too big for the free slots, raises the pop count while every
// decision stays the same. Each completion runs one Figure 3 pass, which must
// pop exactly the jobs it tries to start.
func TestBacklogQueueWorkPinned(t *testing.T) {
	const (
		wantPops = 2_357
		wantActs = 3_609
	)
	act := &startCounter{}
	s := runBacklog(t, 2_000, act, func(s *Scheduler, j *Job) {
		pops, starts := s.queue.pops, act.starts
		s.OnJobComplete(j)
		if p, st := s.queue.pops-pops, act.starts-starts; p != st {
			t.Fatalf("completing %s: Figure 3 pass popped %d jobs for %d start attempts", j.ID, p, st)
		}
	})
	if s.queue.pops != wantPops || s.acts != wantActs {
		t.Errorf("pops %d, acts %d; want %d, %d", s.queue.pops, s.acts, wantPops, wantActs)
	}
}

// TestJobQueueModel drives the per-need heaps through long random
// interleavings of push, limited pop, remove, aging re-initialisation,
// park/unpark and reset, against a plain slice of the same jobs sorted with
// sortJobs. After every step minNeed and Len must be exact, and every pop
// must return the first job of the sorted reference among the needs the
// limit admits.
func TestJobQueueModel(t *testing.T) {
	for _, aging := range []float64{0, 0.01} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("aging=%v/seed=%d", aging, seed), func(t *testing.T) {
				queueModelTrial(t, aging, seed)
			})
		}
	}
}

func queueModelTrial(t *testing.T, aging float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := newTestClock()
	s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, JobOverheadSlots: 1, AgingRate: aging},
		benchActuator{}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	s.refresh()
	q := &s.queue
	var ref, parked []*Job // ref: the jobs in the heaps, unordered
	id := 0
	newJob := func() *Job {
		id++
		j := &Job{
			ID:          fmt.Sprintf("j%05d", id),
			Priority:    1 + rng.Intn(4),
			MinReplicas: 1 + rng.Intn(10), // ten needs
			SubmitTime:  clk.now().Add(-time.Duration(rng.Intn(4)) * time.Second),
		}
		j.MaxReplicas = j.MinReplicas + rng.Intn(8)
		if rng.Intn(4) == 0 {
			j.State = StatePreempted // does not age: mixes orders under aging
		}
		restoreCaches(j)
		return j
	}
	needs := map[int]bool{}
	for step := 0; step < 6_000; step++ {
		switch op := rng.Intn(20); {
		case op < 8:
			j := newJob()
			needs[s.jobNeed(j)] = true
			q.push(j)
			if q.parking {
				parked = append(parked, j)
			} else {
				ref = append(ref, j)
			}
		case op < 14:
			limit := 2 + rng.Intn(12)
			if rng.Intn(3) == 0 {
				limit = maxSlotNeed
			}
			s.sortJobs(ref)
			i := slices.IndexFunc(ref, func(j *Job) bool { return s.jobNeed(j) < limit })
			h := q.best(limit)
			if i < 0 {
				if h != nil {
					t.Fatalf("step %d: best(%d) has head %s, reference has no job below the limit", step, limit, h.jobs[0].ID)
				}
				break
			}
			if h == nil {
				t.Fatalf("step %d: best(%d) = nil, reference %s", step, limit, ref[i].ID)
			}
			if got := q.take(h); got != ref[i] {
				t.Fatalf("step %d: popped %s below %d, reference %s", step, got.ID, limit, ref[i].ID)
			}
			ref = slices.Delete(ref, i, i+1)
		case op < 15:
			if len(ref) == 0 {
				break
			}
			k := rng.Intn(len(ref))
			if !q.remove(ref[k]) {
				t.Fatalf("step %d: remove(%s) = false", step, ref[k].ID)
			}
			ref = slices.Delete(ref, k, k+1)
		case op < 17:
			// Time passes: queued jobs age, preempted ones do not, so under
			// aging the heaps need init before they pop in order again.
			clk.advance(time.Duration(rng.Intn(600)) * time.Second)
			s.refresh()
			if aging > 0 {
				q.init()
			}
		case op < 19:
			if q.parking {
				q.unpark()
				ref = append(ref, parked...)
				parked = parked[:0]
			} else {
				q.park()
			}
		default:
			if rng.Intn(10) == 0 {
				q.reset()
				ref, parked = ref[:0], parked[:0]
				if q.parking {
					t.Fatalf("step %d: reset left the queue parking", step)
				}
			}
		}
		least := maxSlotNeed
		for _, j := range ref {
			least = min(least, s.jobNeed(j))
		}
		if q.Len() != len(ref) || q.minNeed() != least {
			t.Fatalf("step %d: Len %d, minNeed %d; reference %d, %d", step, q.Len(), q.minNeed(), len(ref), least)
		}
	}
	if len(needs) < 8 {
		t.Fatalf("only %d distinct needs exercised", len(needs))
	}
}
