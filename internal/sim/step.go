package sim

import (
	"fmt"
	"math"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
)

// This file is the simulator's stepping API — the co-simulation surface the
// federation rebalancer drives. A batch run (Simulator.Run) owns the whole
// timeline at once; a stepped run advances the same event loop in bounded
// windows (Begin → StepTo… → Finish) and, between windows, lets an external
// coordinator inspect the waiting queue and move jobs in and out
// (CountQueued / AppendQueued / Withdraw / Inject / Preempt / Kick).
//
// Determinism contract: a stepped run is a pure function of (Config,
// workload, the sequence of StepTo instants, and the mutations applied
// between them). The event loop itself is untouched — windowing reuses the
// sharded mode's prepare/extend machinery, and events are still processed in
// the exact (time, kind, order) sequence of the batch loop. StepTo moves only
// the clock, so the utilization integral splits only where the allocation
// really changes (record folds the open term before every change, including
// those a coordinator's Inject, Preempt or Kick causes): a stepped run without
// mutations folds exactly the batch run's terms, and its Result equals the
// batch Result bit for bit at any StepTo instants. Batch Run is itself
// Begin followed by Finish. One boundary: a capacity event that falls after
// the last completion but before a StepTo instant still applies (a
// coordinator may yet inject work), where the batch run skips such trailing
// events, so CapacityEvents and EndCapacity can then count it.

// MigratedJob is a job in flight between federation members: everything a
// receiving simulator needs to resume it. Checkpointed jobs carry their
// completed iterations and pay restart+restore on their next start, exactly
// as a locally checkpoint-preempted job would.
type MigratedJob struct {
	Spec      JobSpec
	ItersDone float64
	// Checkpointed marks a job that had started (and was checkpointed)
	// before leaving its donor.
	Checkpointed bool
	// ForcedOut carries the donor's pending forced-restart attribution: the
	// job was evicted by a capacity reclaim, so its restart overhead counts
	// as work lost wherever it resumes.
	ForcedOut bool
	// Started/StartAt preserve the job's first-ever start for honest
	// response-time metrics on the receiving member.
	Started bool
	StartAt float64
}

// QueuedJob is a read-only projection of one waiting job, keyed by its slab
// Ref for Withdraw.
type QueuedJob struct {
	Ref         int32
	ID          string
	Class       model.Class
	Priority    int
	SubmitAt    float64
	MinReplicas int
	// Checkpointed reports whether the job has run before (it would migrate
	// with a checkpoint and pay restart+restore wherever it resumes).
	Checkpointed bool
}

// Begin installs the workload for a sequential run. No events are processed
// until the first StepTo or Finish. Sharded execution (Config.Shards) does
// not apply to stepped runs; the window machinery below is the sequential
// loop's.
func (s *Simulator) Begin(w Workload) error {
	if err := s.cfg.Availability.Validate(); err != nil {
		return err
	}
	order := submissionOrder(w)
	s.prepare(w, order, submissionRanks(w, order), model.Specs(), 0, 0, 0, 0, 0, false)
	return nil
}

// StepTo advances the simulation to instant t, processing every submission,
// capacity event, and heap event strictly before t, then moves the clock to
// exactly t. Events at t itself belong to the next window, so a coordinator
// acting at t always observes the state "just before t". Moving the clock
// folds nothing into the utilization integral: the open term runs on until
// the next allocation change, exactly as in a batch run.
func (s *Simulator) StepTo(t float64) error {
	subHi := s.subHi
	for subHi < len(s.order) && s.w.Jobs[s.order[subHi]].SubmitAt < t {
		subHi++
	}
	capHi := s.capHi
	ev := s.cfg.Availability.Events
	for capHi < len(ev) && ev[capHi].At < t {
		capHi++
	}
	s.extend(subHi, capHi, t, false)
	if err := s.runWindow(); err != nil {
		return err
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// Finish drains the remaining timeline and collects the result — the tail
// of every sequential run, batch or stepped.
func (s *Simulator) Finish() (Result, error) {
	s.extend(len(s.order), len(s.cfg.Availability.Events), math.Inf(1), true)
	if err := s.runWindow(); err != nil {
		return Result{}, err
	}
	return s.collect(s.w, []*Simulator{s}, s.sched.CapacityStats(), s.sched.Capacity())
}

// Clock returns the current simulated time in seconds.
func (s *Simulator) Clock() float64 { return s.now }

// Drained reports whether every submission has been ingested and no job is
// running or waiting — nothing remains but (droppable) stale heap events.
func (s *Simulator) Drained() bool {
	return s.cursor >= len(s.order) && s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0
}

// Idle reports whether no job is running or waiting right now (submissions
// may still be pending — see NextSubmitAt).
func (s *Simulator) Idle() bool {
	return s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0
}

// NextSubmitAt returns the submission instant of the next job the stepped
// run has not ingested yet, if any.
func (s *Simulator) NextSubmitAt() (float64, bool) {
	if s.cursor >= len(s.order) {
		return 0, false
	}
	return s.w.Jobs[s.order[s.cursor]].SubmitAt, true
}

// Processed returns the cumulative count of events processed — the
// coordinator's progress signal for stall detection.
func (s *Simulator) Processed() int { return s.processed }

// CurrentCapacity is the scheduler's slot capacity right now (after every
// applied availability event).
func (s *Simulator) CurrentCapacity() int { return s.sched.Capacity() }

// UsedSlots is the running jobs' total allocation right now.
func (s *Simulator) UsedSlots() int { return s.sched.Capacity() - s.sched.FreeSlots() }

// CountQueued fills counts with the waiting queue's job count per class
// (queued and checkpoint-preempted jobs) without copying the queue.
func (s *Simulator) CountQueued(counts *[model.XLarge + 1]int) {
	*counts = [model.XLarge + 1]int{}
	s.sched.VisitQueued(func(j *core.Job) bool {
		counts[s.cold[j.Ref].meta.Class]++
		return true
	})
}

// AppendQueued appends a snapshot of the waiting queue (queued and
// checkpoint-preempted jobs) to dst and returns the extended slice, so a
// coordinator can reuse one buffer across rounds. Jobs come in the
// scheduler's internal order (core.Scheduler.VisitQueued: per-need heaps by
// need, each in heap order) — deterministic for a deterministic run, but not
// sorted; coordinators impose their own order.
func (s *Simulator) AppendQueued(dst []QueuedJob) []QueuedJob {
	s.sched.VisitQueued(func(j *core.Job) bool {
		sj := s.byRef[j.Ref]
		dst = append(dst, QueuedJob{
			Ref:          j.Ref,
			ID:           j.ID,
			Class:        s.cold[j.Ref].meta.Class,
			Priority:     j.Priority,
			SubmitAt:     sj.submitAt,
			MinReplicas:  j.MinReplicas,
			Checkpointed: sj.started || j.State == core.StatePreempted || sj.migratedCkpt,
		})
		return true
	})
	return dst
}

// Withdraw removes a waiting job from this simulator, returning the
// migration record a receiving member's Inject consumes. Only queued or
// checkpoint-preempted jobs can be withdrawn.
func (s *Simulator) Withdraw(ref int32) (MigratedJob, error) {
	if ref < 0 || int(ref) >= len(s.byRef) {
		return MigratedJob{}, fmt.Errorf("sim: withdraw: ref %d out of range", ref)
	}
	sj := s.byRef[ref]
	c := &s.cold[ref]
	mj := MigratedJob{
		Spec: JobSpec{
			ID:       c.meta.ID,
			Class:    c.meta.Class,
			Priority: c.meta.Priority,
			SubmitAt: sj.submitAt,
		},
		ItersDone:    sj.itersDone,
		Checkpointed: sj.started || sj.job.State == core.StatePreempted || sj.migratedCkpt,
		ForcedOut:    sj.forcedOut,
		Started:      sj.started,
		StartAt:      sj.startAt,
	}
	if err := s.sched.Withdraw(&sj.job); err != nil {
		return MigratedJob{}, err
	}
	// A waiting job has no live heap events, but bump seq anyway so a
	// recycled slot can never resurrect a stale one.
	sj.seq++
	sj.forcedOut = false
	sj.migratedCkpt = false
	s.withdrawn++
	if s.cfg.Streaming {
		s.freeJobs = append(s.freeJobs, sj)
	}
	return mj, nil
}

// Inject submits a migrated job to this simulator at the current clock. The
// job keeps its original submission time (response/completion metrics stay
// honest) and, when checkpointed, pays restart+restore on its next start.
// Begin must have been called first.
func (s *Simulator) Inject(mj MigratedJob) error {
	spec, ok := s.specs[mj.Spec.Class]
	if !ok {
		return fmt.Errorf("sim: inject %s: unknown class %v", mj.Spec.ID, mj.Spec.Class)
	}
	if spec.MinReplicas > s.cfg.Capacity {
		return fmt.Errorf("sim: inject %s: min replicas %d exceed capacity %d",
			mj.Spec.ID, spec.MinReplicas, s.cfg.Capacity)
	}
	js := mj.Spec
	sj := s.newSimJob(&js, spec, -1)
	sj.itersDone = mj.ItersDone
	sj.lastUpdate = s.now
	sj.migratedCkpt = mj.Checkpointed
	sj.forcedOut = mj.ForcedOut && mj.Checkpointed
	if mj.Started {
		sj.started = true
		sj.startAt = mj.StartAt
		// The job's first start happened on its donor; fold it into this
		// member's experiment window so the fleet window stays exact.
		if !s.haveStart || mj.StartAt < s.firstStart {
			s.haveStart = true
			s.firstStart = mj.StartAt
		}
	}
	s.injected++
	if err := s.sched.Submit(&sj.job); err != nil {
		return err
	}
	s.scheduleKick()
	return nil
}

// Preempt forcibly reclaims up to slots worker slots from running jobs
// (core.Scheduler.Preempt lifted to the stepping API): victims are shrunk,
// then checkpoint-requeued lowest priority first, and land in the waiting
// queue (see AppendQueued) ready to migrate. Returns the slots actually freed.
func (s *Simulator) Preempt(slots int) int {
	return s.sched.Preempt(slots)
}

// Kick forces a scheduling pass at the current instant — the coordinator
// calls it after a batch of migrations so donors refill their freed slots
// immediately — and re-arms the simulator's gap kick.
func (s *Simulator) Kick() {
	s.sched.Reschedule()
	s.scheduleKick()
}
