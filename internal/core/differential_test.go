package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// recordingActuator logs every actuator call, and refuses a deterministic
// subset of them (a function of the call alone), so two schedulers that
// issue the same calls see the same failures.
type recordingActuator struct {
	calls []string
}

func (a *recordingActuator) call(kind string, j *Job, replicas int) error {
	c := fmt.Sprintf("%s %s %d", kind, j.ID, replicas)
	a.calls = append(a.calls, c)
	h := fnv.New32a()
	h.Write([]byte(c))
	if h.Sum32()%13 == 0 {
		return fmt.Errorf("refused: %s", c)
	}
	return nil
}

func (a *recordingActuator) StartJob(j *Job, replicas int) error { return a.call("start", j, replicas) }
func (a *recordingActuator) ShrinkJob(j *Job, to int) error      { return a.call("shrink", j, to) }
func (a *recordingActuator) ExpandJob(j *Job, to int) error      { return a.call("expand", j, to) }
func (a *recordingActuator) PreemptJob(j *Job) error             { return a.call("preempt", j, 0) }

// TestIncrementalMatchesFullRedistribute is a differential test of the
// log-off scheduler — the configuration production runs use, where every
// early-out (the Reschedule drain's stop rule and infeasible-need frontier,
// the submit gate, the clean-pass and empty-queue skips) is live — against
// the FullRedistribute reference that re-places every waiting job. Seeded
// random sequences of Submit, OnJobComplete, Reschedule, SetCapacity and
// Withdraw drive both in lockstep, across the four policies, with and
// without preemption and aging; the actuator call sequences and the final
// waiting and running sets must be identical.
func TestIncrementalMatchesFullRedistribute(t *testing.T) {
	for _, policy := range AllPolicies() {
		for _, preempt := range []bool{false, true} {
			for _, aging := range []float64{0, 0.01} {
				name := fmt.Sprintf("%s/preempt=%v/aging=%v", policy, preempt, aging)
				t.Run(name, func(t *testing.T) {
					for trial := int64(0); trial < 12; trial++ {
						differentialTrial(t, policy, preempt, aging, trial)
					}
				})
			}
		}
	}
}

func differentialTrial(t *testing.T, policy Policy, preempt bool, aging float64, trial int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(trial))
	cfg := Config{
		Policy:           policy,
		Capacity:         16 + rng.Intn(48),
		RescaleGap:       time.Duration(rng.Intn(240)) * time.Second,
		JobOverheadSlots: rng.Intn(2),
		StrictFCFS:       rng.Intn(4) == 0,
		AgingRate:        aging,
		EnablePreemption: preempt,
	}
	type side struct {
		s   *Scheduler
		act *recordingActuator
	}
	clk := newTestClock()
	var sides [2]side
	for i := range sides {
		c := cfg
		c.FullRedistribute = i == 0
		act := &recordingActuator{}
		s, err := NewScheduler(c, act, clk.now)
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = side{s, act}
	}
	label := fmt.Sprintf("trial %d (capacity %d, gap %v, overhead %d, strict %v)",
		trial, cfg.Capacity, cfg.RescaleGap, cfg.JobOverheadSlots, cfg.StrictFCFS)
	for step := 0; step < 300; step++ {
		op := rng.Intn(10)
		// Draw every random choice once, before applying the op to both
		// sides, so both see the same sequence.
		pick := rng.Int()
		minR := 1 + rng.Intn(10)
		maxR := minR + rng.Intn(20)
		prio := 1 + rng.Intn(5)
		capacity := 8 + rng.Intn(64)
		for _, sd := range sides {
			s := sd.s
			switch {
			case op < 4: // Submit
				j := &Job{ID: fmt.Sprintf("j%03d", step), Priority: prio, MinReplicas: minR, MaxReplicas: maxR}
				if err := s.Submit(j); err != nil {
					t.Fatal(err)
				}
			case op < 6: // OnJobComplete
				if run := s.Running(); len(run) > 0 {
					s.OnJobComplete(run[pick%len(run)])
				}
			case op < 8:
				s.Reschedule()
			case op < 9:
				// An error (refused victims left the capacity
				// over-committed) is compared through FreeSlots below.
				_ = s.SetCapacity(capacity)
			default: // Withdraw
				if q := s.Queued(); len(q) > 0 {
					if err := s.Withdraw(q[pick%len(q)]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		clk.advance(time.Duration(rng.Intn(90)) * time.Second)
		ref, got := sides[0].act.calls, sides[1].act.calls
		if len(ref) != len(got) {
			t.Fatalf("%s step %d (op %d): %d actuator calls, reference made %d\nreference: %v\nincremental: %v",
				label, step, op, len(got), len(ref), tail(ref), tail(got))
		}
		for k := range ref {
			if ref[k] != got[k] {
				t.Fatalf("%s step %d (op %d): call %d is %q, reference %q", label, step, op, k, got[k], ref[k])
			}
		}
		if r, g := sides[0].s, sides[1].s; r.FreeSlots() != g.FreeSlots() || r.NumQueued() != g.NumQueued() {
			t.Fatalf("%s step %d (op %d): free %d, queued %d; reference free %d, queued %d",
				label, step, op, g.FreeSlots(), g.NumQueued(), r.FreeSlots(), r.NumQueued())
		}
	}
	for _, set := range []struct {
		name string
		get  func(*Scheduler) []*Job
	}{{"queued", (*Scheduler).Queued}, {"running", (*Scheduler).Running}} {
		ref, got := jobKeys(set.get(sides[0].s)), jobKeys(set.get(sides[1].s))
		if fmt.Sprint(ref) != fmt.Sprint(got) {
			t.Fatalf("%s: final %s set differs\nreference:   %v\nincremental: %v", label, set.name, ref, got)
		}
	}
}

// jobKeys renders the fields a scheduling decision can change.
func jobKeys(jobs []*Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = fmt.Sprintf("%s:%v:%d:%d", j.ID, j.State, j.Replicas, j.Rescales)
	}
	return out
}

// tail is the last few entries of a call log, for failure messages.
func tail(calls []string) []string {
	if len(calls) > 8 {
		return calls[len(calls)-8:]
	}
	return calls
}
