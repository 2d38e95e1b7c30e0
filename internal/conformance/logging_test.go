package conformance

import (
	"reflect"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// loggingBurst is the 2,000-job burst (20 waves × 100, 1,200 s apart) whose
// queue outlives many kicks: a log that recorded every failed re-placement
// overflows the 100k ring on it.
func loggingBurst(t *testing.T) sim.Workload {
	t.Helper()
	w, err := workload.Burst{Waves: 20, PerWave: 100, WaveGap: 1200}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// loggingConfigs are the scheduler configurations the logging tests run:
// the default, and the two that make every event re-arm its own kick
// (preemption and aging).
var loggingConfigs = []struct {
	name string
	set  func(*sim.Config)
}{
	{"default", func(*sim.Config) {}},
	{"preemption", func(c *sim.Config) { c.EnablePreemption = true }},
	{"aging", func(c *sim.Config) { c.AgingRate = 0.01 }},
}

// TestLoggingDoesNotChangeResults pins that turning on decision logging only
// observes a run: the retained sim.Result with LogDecisions on equals the one
// with it off, field for field. The inputs are the matrix's availability
// scenario on 20 seeds (capacity drains requeue running jobs, whose resume
// overhead depends on their checkpoint marker surviving failed
// re-placements) and the 2,000-job burst, each under the default,
// preemption and aging configurations.
func TestLoggingDoesNotChangeResults(t *testing.T) {
	type input struct {
		name string
		w    sim.Workload
		tr   workload.AvailabilityTrace
	}
	inputs := []input{{name: "burst", w: loggingBurst(t)}}
	for seed := int64(1); seed <= 20; seed++ {
		scenarios, err := matrixScenarios(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range scenarios {
			if c.Name == "availability" {
				inputs = append(inputs, input{name: c.Name, w: c.Workload, tr: c.Trace})
			}
		}
	}
	for _, c := range loggingConfigs {
		for i, in := range inputs {
			run := func(log bool) sim.Result {
				cfg := sim.DefaultConfig(core.Elastic)
				cfg.Availability = in.tr
				cfg.LogDecisions = log
				c.set(&cfg)
				res, err := sim.Run(cfg, in.w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			off, on := run(false), run(true)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s, input %d (%s): logging changed the result: utilization %v → %v, weighted response %v → %v",
					c.name, i, in.name, off.Utilization, on.Utilization, off.WeightedResponse, on.WeightedResponse)
			}
		}
	}
}

// TestOneEnqueuePerWaitingSpell pins that the decision log records state
// changes only. On the 2,000-job burst nothing is dropped, every job's
// completion survives, and no job is logged as enqueued twice without a
// preempt or withdraw in between: a failed re-placement of a job that is
// already waiting logs nothing.
func TestOneEnqueuePerWaitingSpell(t *testing.T) {
	w := loggingBurst(t)
	for _, c := range loggingConfigs {
		cfg := sim.DefaultConfig(core.Elastic)
		cfg.LogDecisions = true
		c.set(&cfg)
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
		if n := s.DecisionsDropped(); n != 0 {
			t.Errorf("%s: %d decisions dropped", c.name, n)
		}
		completes := 0
		waiting := make(map[string]bool)
		for _, d := range s.Decisions() {
			switch d.Kind {
			case core.DecisionComplete:
				completes++
			case core.DecisionEnqueue:
				if waiting[d.JobID] {
					t.Errorf("%s: %s enqueued twice in one waiting spell (at %v)", c.name, d.JobID, d.At)
				}
				waiting[d.JobID] = true
			case core.DecisionPreempt, core.DecisionWithdraw:
				waiting[d.JobID] = false
			}
		}
		if completes != len(w.Jobs) {
			t.Errorf("%s: %d complete records, want %d", c.name, completes, len(w.Jobs))
		}
	}
}
