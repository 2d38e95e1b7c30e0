package conformance

import (
	"reflect"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
)

// TestLoggingDoesNotChangeResults pins that turning on decision logging only
// observes a run: on the matrix's availability scenario (capacity drains
// requeue running jobs, whose resume overhead depends on their checkpoint
// marker surviving failed re-placements), the retained sim.Result with
// LogDecisions on equals the one with it off, field for field, on every
// seed. Logging disables the Reschedule drain's early stops, so the two runs
// take different paths through core.
func TestLoggingDoesNotChangeResults(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		scenarios, err := matrixScenarios(seed)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scenario
		for _, c := range scenarios {
			if c.Name == "availability" {
				sc = c
			}
		}
		run := func(log bool) sim.Result {
			cfg := sim.DefaultConfig(core.Elastic)
			cfg.Availability = sc.Trace
			cfg.LogDecisions = log
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(sc.Workload)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		off, on := run(false), run(true)
		if !reflect.DeepEqual(off, on) {
			t.Errorf("seed %d: logging changed the result: utilization %v → %v, weighted response %v → %v",
				seed, off.Utilization, on.Utilization, off.WeightedResponse, on.WeightedResponse)
		}
	}
}
