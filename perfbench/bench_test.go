package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/workload"
)

// smallJobs sizes every workload for tests: a few milliseconds a run.
var smallJobs = map[string]int{
	"backlog":         2_000,
	"spot_churn":      spotClusters * 400,
	"fleet_rebalance": 2_000,
	"k8s_emulation":   4,
}

func smallCase(t *testing.T, name string) benchCase {
	t.Helper()
	c, err := newCase(name, smallJobs[name])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustMeasure(t *testing.T, c benchCase, seed int64, trace bool) *result {
	t.Helper()
	r, err := measure(c, seed, 0.05, trace, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChecksPassAndRepeat runs every workload on the default seed and on
// another one: every output check passes, and the scheduling metrics and
// counters repeat exactly across repetitions within a run (which measure
// checks) and across runs.
func TestChecksPassAndRepeat(t *testing.T) {
	for _, name := range caseNames {
		for _, seed := range []int64{1, 7} {
			c := smallCase(t, name)
			first := mustMeasure(t, c, seed, false)
			if first.failed != 0 || first.ref == nil {
				t.Fatalf("%s seed %d: %d of %d jobs failed", name, seed, first.failed, first.attempted)
			}
			if len(first.untraced) < minReps {
				t.Fatalf("%s seed %d: %d repetitions, want at least %d", name, seed, len(first.untraced), minReps)
			}
			again := mustMeasure(t, c, seed, false)
			if *again.ref != *first.ref {
				t.Fatalf("%s seed %d: outcome %+v, then %+v", name, seed, *first.ref, *again.ref)
			}
			if o := first.ref; o.Completed != jobCount(mustGenerate(t, c, seed)) {
				t.Fatalf("%s seed %d: completed %d jobs", name, seed, o.Completed)
			}
		}
	}
}

func mustGenerate(t *testing.T, c benchCase, seed int64) []part {
	t.Helper()
	in, err := c.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestWorkloadShapes checks each workload drives the mechanism it was
// chosen for.
func TestWorkloadShapes(t *testing.T) {
	spot := mustMeasure(t, smallCase(t, "spot_churn"), 1, false).outcome()
	if spot.CapEvents == 0 || spot.ForcedShrinks == 0 {
		t.Errorf("spot_churn: %d capacity events, %d forced shrinks; want both", spot.CapEvents, spot.ForcedShrinks)
	}
	fleet := mustMeasure(t, smallCase(t, "fleet_rebalance"), 1, false).outcome()
	if fleet.Rounds == 0 || fleet.Migrations == 0 {
		t.Errorf("fleet_rebalance: %d rounds, %d migrations; want both", fleet.Rounds, fleet.Migrations)
	}
}

// TestFailuresCount checks a failing run call or a run that does not
// repeat fails all its jobs, and the report is not correct.
func TestFailuresCount(t *testing.T) {
	c := smallCase(t, "backlog")
	c.build = func([]part) (runCall, error) {
		return func(m *meter) (outcome, error) {
			m.start()
			m.stop()
			return outcome{}, errors.New("planted failure")
		}, nil
	}
	r := mustMeasure(t, c, 1, false)
	if r.failed != r.attempted || r.attempted == 0 {
		t.Fatalf("failed %d of %d jobs, want all", r.failed, r.attempted)
	}
	if got := r.endToEnd()["completed_frac"].Value; got != 0 {
		t.Fatalf("completed_frac = %v, want 0", got)
	}

	calls := 0
	c.build = func([]part) (runCall, error) {
		return func(m *meter) (outcome, error) {
			m.start()
			m.stop()
			calls++
			return outcome{Completed: c.jobs, Util: 0.5, WResp: float64(calls)}, nil
		}, nil
	}
	r = mustMeasure(t, c, 1, false)
	if r.failed != r.attempted-c.jobs {
		t.Fatalf("failed %d of %d jobs, want all but the first run's", r.failed, r.attempted)
	}
}

// slowGen plants a known delay in workload generation.
type slowGen struct {
	workload.Generator
	delay time.Duration
}

func (g slowGen) Generate(seed int64) (workload.Workload, error) {
	time.Sleep(g.delay)
	return g.Generator.Generate(seed)
}

// TestPlantedSlowdown checks a delay planted in the workload layer shows
// in setup_s and workload.generate_s, and not in jobs_per_s.
func TestPlantedSlowdown(t *testing.T) {
	const delay = 40 * time.Millisecond
	c := smallCase(t, "backlog")
	base := mustMeasure(t, c, 1, true)
	c.gen = slowGen{Generator: c.gen, delay: delay}
	slow := mustMeasure(t, c, 1, true)

	d := delay.Seconds()
	for _, m := range []struct {
		name       string
		base, slow float64
	}{
		{"setup_s", base.endToEnd()["setup_s"].Value, slow.endToEnd()["setup_s"].Value},
		{"workload.generate_s", base.perLayer()["workload.generate_s"].Value, slow.perLayer()["workload.generate_s"].Value},
	} {
		// Medians of separate runs: allow for noise in the base.
		if got := m.slow - m.base; got < 0.75*d || got > 2*d {
			t.Errorf("%s grew by %.4f s (%.4f → %.4f), want the planted %.4f s", m.name, got, m.base, m.slow, d)
		}
	}
	// One run takes a few milliseconds, so the delay leaking into the run
	// would cut jobs_per_s several times over.
	b, s := base.endToEnd()["jobs_per_s"].Value, slow.endToEnd()["jobs_per_s"].Value
	if s < b/2 || s > 2*b {
		t.Errorf("jobs_per_s moved from %.0f to %.0f", b, s)
	}
}

// TestTracedRunRecordsLayers checks the profiled run names a span around
// every layer call and charges the run's CPU time to the layers.
func TestTracedRunRecordsLayers(t *testing.T) {
	r := mustMeasure(t, smallCase(t, "fleet_rebalance"), 1, true)
	seen := map[string]bool{}
	for _, sp := range r.spans.list {
		seen[sp.Name] = true
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
	}
	for _, name := range []string{"rep", "workload.generate", "sim.new", "federation.partition", "run"} {
		if !seen[name] {
			t.Errorf("no %q span in %v", name, seen)
		}
	}
	m := r.perLayer()
	for _, layer := range layers {
		if _, ok := m["cpu."+layer+"_s"]; !ok {
			t.Errorf("no cpu.%s_s row", layer)
		}
	}
	if m["federation.rounds"].Value == 0 || m["federation.partition_s"].Value <= 0 {
		t.Errorf("rounds %v, partition %v s", m["federation.rounds"].Value, m["federation.partition_s"].Value)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "backlog", "--trace", "2"},
		{"--workload", "backlog", "--seconds", "0"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code == 0 || out.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}
