package main

import (
	"fmt"
	"reflect"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// caseNames lists the workloads the command runs; BENCHMARK.json names
// the ones whose figures are steady across seeds (see README.md).
var caseNames = []string{"backlog", "spot_churn", "fleet_rebalance", "k8s_emulation"}

// defaultJobs is each workload's size in jobs, summed over its clusters.
// Each size keeps one repetition near half a second on a 2-core x86
// container, so a run takes dozens of samples.
var defaultJobs = map[string]int{
	"backlog":         60_000,
	"spot_churn":      spotClusters * 10_000,
	"fleet_rebalance": 60_000,
	"k8s_emulation":   60,
}

// spotClusters is how many independent spot clusters spot_churn runs. A
// sharded run with two shards has one epoch boundary, which it either
// adopts or re-executes, so one cluster's run time is bimodal across
// seeds (23 of 40 seeds re-executed at 300 000 jobs). Thirty-two clusters
// average over 32 boundaries.
const spotClusters = 32

// part is one cluster's inputs: its job stream and capacity trace.
type part struct {
	w     workload.Workload
	avail workload.AvailabilityTrace
}

// outcome is one run call reduced to the numbers the benchmark reports.
// Every field is an exact function of the inputs, so two runs of one seed
// must produce equal outcomes.
type outcome struct {
	Completed     int
	Util          float64 // sched_util
	WResp         float64 // sched_wresp_s, simulated seconds
	CapEvents     int
	ForcedShrinks int
	Requeues      int
	Rounds        int
	Migrations    int
}

// runCall is the timed run call over a workload's parts. It brackets
// exactly the layer calls with m and checks their output.
type runCall func(m *meter) (outcome, error)

// A benchCase is one named workload: how to generate its inputs from a
// seed, how to construct the layer that runs them, and how to run and
// check them.
type benchCase struct {
	name  string
	jobs  int // over all parts
	parts int // independent clusters, each with its own inputs
	gen   workload.Generator
	// spot, when set, draws each part's capacity trace as part of
	// generation.
	spot workload.AvailabilityProfile
	// build constructs the run call for the inputs; its time is setup.
	build func(in []part) (runCall, error)
	// route, when set, runs the routing pass alone (profiled runs only).
	route func(w workload.Workload) error
	// verify, when set, is an extra output check made once per
	// invocation, outside every timed region.
	verify func(in []part) error
}

// newCase returns the named workload at the given size.
func newCase(name string, jobs int) (benchCase, error) {
	switch name {
	case "backlog":
		// Waves of 200 simultaneous jobs every 29 000 s keep a backlog of
		// several hundred jobs, so core's queue drain does most of the work.
		return benchCase{
			name: name, jobs: jobs, parts: 1,
			gen:   workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000},
			build: simCall(simConfig(0)),
		}, nil
	case "spot_churn":
		// Light Poisson load under spot reclaims: core works through
		// SetCapacity on the running set, and every run takes the sharded
		// path.
		cfg := simConfig(2)
		return benchCase{
			name: name, jobs: jobs, parts: spotClusters,
			gen:    workload.Poisson{Jobs: jobs / spotClusters, MeanGap: 290},
			spot:   workload.DefaultAvailabilityProfiles()[1],
			build:  simCall(cfg),
			verify: func(in []part) error { return shardedMatchesSequential(cfg, in) },
		}, nil
	case "fleet_rebalance":
		// Bursts every 8 500 s keep the fleet below capacity while the
		// 32-slot member 0 stays overloaded, so the rebalancer always moves.
		cfg := fleetConfig()
		return benchCase{
			name: name, jobs: jobs, parts: 1,
			gen:   workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 8500},
			build: fleetCall(cfg),
			route: func(w workload.Workload) error {
				_, _, err := federation.Partition(cfg, w)
				return err
			},
		}, nil
	case "k8s_emulation":
		// A 200 s gap keeps the emulated cluster below saturation, so the
		// cost per job does not grow with the run's length.
		return benchCase{
			name: name, jobs: jobs, parts: 1,
			gen:   workload.Uniform{Jobs: jobs, Gap: 200},
			build: emulationCall(cluster.DefaultConfig(core.Elastic)),
		}, nil
	}
	return benchCase{}, fmt.Errorf("unknown workload %q (have %v)", name, caseNames)
}

// generate draws the case's inputs for a seed. Part i of seed s uses seed
// s×parts+i, so no two seeds share a part.
func (c benchCase) generate(seed int64) ([]part, error) {
	in := make([]part, c.parts)
	for i := range in {
		sub := seed*int64(c.parts) + int64(i)
		w, err := c.gen.Generate(sub)
		if err != nil {
			return nil, err
		}
		in[i].w = w
		if c.spot != nil {
			horizon := sim.AvailabilityHorizon(w)
			tr, err := c.spot.Events(sub, 64, horizon)
			if err != nil {
				return nil, err
			}
			in[i].avail = tr.WithRestore(64, horizon)
		}
	}
	return in, nil
}

func jobCount(in []part) int {
	n := 0
	for _, p := range in {
		n += len(p.w.Jobs)
	}
	return n
}

// simConfig is a 64-slot streaming elastic cluster; shards 0 is the
// sequential event loop.
func simConfig(shards int) sim.Config {
	cfg := sim.DefaultConfig(core.Elastic)
	cfg.Streaming = true
	cfg.Shards = shards
	return cfg
}

// fleetConfig is four 64-slot members with member 0 cut to 32 slots,
// round-robin routing, and the rebalancer every 300 s.
func fleetConfig() federation.Config {
	members := federation.Uniform(simConfig(0), 4)
	members[0].Capacity = 32
	return federation.Config{
		Members:   members,
		Route:     federation.RoundRobin,
		Rebalance: federation.RebalanceConfig{Every: 300},
		Workers:   2,
	}
}

// simCall constructs one simulator per part and runs them in turn. The
// scheduling metrics pool the parts: utilization is used over delivered
// slot-seconds summed over all of them, and the response time is weighted
// by priority across all their jobs.
func simCall(cfg sim.Config) func(in []part) (runCall, error) {
	return func(in []part) (runCall, error) {
		sims := make([]*sim.Simulator, len(in))
		for i, p := range in {
			c := cfg
			c.Availability = p.avail
			s, err := sim.New(c)
			if err != nil {
				return nil, err
			}
			sims[i] = s
		}
		return func(m *meter) (outcome, error) {
			res := make([]sim.Result, len(in))
			var err error
			m.start()
			for i, s := range sims {
				if res[i], err = s.Run(in[i].w); err != nil {
					break
				}
			}
			m.stop()
			if err != nil {
				return outcome{}, err
			}
			var o outcome
			var used, delivered, weight float64
			for i, r := range res {
				if want := prioritySum(in[i].w); r.WeightSum != want {
					return outcome{}, fmt.Errorf("job conservation: part %d weight sum %g, want %g", i, r.WeightSum, want)
				}
				o.Completed += len(in[i].w.Jobs)
				o.CapEvents += r.CapacityEvents
				o.ForcedShrinks += r.ForcedShrinks
				o.Requeues += r.Requeues
				used += r.UsedSlotSec
				delivered += r.DeliveredSlotSec
				weight += r.WeightSum
			}
			o.Util = used / delivered
			for _, r := range res {
				o.WResp += r.WeightedResponse * (r.WeightSum / weight)
			}
			return o, nil
		}, nil
	}
}

func fleetCall(cfg federation.Config) func(in []part) (runCall, error) {
	return func(in []part) (runCall, error) {
		w := in[0].w
		return func(m *meter) (outcome, error) {
			m.start()
			r, err := federation.Run(cfg, w)
			m.stop()
			if err != nil {
				return outcome{}, err
			}
			done := 0
			for _, n := range r.JobsPerMember {
				done += n
			}
			if done != len(w.Jobs) {
				return outcome{}, fmt.Errorf("job conservation: members completed %d of %d jobs", done, len(w.Jobs))
			}
			return outcome{
				Completed: done,
				Util:      r.Utilization, WResp: r.WeightedResponse,
				CapEvents: r.CapacityEvents, ForcedShrinks: r.ForcedShrinks, Requeues: r.Requeues,
				Rounds: r.RebalanceRounds, Migrations: len(r.Migrations),
			}, nil
		}, nil
	}
}

func emulationCall(cfg cluster.Config) func(in []part) (runCall, error) {
	return func(in []part) (runCall, error) {
		w := in[0].w
		return func(m *meter) (outcome, error) {
			m.start()
			r, err := cluster.RunExperiment(cfg, w)
			m.stop()
			if err != nil {
				return outcome{}, err
			}
			if len(r.Jobs) != len(w.Jobs) {
				return outcome{}, fmt.Errorf("job conservation: emulation reported %d of %d jobs", len(r.Jobs), len(w.Jobs))
			}
			return outcome{
				Completed: len(r.Jobs),
				Util:      r.Utilization, WResp: r.WeightedResponse,
				CapEvents: r.CapacityEvents, ForcedShrinks: r.ForcedShrinks, Requeues: r.Requeues,
			}, nil
		}, nil
	}
}

// shardedMatchesSequential checks the sharded run's bit-identity
// contract on the benchmark's own inputs: for every part, the Result of
// cfg must equal, in every field, that of the same run on the sequential
// loop.
func shardedMatchesSequential(cfg sim.Config, in []part) error {
	for i, p := range in {
		cfg.Availability = p.avail
		seq := cfg
		seq.Shards = 0
		got, err := sim.Run(cfg, p.w)
		if err != nil {
			return fmt.Errorf("part %d: sharded run: %w", i, err)
		}
		want, err := sim.Run(seq, p.w)
		if err != nil {
			return fmt.Errorf("part %d: sequential run: %w", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("part %d: sharded result differs from the sequential one:\n got %+v\nwant %+v", i, got, want)
		}
	}
	return nil
}

func prioritySum(w workload.Workload) float64 {
	sum := 0
	for _, j := range w.Jobs {
		sum += j.Priority
	}
	return float64(sum)
}
