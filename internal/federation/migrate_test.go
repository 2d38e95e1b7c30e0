package federation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// rebalanceFleet is the shared scenario for the rebalancer tests: a
// heterogeneous 3-member fleet whose round-robin deal backs up the small
// member 0, while member 2's availability trace drains it mid-run — both
// donor kinds (backlogged and draining) are exercised in one run.
func rebalanceFleet() Config {
	base := sim.DefaultConfig(core.Elastic)
	base.Capacity = 16
	members := Skewed(base, 3, 1.5) // capacities 16 / 40 / 64
	members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 1200, Capacity: 8},
		{At: 6000, Capacity: 64},
	}}
	return Config{
		Members: members,
		Route:   RoundRobin,
		Rebalance: RebalanceConfig{
			Every:          300,
			MigrateRunning: true,
		},
	}
}

// The rebalancer's determinism contract — identical migration log, round
// count, and bit-identical fleet result whether members step sequentially
// or in parallel, and across repeated runs — is pinned by the conformance
// harness's federation matrix cells (internal/conformance, run under -race
// by the race-equivalence CI job), which record and diff every member's
// decision stream as well.

// TestRebalanceImprovesImbalance is the tentpole's acceptance scenario: a
// fleet whose round-robin deal overloads a small member must, with the
// rebalancer on, migrate at least one still-queued job off it and end with a
// lower fleet Imbalance than the same fleet with -rebalance off.
func TestRebalanceImprovesImbalance(t *testing.T) {
	w := testWorkload(t, 96)
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Capacity = 16
	members[1].Capacity = 64
	off, err := Run(Config{Members: members, Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Config{
		Members: members, Route: RoundRobin, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	// At least one still-queued job must leave the overloaded small member.
	// (Later rounds may also move work back as the drains equalize — the
	// rebalancer balances in both directions.)
	queuedOffSmall := 0
	for _, m := range on.Migrations {
		if !m.Checkpointed && m.From == 0 {
			queuedOffSmall++
		}
	}
	if queuedOffSmall == 0 {
		t.Fatalf("no queued-job migrations off the overloaded member in %d moves", len(on.Migrations))
	}
	if on.Imbalance >= off.Imbalance {
		t.Errorf("rebalanced imbalance %g not below off %g", on.Imbalance, off.Imbalance)
	}
	// Every job still completes exactly once.
	total := 0
	for _, n := range on.JobsPerMember {
		total += n
	}
	if total != len(w.Jobs) {
		t.Errorf("%d of %d jobs completed across the fleet", total, len(w.Jobs))
	}
}

// TestRebalanceMigratesRunningOffDrainingMember pins the MigrateRunning
// path: a member about to lose most of its capacity checkpoint-preempts the
// overflow and the rebalancer moves those jobs — checkpoints and completed
// iterations intact — to the healthy member before the capacity event would
// force a local requeue.
func TestRebalanceMigratesRunningOffDrainingMember(t *testing.T) {
	w := sim.Workload{}
	for i := 0; i < 6; i++ {
		w.Jobs = append(w.Jobs, workload.JobSpec{
			ID: string(rune('a' + i)), Class: model.XLarge, Priority: 3, SubmitAt: float64(i),
		})
	}
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 900, Capacity: 4},
		{At: 40000, Capacity: 64},
	}}
	res, err := Run(Config{
		Members: members, Route: RoundRobin, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300, MigrateRunning: true},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := 0
	for _, m := range res.Migrations {
		if m.Checkpointed && m.From == 0 && m.To == 1 {
			ckpt++
		}
	}
	if ckpt == 0 {
		t.Fatalf("no checkpointed migrations off the draining member: %+v", res.Migrations)
	}
	total := 0
	for _, n := range res.JobsPerMember {
		total += n
	}
	if total != len(w.Jobs) {
		t.Errorf("%d of %d jobs completed", total, len(w.Jobs))
	}
}

// TestRebalanceMoveCapAndValidation covers the config surface: the per-round
// move cap holds, and invalid knobs are rejected.
func TestRebalanceMoveCapAndValidation(t *testing.T) {
	w := testWorkload(t, 96)
	cfg := rebalanceFleet()
	cfg.Workers = 1
	cfg.Rebalance.MaxMovesPerRound = 1
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	perRound := map[int]int{}
	for _, m := range res.Migrations {
		perRound[m.Round]++
		if perRound[m.Round] > 1 {
			t.Fatalf("round %d moved %d jobs past the cap of 1", m.Round, perRound[m.Round])
		}
	}
	for _, bad := range []RebalanceConfig{
		{Every: -1},
		{Every: 60, Threshold: -0.5},
		{Every: 60, MaxMovesPerRound: -2},
	} {
		c := rebalanceFleet()
		c.Rebalance = bad
		if _, err := Run(c, w); err == nil {
			t.Errorf("accepted invalid rebalance config %+v", bad)
		}
	}
}

// TestRebalanceRejectsNonSteppableBackend: rebalancing needs steppable
// members; a cluster-emulation backend must be rejected with a clear error,
// while the same fleet runs fine on the batch path.
func TestRebalanceRejectsNonSteppableBackend(t *testing.T) {
	w := testWorkload(t, 16)
	backends := []Member{
		NewSimMember(sim.DefaultConfig(core.Elastic)),
		NewClusterMember(cluster.DefaultConfig(core.Elastic)),
	}
	if _, err := Run(Config{Backends: backends, Workers: 1}, w); err != nil {
		t.Fatalf("batch fleet over a cluster backend: %v", err)
	}
	if _, err := Run(Config{
		Backends: backends, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300},
	}, w); err == nil {
		t.Error("rebalancer accepted a non-steppable backend")
	}
}

// TestRebalanceOffMatchesBatchPath pins that a zero RebalanceConfig leaves
// the legacy batch federation path — and its results — bit-identical.
func TestRebalanceOffMatchesBatchPath(t *testing.T) {
	w := testWorkload(t, 64)
	cfg := Config{Members: Uniform(sim.DefaultConfig(core.Elastic), 3), Route: LeastLoaded, Workers: 1}
	batch, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = RebalanceConfig{} // explicit zero value
	zero, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, zero) {
		t.Error("zero RebalanceConfig changed the batch path result")
	}
	if zero.Migrations != nil || zero.RebalanceRounds != 0 {
		t.Errorf("batch path reported rebalancer activity: %d migrations, %d rounds",
			len(zero.Migrations), zero.RebalanceRounds)
	}
}

// TestRouterUsesPerMemberMachine is the regression test for the historical
// router bug of estimating every member's demand with member 0's machine: on
// a fleet of equal capacities where only the machines differ, least-loaded
// must send the first job to the faster member (the old code saw a tie and
// picked member 0).
func TestRouterUsesPerMemberMachine(t *testing.T) {
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	fast := members[1].Machine
	fast.CellRate *= 4
	fast.NetBandwidth *= 4
	members[1].Machine = fast
	w := sim.Workload{Jobs: []workload.JobSpec{
		{ID: "first", Class: model.Medium, Priority: 3, SubmitAt: 0},
	}}
	_, assign, err := Partition(Config{Members: members, Route: LeastLoaded}, w)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 {
		t.Errorf("first job routed to member %d; the faster member 1's machine was ignored", assign[0])
	}
}

// TestRouterDodgesDrainWindow pins the availability-aware routing term: a
// job submitted while member 0's trace has its capacity drained below the
// job's minimum replicas must route to the healthy member even though member
// 0 has less booked work.
func TestRouterDodgesDrainWindow(t *testing.T) {
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 50, Capacity: 2},
		{At: 5000, Capacity: 64},
	}}
	w := sim.Workload{Jobs: []workload.JobSpec{
		{ID: "in-drain", Class: model.XLarge, Priority: 3, SubmitAt: 100},
	}}
	_, assign, err := Partition(Config{Members: members, Route: LeastLoaded}, w)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 {
		t.Errorf("job routed into member %d's drain window", assign[0])
	}
}

// TestQueuedDemandOrderInsensitive pins that a member's backlog estimate is
// a function of the set of waiting jobs, not of the order the member's
// snapshot lists them in (the scheduler's internal heap layout): a summed
// per-job fold moves by ULPs under reordering, and a moved drainT flips
// migration decisions.
func TestQueuedDemandOrderInsensitive(t *testing.T) {
	m, specs := model.DefaultMachine(), model.Specs()
	classes := model.AllClasses()
	queued := make([]sim.QueuedJob, 97)
	for i := range queued {
		queued[i] = sim.QueuedJob{Ref: int32(i), Class: classes[(i*7)%len(classes)]}
	}
	naive := func(q []sim.QueuedJob) float64 {
		sum := 0.0
		for _, j := range q {
			sum += queuedWork(m, 64, specs[j.Class])
		}
		return sum
	}
	want := queuedDemand(m, 64, specs, queued)
	rng := rand.New(rand.NewSource(1))
	naiveMoved := false
	for trial := 0; trial < 50; trial++ {
		perm := append([]sim.QueuedJob(nil), queued...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if got := queuedDemand(m, 64, specs, perm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("permutation %d: demand %v, want %v bit for bit", trial, got, want)
		}
		naiveMoved = naiveMoved || naive(perm) != naive(queued)
	}
	if !naiveMoved {
		t.Error("no permutation moved the per-job fold; the input does not exercise float reordering")
	}
}
