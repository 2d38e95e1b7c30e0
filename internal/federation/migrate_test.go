package federation

import (
	"fmt"
	"hash/fnv"
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
// queue holds them in (the scheduler's internal heap layout): a summed
// per-job fold moves by ULPs under reordering, and a moved drainT flips
// migration decisions. The per-class counts are taken in queue order, the
// way Simulator.CountQueued walks the heap.
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
	demand := func(q []sim.QueuedJob) float64 {
		var classes [model.XLarge + 1]int
		for _, j := range q {
			classes[j.Class]++
		}
		return queuedDemand(m, 64, specs, &classes)
	}
	want := demand(queued)
	rng := rand.New(rand.NewSource(1))
	naiveMoved := false
	for trial := 0; trial < 50; trial++ {
		perm := append([]sim.QueuedJob(nil), queued...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if got := demand(perm); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("permutation %d: demand %v, want %v bit for bit", trial, got, want)
		}
		naiveMoved = naiveMoved || naive(perm) != naive(queued)
	}
	if !naiveMoved {
		t.Error("no permutation moved the per-job fold; the input does not exercise float reordering")
	}
}

// pinnedRebalanceConfig builds one rebalanced fleet of the pinned-log
// table: four members, member 0 at half the slots so the round-robin deal
// backs it up, under one of four rebalancer variants.
func pinnedRebalanceConfig(policy core.Policy, variant string) Config {
	members := Uniform(sim.DefaultConfig(policy), 4)
	members[0].Capacity = 32
	rb := RebalanceConfig{Every: 300}
	switch variant {
	case "avail":
		members[1].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
			{At: 2900, Capacity: 24}, {At: 9000, Capacity: 64},
		}}
		members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
			{At: 3000, Capacity: 12}, {At: 6000, Capacity: 64},
		}}
		rb.MigrateRunning = true
	case "cap":
		rb.MaxMovesPerRound = 1
		rb.Threshold = 0.05
	case "preempt":
		for i := range members {
			members[i].EnablePreemption = true
		}
	}
	return Config{Members: members, Route: RoundRobin, Workers: 1, Rebalance: rb}
}

// migrationDigest is an FNV-64a digest of a migration log: every field of
// every move, in log order.
func migrationDigest(migs []Migration) uint64 {
	h := fnv.New64a()
	for _, m := range migs {
		fmt.Fprintf(h, "%d|%x|%s|%d|%d|%t\n", m.Round, math.Float64bits(m.At), m.JobID, m.From, m.To, m.Checkpointed)
	}
	return h.Sum64()
}

// TestRebalanceMigrationLogPinned pins the rebalancer's decisions on eight
// small fleets — Burst and Poisson arrivals, elastic and rigid-min members,
// and the plain, availability + MigrateRunning, move-capped low-threshold,
// and preemption variants — to a digest of each migration log plus the
// round count and per-member job counts. The values were recorded before
// rebalance rounds switched from whole-queue copies to per-class counts and
// first-touch snapshots; a change in how a round reads member state must
// not move them.
func TestRebalanceMigrationLogPinned(t *testing.T) {
	burst := workload.Burst{Waves: 10, PerWave: 24, WaveGap: 1500}
	poisson := workload.Poisson{Jobs: 240, MeanGap: 50}
	cases := []struct {
		name    string
		gen     workload.Generator
		seed    int64
		policy  core.Policy
		variant string
		digest  uint64
		moves   int
		rounds  int
		jobs    []int
	}{
		{"burst/elastic/plain", burst, 1, core.Elastic, "plain", 0xe05da0f26ac619cd, 37, 46, []int{46, 70, 61, 63}},
		{"poisson/rigid_min/plain", poisson, 2, core.RigidMin, "plain", 0x46d3b0c4708db6cf, 30, 46, []int{40, 75, 64, 61}},
		{"burst/elastic/avail", burst, 3, core.Elastic, "avail", 0x18659e532089d8df, 68, 50, []int{43, 61, 55, 81}},
		{"poisson/rigid_min/avail", poisson, 4, core.RigidMin, "avail", 0x9230f2a5efa71b49, 63, 43, []int{45, 54, 70, 71}},
		{"burst/rigid_min/cap", burst, 2, core.RigidMin, "cap", 0x1fce1914be8c8ae0, 13, 53, []int{47, 70, 63, 60}},
		{"poisson/elastic/cap", poisson, 1, core.Elastic, "cap", 0x62f23aeb41cc30b2, 25, 38, []int{43, 75, 64, 58}},
		{"burst/elastic/preempt", burst, 4, core.Elastic, "preempt", 0xeb016c9a206c8e24, 32, 45, []int{50, 65, 65, 60}},
		{"poisson/rigid_min/preempt", poisson, 3, core.RigidMin, "preempt", 0xc049acbcb10cdfb, 22, 48, []int{40, 75, 63, 62}},
	}
	for _, c := range cases {
		w, err := c.gen.Generate(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(pinnedRebalanceConfig(c.policy, c.variant), w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		digest := migrationDigest(res.Migrations)
		if digest != c.digest || len(res.Migrations) != c.moves || res.RebalanceRounds != c.rounds ||
			!reflect.DeepEqual(res.JobsPerMember, c.jobs) {
			t.Errorf("%s: got digest %#x, %d moves, %d rounds, jobs %#v; want %#x, %d, %d, %#v",
				c.name, digest, len(res.Migrations), res.RebalanceRounds, res.JobsPerMember,
				c.digest, c.moves, c.rounds, c.jobs)
		}
	}
}

// TestNoJobMigratesTwiceInOneRound pins that a round's victims are the
// members' queues at the barrier: member 1 receives jobs off the backlogged
// member 0 and is itself draining (its trace drops capacity before the next
// round), so it turns donor later in the same round. Neither its queued
// victims nor, with MigrateRunning, the jobs its Preempt evicts may include
// a job injected into it earlier in that round.
func TestNoJobMigratesTwiceInOneRound(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		w, err := (workload.Poisson{Jobs: 120, MeanGap: 20}).Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, preempt := range []bool{false, true} {
			base := sim.DefaultConfig(core.Elastic)
			base.EnablePreemption = preempt
			members := Uniform(base, 3)
			members[0].Capacity = 16
			members[1].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
				{At: 650, Capacity: 16}, {At: 1550, Capacity: 64},
				{At: 2050, Capacity: 8}, {At: 3000, Capacity: 64},
			}}
			res, err := Run(Config{
				Members: members, Route: RoundRobin, Workers: 1,
				Rebalance: RebalanceConfig{Every: 300, MigrateRunning: true},
			}, w)
			if err != nil {
				t.Fatal(err)
			}
			type roundJob struct {
				round int
				id    string
			}
			arrived := map[roundJob]int{}
			for _, m := range res.Migrations {
				k := roundJob{m.Round, m.JobID}
				if to, ok := arrived[k]; ok && to == m.From {
					t.Errorf("seed %d preempt %v: job %s moved twice in round %d (… → %d → %d)",
						seed, preempt, m.JobID, m.Round, m.From, m.To)
				}
				arrived[k] = m.To
			}
		}
	}
}

// TestZeroMoveRoundDoesNotAllocate pins that reading member state costs no
// allocation once the per-run buffers have grown: member 0 keeps a backlog
// of XLarge jobs that member 1 (8 slots, below their 16-slot minimum) can
// never host, so every round snapshots and walks a donor but moves nothing.
func TestZeroMoveRoundDoesNotAllocate(t *testing.T) {
	big, small := sim.DefaultConfig(core.Elastic), sim.DefaultConfig(core.Elastic)
	small.Capacity = 8
	var w0, w1 sim.Workload
	for i := 0; i < 40; i++ {
		w0.Jobs = append(w0.Jobs, workload.JobSpec{
			ID: fmt.Sprintf("x%d", i), Class: model.XLarge, Priority: 1 + i%5, SubmitAt: float64(i),
		})
	}
	for i := 0; i < 10; i++ {
		w1.Jobs = append(w1.Jobs, workload.JobSpec{
			ID: fmt.Sprintf("s%d", i), Class: model.Small, Priority: 3, SubmitAt: float64(i),
		})
	}
	backends := []Member{NewSimMember(big), NewSimMember(small)}
	r, err := newRebal(RebalanceConfig{Every: 300}.withDefaults(), backends,
		[]sim.Workload{w0, w1}, []int{len(w0.Jobs), len(w1.Jobs)})
	if err != nil {
		t.Fatal(err)
	}
	sims := r.sims
	round := 0
	for at := 300.0; at <= 1200; at += 300 {
		for _, s := range sims {
			if err := s.StepTo(at); err != nil {
				t.Fatal(err)
			}
		}
		round++
		if moved, err := r.rebalanceRound(at, round); err != nil || moved != 0 {
			t.Fatalf("round %d: moved %d, err %v", round, moved, err)
		}
	}
	if !r.states[0].snapped || len(r.states[0].snap) == 0 {
		t.Fatal("member 0 was not walked as a donor; the round exercises nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if moved, err := r.rebalanceRound(1200, round); err != nil || moved != 0 {
			t.Fatalf("moved %d, err %v", moved, err)
		}
	})
	if allocs != 0 {
		t.Errorf("zero-move round allocated %v times", allocs)
	}
}
