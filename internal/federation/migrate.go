package federation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
)

// This file is the fleet-level rebalancer: the elastic-fleet loop that makes
// a router placement provisional instead of final. The member simulators
// co-simulate in barrier-synchronized rounds (StepTo on every member, in
// parallel, to the same instant), and between rounds the rebalancer
// checkpoint-migrates queued — then, on draining members, running — jobs
// from backlogged or capacity-losing members to members that can finish
// them sooner, lifting core.Preempt to the federation layer.
//
// Determinism contract: a rebalanced run is a pure function of (Config,
// workload). Every round observes the members in index order, sorts its
// victims with a total deterministic order, applies moves sequentially, and
// only then lets the members advance again — so repeated runs, and runs at
// any Workers count, produce identical Migrations logs and bit-identical
// fleet Results. The per-member advancement between barriers is the same
// single-threaded event loop as a batch run.

// DefaultRebalanceThreshold is the relative backlog excess over the fleet
// mean that marks a member backlogged (25%).
const DefaultRebalanceThreshold = 0.25

// maxStagnantRounds bounds rounds in which no member processed an event and
// no job moved before the rebalancer declares the fleet stalled — a
// defensive limit (a finite workload always makes progress or drains).
const maxStagnantRounds = 1000

// RebalanceConfig parameterizes the fleet rebalancer.
type RebalanceConfig struct {
	// Every is the rebalance round period in seconds; <= 0 disables the
	// rebalancer entirely (the zero value keeps the batch federation path).
	Every float64
	// Threshold is the relative backlog-drain-time excess over the fleet
	// mean that marks a member a migration donor. 0 means
	// DefaultRebalanceThreshold.
	Threshold float64
	// MigrateRunning also checkpoint-preempts running jobs off draining
	// members — members whose availability trace is about to drop capacity
	// below their running allocation — and migrates them with their
	// completed iterations instead of letting the capacity event force a
	// local requeue.
	MigrateRunning bool
	// MaxMovesPerRound caps migrations per round (0 = unlimited).
	MaxMovesPerRound int
}

func (rc RebalanceConfig) enabled() bool { return rc.Every > 0 }

func (rc RebalanceConfig) withDefaults() RebalanceConfig {
	if rc.Threshold == 0 {
		rc.Threshold = DefaultRebalanceThreshold
	}
	return rc
}

func (rc RebalanceConfig) validate() error {
	if rc.Every < 0 || math.IsNaN(rc.Every) || math.IsInf(rc.Every, 0) {
		return fmt.Errorf("federation: rebalance period %v", rc.Every)
	}
	if rc.Threshold < 0 {
		return fmt.Errorf("federation: rebalance threshold %v < 0", rc.Threshold)
	}
	if rc.MaxMovesPerRound < 0 {
		return fmt.Errorf("federation: rebalance move cap %d < 0", rc.MaxMovesPerRound)
	}
	return nil
}

// Migration is one job move in the rebalancer's decision log.
type Migration struct {
	Round int     // 1-based rebalance round
	At    float64 // fleet instant of the move
	JobID string
	From  int
	To    int
	// Checkpointed marks a job that had already run on the donor: it
	// migrated with its checkpoint and pays restart+restore on the
	// receiver. Queued-never-started jobs move for free.
	Checkpointed bool
}

// memberState is one member's state at a round barrier. The rebalancer
// keeps one per member for the whole run and refills it every round, so the
// snapshot buffer's capacity carries over.
type memberState struct {
	eff     int                   // capacity right now (after applied availability events)
	effNext int                   // capacity the trace delivers one round from now
	plan    float64               // planning capacity: min(eff, effNext), ≥ 1 slot
	drainT  float64               // queued work over plan — the backlog drain-time estimate
	used    int                   // running jobs' allocated slots
	classes [model.XLarge + 1]int // waiting jobs per class at round start
	queued  int                   // waiting jobs at round start
	// snap is the waiting queue at round start, copied the first time the
	// round touches the member (its donor turn or the first Inject into
	// it), so jobs injected or preempted later in the round stay out of
	// its victim set. Untouched members are never copied.
	snap    []sim.QueuedJob
	snapped bool
}

// rebal is one rebalanced run's coordinator: the members, the per-run
// constants (specs, machines), and per-member state reused round after
// round, so a round that moves nothing allocates nothing.
type rebal struct {
	rb       RebalanceConfig
	backends []Member
	sims     []*sim.Simulator
	specs    map[model.Class]model.Spec
	machines []model.Machine
	states   []memberState
	counts   []int // jobs per member, following every migration
	migs     []Migration
	// evicted and seen are a draining donor's phase-2 scratch.
	evicted []sim.QueuedJob
	seen    map[int32]bool
}

func newRebal(rb RebalanceConfig, backends []Member, sims []*sim.Simulator, counts []int) *rebal {
	r := &rebal{
		rb: rb, backends: backends, sims: sims, counts: counts,
		specs:    model.Specs(),
		machines: make([]model.Machine, len(sims)),
		states:   make([]memberState, len(sims)),
		seen:     map[int32]bool{},
	}
	for i, b := range backends {
		r.machines[i] = b.Machine()
	}
	return r
}

// runRebalanced is the rebalancing twin of Run: co-simulate the members in
// rounds of Config.Rebalance.Every seconds, migrating jobs at each barrier.
func runRebalanced(cfg Config, w sim.Workload) (Result, error) {
	backends := cfg.backends()
	parts, _, err := Partition(cfg, w)
	if err != nil {
		return Result{}, err
	}
	n := len(backends)
	sims := make([]*sim.Simulator, n)
	for i, b := range backends {
		sb, ok := b.(stepBackend)
		if !ok {
			return Result{}, fmt.Errorf("federation: member %d (%T) cannot rebalance: only simulator-backed members are steppable", i, b)
		}
		s, err := sb.newStepper()
		if err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		if err := s.Begin(parts[i]); err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		sims[i] = s
	}
	counts := make([]int, n)
	for i := range parts {
		counts[i] = len(parts[i].Jobs)
	}

	rb := cfg.Rebalance
	r := newRebal(rb, backends, sims, counts)
	rounds, stagnant := 0, 0
	t := rb.Every
	for {
		before := 0
		for _, s := range sims {
			before += s.Processed()
		}
		// Barrier: every member advances to t on the worker pool. Members
		// are independent between barriers, so this is bit-identical to
		// advancing them one by one.
		if err := sim.RunTasks(n, cfg.Workers, func(i int) error {
			return sims[i].StepTo(t)
		}); err != nil {
			return Result{}, err
		}
		rounds++
		drained := true
		for _, s := range sims {
			if !s.Drained() {
				drained = false
				break
			}
		}
		if drained {
			break
		}
		moved, err := r.rebalanceRound(t, rounds)
		if err != nil {
			return Result{}, err
		}
		after := 0
		for _, s := range sims {
			after += s.Processed()
		}
		if after == before && moved == 0 {
			stagnant++
			if stagnant > maxStagnantRounds {
				return Result{}, fmt.Errorf("federation: rebalancer stalled at t=%.1f after %d rounds", t, rounds)
			}
		} else {
			stagnant = 0
		}
		// Fleet fully idle with submissions still ahead: fast-forward the
		// round clock onto the Every-grid point just before the next
		// arrival instead of spinning through empty rounds.
		if next, ok := fleetNextSubmit(sims); ok && fleetIdle(sims) && next >= t+rb.Every {
			t += math.Floor((next-t)/rb.Every) * rb.Every
		}
		t += rb.Every
	}

	members := make([]sim.Result, n)
	decs := make([][]core.Decision, n)
	err = sim.RunTasks(n, cfg.Workers, func(i int) error {
		res, err := sims[i].Finish()
		if err != nil {
			return fmt.Errorf("federation: member %d: %w", i, err)
		}
		members[i], decs[i] = res, sims[i].Decisions()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := aggregate(cfg, backends, counts, members)
	res.Migrations = r.migs
	res.RebalanceRounds = rounds
	res.MemberDecisions = memberDecisions(decs)
	return res, nil
}

func fleetIdle(sims []*sim.Simulator) bool {
	for _, s := range sims {
		if !s.Idle() {
			return false
		}
	}
	return true
}

func fleetNextSubmit(sims []*sim.Simulator) (float64, bool) {
	best, ok := 0.0, false
	for _, s := range sims {
		if at, has := s.NextSubmitAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// queuedWork is one waiting job's modelled slot-second demand on a member's
// own machine: runtime at the placement replica count times that count.
func queuedWork(m model.Machine, capacity int, spec model.Spec) float64 {
	minPE := spec.MinReplicas
	if minPE > capacity {
		minPE = capacity
	}
	return m.JobRuntime(spec, minPE) * float64(minPE)
}

// queuedDemand is the summed queuedWork of a member's waiting jobs, given
// their count per class. It folds count × queuedWork in class order, so the
// float sum does not depend on the order the member's queue holds them in
// (the scheduler's heap layout).
func queuedDemand(m model.Machine, capacity int, specs map[model.Class]model.Spec, classes *[model.XLarge + 1]int) float64 {
	sum := 0.0
	for c, n := range classes {
		if n > 0 {
			sum += float64(n) * queuedWork(m, capacity, specs[model.Class(c)])
		}
	}
	return sum
}

// sortVictims orders a donor's migration candidates: lowest priority first
// (they would wait longest locally and cost the least to move), ties broken
// by later submission, then ID — a total deterministic order.
func sortVictims(victims []sim.QueuedJob) {
	slices.SortFunc(victims, func(va, vb sim.QueuedJob) int {
		if va.Priority != vb.Priority {
			return cmp.Compare(va.Priority, vb.Priority)
		}
		if va.SubmitAt != vb.SubmitAt {
			return cmp.Compare(vb.SubmitAt, va.SubmitAt)
		}
		return strings.Compare(va.ID, vb.ID)
	})
}

// rebalanceRound reads every member at the barrier instant t, picks donors
// (backlogged beyond threshold, or draining), and migrates victims to the
// receivers that can finish them soonest. Returns the number of jobs moved.
// Each member's drain estimate comes from its per-class queue counts; only
// donors and receivers have their queues copied, each once, at first touch
// — so every donor's victims are exactly its queue at the barrier, and the
// decision sequence is a pure function of the barrier state.
func (r *rebal) rebalanceRound(t float64, round int) (int, error) {
	mean := 0.0
	for i, s := range r.sims {
		st := &r.states[i]
		s.CountQueued(&st.classes)
		st.eff = s.CurrentCapacity()
		st.used = s.UsedSlots()
		st.effNext = st.eff
		if tr := r.backends[i].Availability(); len(tr.Events) > 0 {
			st.effNext = tr.CapacityAt(r.backends[i].Capacity(), t+r.rb.Every)
		}
		plan := min(st.eff, st.effNext)
		if plan < 1 {
			plan = 1
		}
		st.plan = float64(plan)
		st.queued = 0
		for _, n := range st.classes {
			st.queued += n
		}
		st.drainT = queuedDemand(r.machines[i], r.backends[i].Capacity(), r.specs, &st.classes) / st.plan
		st.snapped = false
		mean += st.drainT
	}
	mean /= float64(len(r.sims))

	moved := 0
	budget := r.rb.MaxMovesPerRound
	for donor := range r.states {
		if budget > 0 && moved >= budget {
			break
		}
		st := &r.states[donor]
		backlogged := st.drainT > mean*(1+r.rb.Threshold) && st.queued > 0
		draining := st.effNext < st.eff
		if !backlogged && !draining {
			continue
		}
		// Phase 1: evacuate queued jobs.
		r.touch(donor)
		sortVictims(st.snap)
		var err error
		if moved, err = r.walk(donor, st.snap, t, round, moved); err != nil {
			return moved, err
		}
		// Phase 2: a draining member whose running allocation will not fit
		// after the drop checkpoint-preempts the deficit (core.Preempt
		// lifted to the fleet) and migrates the jobs it evicted — only
		// those: jobs injected into it earlier in the round stay put.
		if r.rb.MigrateRunning && draining && st.used > st.effNext {
			clear(r.seen)
			r.evicted = r.sims[donor].AppendQueued(r.evicted[:0])
			for _, q := range r.evicted {
				r.seen[q.Ref] = true
			}
			if r.sims[donor].Preempt(st.used-st.effNext) > 0 {
				r.evicted = r.sims[donor].AppendQueued(r.evicted[:0])
				evicted := slices.DeleteFunc(r.evicted, func(q sim.QueuedJob) bool { return r.seen[q.Ref] })
				sortVictims(evicted)
				if moved, err = r.walk(donor, evicted, t, round, moved); err != nil {
					return moved, err
				}
			}
		}
	}
	if moved > 0 {
		// Donors freed queue entries (and possibly slots); receivers got
		// new submissions. One scheduling pass per member, in index order,
		// lets everyone act on the new state at exactly t.
		for _, s := range r.sims {
			s.Kick()
		}
	}
	return moved, nil
}

// touch copies member i's waiting queue into its reused snapshot buffer,
// the first time in a round that i is touched.
func (r *rebal) touch(i int) {
	st := &r.states[i]
	if !st.snapped {
		st.snap = r.sims[i].AppendQueued(st.snap[:0])
		st.snapped = true
	}
}

// walk offers donor's victims, in order, to tryMove until the round's move
// budget runs out, and returns the updated move count. A victim whose class
// has already failed to move in this walk is skipped, and the walk stops
// once every class present has failed (see tryMove for why such a victim
// cannot move).
func (r *rebal) walk(donor int, victims []sim.QueuedJob, t float64, round, moved int) (int, error) {
	var present, failed [model.XLarge + 1]bool
	live := 0
	for _, v := range victims {
		if !present[v.Class] {
			present[v.Class] = true
			live++
		}
	}
	budget := r.rb.MaxMovesPerRound
	for _, v := range victims {
		if live == 0 || budget > 0 && moved >= budget {
			break
		}
		if failed[v.Class] {
			continue
		}
		ok, err := r.tryMove(donor, v, t, round)
		if err != nil {
			return moved, err
		}
		if ok {
			moved++
		} else {
			failed[v.Class] = true
			live--
		}
	}
	return moved, nil
}

// tryMove migrates one victim off donor to the best receiver, updating the
// round's bookkeeping. A move happens only when some feasible receiver,
// even after absorbing the job, would still drain sooner than the donor
// does now — otherwise the job stays put. Returns whether a move happened.
//
// The outcome depends only on the victim's class and on the members'
// states: feasibility reads capacities fixed for the round, and the
// comparison reads drain times. Within one donor's walk a successful move
// only lowers the donor's drainT (the bar a receiver must beat) and raises a
// receiver's, so once a class fails to move off a donor, every later victim
// of that class in the same walk fails too — walk skips them.
func (r *rebal) tryMove(donor int, v sim.QueuedJob, t float64, round int) (bool, error) {
	spec := r.specs[v.Class]
	states := r.states
	recv, recvWork := -1, 0.0
	best := states[donor].drainT
	for i := range states {
		if i == donor {
			continue
		}
		// Hardware fit: the receiver's base capacity must host the job at
		// all, and its planning capacity (which sees the next drain window)
		// must host the job's minimum now.
		if spec.MinReplicas > r.backends[i].Capacity() || float64(spec.MinReplicas) > states[i].plan {
			continue
		}
		work := queuedWork(r.machines[i], r.backends[i].Capacity(), spec)
		after := states[i].drainT + work/states[i].plan
		if after < best {
			best, recv, recvWork = after, i, work
		}
	}
	if recv < 0 {
		return false, nil
	}
	mj, err := r.sims[donor].Withdraw(v.Ref)
	if err != nil {
		// The snapshot said the job was waiting; a failure here means the
		// coordinator and member disagree — a bug, not a routine miss.
		return false, fmt.Errorf("federation: migrate %s off member %d: %w", v.ID, donor, err)
	}
	r.touch(recv)
	if err := r.sims[recv].Inject(mj); err != nil {
		return false, fmt.Errorf("federation: migrate %s to member %d: %w", v.ID, recv, err)
	}
	donorWork := queuedWork(r.machines[donor], r.backends[donor].Capacity(), spec)
	states[donor].drainT -= donorWork / states[donor].plan
	if states[donor].drainT < 0 {
		states[donor].drainT = 0
	}
	states[recv].drainT += recvWork / states[recv].plan
	r.counts[donor]--
	r.counts[recv]++
	r.migs = append(r.migs, Migration{
		Round: round, At: t, JobID: v.ID, From: donor, To: recv,
		Checkpointed: mj.Checkpointed,
	})
	return true, nil
}
