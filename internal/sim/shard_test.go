package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// waveStartPlans cuts a workload at every distinct submission instant —
// boundaries a persistent backlog is guaranteed to cross, so adopting any
// of them would be wrong and the reconciliation pass must re-execute every
// epoch through the live chain.
func waveStartPlans(w Workload, order []int32, capacity int) []epochPlan {
	var plans []epochPlan
	for i := range order {
		if i == 0 {
			plans = append(plans, epochPlan{start: math.Inf(-1), startCap: capacity})
			continue
		}
		if w.Jobs[order[i]].SubmitAt != w.Jobs[order[i-1]].SubmitAt {
			plans[len(plans)-1].subHi = i
			plans = append(plans, epochPlan{
				subLo: i, start: w.Jobs[order[i]].SubmitAt, startCap: capacity,
			})
		}
	}
	plans[len(plans)-1].subHi = len(order)
	return plans
}

// TestParallelForcedReexecution pins the reconciliation pass's slow path:
// with cut points planted at every wave start of a workload whose backlog
// never drains between waves, no speculative epoch can be adopted, and the
// run must still reproduce the sequential decisions and Result exactly via
// chained re-execution.
func TestParallelForcedReexecution(t *testing.T) {
	w, err := workload.Burst{Waves: 4, PerWave: 50, WaveGap: 500}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.AllPolicies() {
		t.Run(p.String(), func(t *testing.T) {
			run := func(sharded bool) (Result, []core.Decision) {
				cfg := DefaultConfig(p)
				cfg.LogDecisions = true
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sharded {
					plans := waveStartPlans(w, submissionOrder(w), cfg.Capacity)
					if len(plans) < 2 {
						t.Fatalf("workload produced %d wave epochs", len(plans))
					}
					cfg.Shards = len(plans)
					s, err = New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.testPlans = plans
				}
				res, err := s.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res, s.Decisions()
			}
			seqRes, seqDec := run(false)
			parRes, parDec := run(true)
			if !reflect.DeepEqual(seqDec, parDec) {
				t.Fatalf("decision sequences diverge: sequential %d entries, sharded %d",
					len(seqDec), len(parDec))
			}
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Fatalf("results diverge:\nsequential: %+v\nsharded:    %+v", seqRes, parRes)
			}
		})
	}
}

// TestPlanEpochsPartition checks the planner's structural invariants: the
// epochs partition the submission order and the availability trace exactly,
// start instants strictly increase, each epoch's starting capacity is the
// last preceding trace event's, and the epoch count never exceeds the
// requested shard count.
func TestPlanEpochsPartition(t *testing.T) {
	w, err := workload.Burst{Waves: 20, PerWave: 100, WaveGap: 25000}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	span := w.Span() + 3600
	tr, err := workload.MaintenanceDrain{Every: span / 40, Duration: span / 80, Keep: 48}.Events(7, 64, span)
	if err != nil {
		t.Fatal(err)
	}
	order := submissionOrder(w)
	for _, shards := range []int{1, 2, 4, 8, 64} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := DefaultConfig(core.Elastic)
			cfg.Availability = tr
			cfg.Shards = shards
			plans := planEpochs(cfg, w, order)
			if shards == 1 && len(plans) != 1 {
				t.Fatalf("shards=1 produced %d epochs", len(plans))
			}
			if len(plans) > shards {
				t.Fatalf("%d epochs exceed %d shards", len(plans), shards)
			}
			if plans[0].subLo != 0 || plans[len(plans)-1].subHi != len(w.Jobs) {
				t.Fatalf("submission windows do not span the workload: %+v", plans)
			}
			if plans[0].capLo != 0 || plans[len(plans)-1].capHi != len(tr.Events) {
				t.Fatalf("capacity windows do not span the trace: %+v", plans)
			}
			for k := 1; k < len(plans); k++ {
				prev, cur := plans[k-1], plans[k]
				if cur.subLo != prev.subHi || cur.capLo != prev.capHi {
					t.Fatalf("epoch %d is not contiguous with its predecessor: %+v / %+v", k, prev, cur)
				}
				if cur.subLo >= cur.subHi {
					t.Fatalf("epoch %d is empty: %+v", k, cur)
				}
				if !(cur.start > prev.start) {
					t.Fatalf("epoch %d start %v does not increase past %v", k, cur.start, prev.start)
				}
				if cur.start != w.Jobs[order[cur.subLo]].SubmitAt {
					t.Fatalf("epoch %d start %v is not its first submission instant", k, cur.start)
				}
				want := cfg.Capacity
				if cur.capLo > 0 {
					want = tr.Events[cur.capLo-1].Capacity
				}
				if cur.startCap != want {
					t.Fatalf("epoch %d startCap %d, want %d", k, cur.startCap, want)
				}
				// Every event in the window belongs to [start_k, start_{k+1}).
				end := planHorizon(plans, k)
				for _, ev := range tr.Events[cur.capLo:cur.capHi] {
					if ev.At < cur.start || ev.At >= end {
						t.Fatalf("epoch %d owns event at %v outside [%v, %v)", k, ev.At, cur.start, end)
					}
				}
			}
		})
	}
}

// TestSubmissionRanksOrder is the property the IDRank interning must hold:
// sorting jobs by (submission instant, rank) with a rank tie falling back
// to the ID must order them exactly like (submission instant, ID) — the
// scheduler comparator's historical tie-break.
func TestSubmissionRanksOrder(t *testing.T) {
	check := func(t *testing.T, w Workload) {
		t.Helper()
		order := submissionOrder(w)
		ranks := submissionRanks(w, order)
		byRank := append([]int32(nil), order...)
		sort.SliceStable(byRank, func(a, b int) bool {
			ja, jb := &w.Jobs[byRank[a]], &w.Jobs[byRank[b]]
			ta, tb := model.Duration(ja.SubmitAt), model.Duration(jb.SubmitAt)
			if ta != tb {
				return ta < tb
			}
			if ra, rb := ranks[byRank[a]], ranks[byRank[b]]; ra != rb {
				return ra < rb
			}
			return ja.ID < jb.ID
		})
		byID := append([]int32(nil), order...)
		sort.SliceStable(byID, func(a, b int) bool {
			ja, jb := &w.Jobs[byID[a]], &w.Jobs[byID[b]]
			ta, tb := model.Duration(ja.SubmitAt), model.Duration(jb.SubmitAt)
			if ta != tb {
				return ta < tb
			}
			return ja.ID < jb.ID
		})
		for i := range byRank {
			if w.Jobs[byRank[i]].ID != w.Jobs[byID[i]].ID {
				t.Fatalf("rank order diverges from ID order at %d: %s vs %s",
					i, w.Jobs[byRank[i]].ID, w.Jobs[byID[i]].ID)
			}
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		w, err := (workload.Burst{Waves: 5, PerWave: 40, WaveGap: 900}).Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("burst/seed%d", seed), func(t *testing.T) { check(t, w) })
	}

	t.Run("duplicate-ids", func(t *testing.T) {
		w, err := (workload.Burst{Waves: 1, PerWave: 20, WaveGap: 600}).Generate(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Jobs {
			w.Jobs[i].ID = "same"
		}
		order := submissionOrder(w)
		for widx, r := range submissionRanks(w, order) {
			if r != 0 {
				t.Fatalf("duplicate-ID group got nonzero rank %d at job %d", r, widx)
			}
		}
	})

	t.Run("ids-vs-workload-order", func(t *testing.T) {
		// IDs sorted opposite to workload order at one instant: ranks must
		// follow the IDs, not the submission indices.
		w, err := (workload.Burst{Waves: 1, PerWave: 10, WaveGap: 600}).Generate(5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Jobs {
			w.Jobs[i].ID = fmt.Sprintf("j%02d", len(w.Jobs)-1-i)
		}
		check(t, w)
		order := submissionOrder(w)
		ranks := submissionRanks(w, order)
		for i := range w.Jobs {
			want := int32(len(w.Jobs) - 1 - i)
			if ranks[i] != want {
				t.Fatalf("job %d (%s): rank %d, want %d", i, w.Jobs[i].ID, ranks[i], want)
			}
		}
	})
}

// TestPlanEpochsStreamingScaleWorkload pins the planner's behaviour on the
// large bursty workload the conformance matrix's streaming-scale cell runs
// (internal/conformance): it must produce a genuine multi-epoch plan, so
// that cell exercises real boundary drains and reconciliation rather than
// silently degrading to the sequential path.
func TestPlanEpochsStreamingScaleWorkload(t *testing.T) {
	w, err := (workload.Burst{Waves: 12, PerWave: 100, WaveGap: 20000}).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.Elastic)
	cfg.Shards = 8
	if plans := planEpochs(cfg, w, submissionOrder(w)); len(plans) < 2 {
		t.Fatalf("streaming-scale workload produced no multi-epoch plan (%d epochs)", len(plans))
	}
}

// classWaves builds a workload of evenly spaced waves with explicit per-wave
// class lists — the skew shapes the work-balanced cut chooser is tested on.
// The gap is huge relative to any job's demand, so the fluid predictor sees a
// full drain before every wave and offers every wave start as a cut candidate;
// the chooser's placement is then isolated from the drain predictor.
func classWaves(gap float64, waves [][]model.Class) Workload {
	var w Workload
	for wv, classes := range waves {
		for j, c := range classes {
			w.Jobs = append(w.Jobs, workload.JobSpec{
				ID:       fmt.Sprintf("skew-w%02d-%02d", wv, j),
				Class:    c,
				Priority: 3,
				SubmitAt: float64(wv) * gap,
			})
		}
	}
	return w
}

// predictedDemand restates the planner's per-job demand formula, so the
// balance tests measure epochs in exactly the units the chooser balances.
func predictedDemand(cfg Config, class model.Class) float64 {
	spec := model.Specs()[class]
	r := spec.MaxReplicas
	if cfg.Policy == core.RigidMin {
		r = spec.MinReplicas
	}
	if r > cfg.Capacity {
		r = cfg.Capacity
	}
	if r < 1 {
		r = 1
	}
	return float64(spec.Steps) * cfg.Machine.IterTime(spec.Grid, r) * float64(r)
}

// epochWorks sums each plan's predicted demand.
func epochWorks(cfg Config, w Workload, order []int32, plans []epochPlan) []float64 {
	works := make([]float64, len(plans))
	for k, pl := range plans {
		for _, idx := range order[pl.subLo:pl.subHi] {
			works[k] += predictedDemand(cfg, w.Jobs[idx].Class)
		}
	}
	return works
}

// TestPlanEpochsWorkBalance pins the work-balanced chooser on three demand
// shapes — heavy jobs clustered at the head, at the tail, and spread
// uniformly. In every shape each epoch's predicted work must sit within one
// wave's demand of the ideal equal share W/K, and on the skewed shapes the
// work-balanced cuts must beat the count-balanced cuts they replaced (equal
// submission counts put several heavy waves in one epoch).
func TestPlanEpochsWorkBalance(t *testing.T) {
	heavy := []model.Class{model.XLarge, model.XLarge, model.XLarge, model.XLarge}
	light := []model.Class{model.Small}
	shapes := map[string][][]model.Class{}
	for i := 0; i < 4; i++ {
		shapes["head-heavy"] = append(shapes["head-heavy"], heavy)
	}
	for i := 0; i < 12; i++ {
		shapes["head-heavy"] = append(shapes["head-heavy"], light)
		shapes["tail-heavy"] = append(shapes["tail-heavy"], light)
	}
	for i := 0; i < 4; i++ {
		shapes["tail-heavy"] = append(shapes["tail-heavy"], heavy)
	}
	for i := 0; i < 16; i++ {
		shapes["uniform"] = append(shapes["uniform"], []model.Class{model.Medium, model.Medium})
	}

	for name, waves := range shapes {
		t.Run(name, func(t *testing.T) {
			const gap = 1e9
			w := classWaves(gap, waves)
			cfg := DefaultConfig(core.Elastic)
			cfg.Shards = 4
			order := submissionOrder(w)
			plans := planEpochs(cfg, w, order)
			if len(plans) != cfg.Shards {
				t.Fatalf("%d epochs planned, want %d: %+v", len(plans), cfg.Shards, plans)
			}

			var total, maxWave float64
			for _, classes := range waves {
				wave := 0.0
				for _, c := range classes {
					wave += predictedDemand(cfg, c)
				}
				total += wave
				if wave > maxWave {
					maxWave = wave
				}
			}
			ideal := total / float64(cfg.Shards)
			works := epochWorks(cfg, w, order, plans)
			bound := maxWave * (1 + 1e-9)
			for k, wk := range works {
				if d := math.Abs(wk - ideal); d > bound {
					t.Fatalf("epoch %d work %.3g is %.3g from the ideal share %.3g (max wave %.3g)\nworks: %v",
						k, wk, d, ideal, maxWave, works)
				}
			}
			if name == "uniform" {
				// Identical waves put every equal-work target exactly on a
				// candidate, so the partition must be exact.
				minW, maxW := works[0], works[0]
				for _, wk := range works[1:] {
					minW, maxW = math.Min(minW, wk), math.Max(maxW, wk)
				}
				if maxW > 1.01*minW {
					t.Fatalf("uniform waves split unevenly: %v", works)
				}
				return
			}

			// Count-balanced comparison: pick, on the same candidate set, the
			// cuts nearest equal submission counts (the chooser this PR
			// replaced), and check the work-balanced plan's largest epoch is
			// decisively smaller.
			var cuts []int
			for i := 1; i < len(order); i++ {
				if w.Jobs[order[i]].SubmitAt != w.Jobs[order[i-1]].SubmitAt {
					cuts = append(cuts, i)
				}
			}
			countBounds := []int{0}
			prev := 0
			for k := 1; k < cfg.Shards; k++ {
				target := float64(len(order)) * float64(k) / float64(cfg.Shards)
				best, bestD := -1, math.Inf(1)
				for _, c := range cuts {
					if c <= prev {
						continue
					}
					if d := math.Abs(float64(c) - target); d < bestD {
						best, bestD = c, d
					}
				}
				if best < 0 {
					continue
				}
				countBounds = append(countBounds, best)
				prev = best
			}
			countPlans := make([]epochPlan, len(countBounds))
			for k, lo := range countBounds {
				hi := len(order)
				if k+1 < len(countBounds) {
					hi = countBounds[k+1]
				}
				countPlans[k] = epochPlan{subLo: lo, subHi: hi}
			}
			countMax, workMax := 0.0, 0.0
			for _, wk := range epochWorks(cfg, w, order, countPlans) {
				countMax = math.Max(countMax, wk)
			}
			for _, wk := range works {
				workMax = math.Max(workMax, wk)
			}
			if workMax > 0.8*countMax {
				t.Fatalf("work-balanced max epoch %.3g does not beat count-balanced %.3g", workMax, countMax)
			}
		})
	}
}

// TestParallelChainedSpeculation pins the pipeline's mixed path: with cuts
// planted at wave starts where the first boundary is crossed by a live
// backlog but the later ones genuinely drain, the reconciliation walk must
// re-execute the first window on the live chain AND still adopt at least one
// downstream speculative epoch — all while reproducing the sequential
// decisions and Result exactly. (TestParallelForcedReexecution covers the
// all-dirty extreme; this covers the dirty-then-clean chain.)
func TestParallelChainedSpeculation(t *testing.T) {
	wave := func(wv int, at float64) []workload.JobSpec {
		jobs := make([]workload.JobSpec, 6)
		for j := range jobs {
			jobs[j] = workload.JobSpec{
				ID:       fmt.Sprintf("c-w%d-%d", wv, j),
				Class:    model.Small,
				Priority: 3,
				SubmitAt: at,
			}
		}
		return jobs
	}

	// Calibrate the spacing from a real run: one wave alone, submitted at 0,
	// starts immediately, so TotalTime is its makespan.
	cfg := DefaultConfig(core.Elastic)
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probe.Run(Workload{Jobs: wave(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	T := res.TotalTime
	if !(T > 0) {
		t.Fatalf("probe wave makespan %v", T)
	}

	// Wave 1 lands mid-execution of wave 0 (a dirty boundary); waves 2 and 3
	// land an order of magnitude after their predecessors have drained
	// (clean boundaries the walk must adopt).
	var jobs []workload.JobSpec
	jobs = append(jobs, wave(0, 0)...)
	jobs = append(jobs, wave(1, 0.5*T)...)
	jobs = append(jobs, wave(2, 10*T)...)
	jobs = append(jobs, wave(3, 20*T)...)
	w := Workload{Jobs: jobs}

	run := func(sharded bool) (Result, []core.Decision, shardStats) {
		cfg := DefaultConfig(core.Elastic)
		cfg.LogDecisions = true
		if sharded {
			plans := waveStartPlans(w, submissionOrder(w), cfg.Capacity)
			if len(plans) != 4 {
				t.Fatalf("planted %d epochs, want 4", len(plans))
			}
			cfg.Shards = len(plans)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.testPlans = plans
			res, err := s.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			return res, s.Decisions(), s.stats
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Decisions(), shardStats{}
	}

	seqRes, seqDec, _ := run(false)
	parRes, parDec, st := run(true)
	if !reflect.DeepEqual(seqDec, parDec) {
		t.Fatalf("decision sequences diverge: sequential %d entries, sharded %d",
			len(seqDec), len(parDec))
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("results diverge:\nsequential: %+v\nsharded:    %+v", seqRes, parRes)
	}
	if st.epochs != 4 {
		t.Fatalf("stats recorded %d epochs, want 4: %+v", st.epochs, st)
	}
	if st.reexecuted < 1 {
		t.Fatalf("the planted dirty boundary was not re-executed: %+v", st)
	}
	if st.adopted < 1 {
		t.Fatalf("no speculative epoch was adopted past the dirty boundary: %+v", st)
	}
	if st.adopted+st.reexecuted != st.epochs-1 {
		t.Fatalf("adopted %d + reexecuted %d != %d boundaries", st.adopted, st.reexecuted, st.epochs-1)
	}
}

// TestParallelSpotChurnAdoption pins the planner's adoption rate on the
// shape the sharded path exists for: light Poisson load on clusters whose
// capacity spot reclaims keep cutting and restoring. Every cluster's sharded
// Result must equal its sequential one, and the reconciliation outcomes are
// pinned exactly: a predictor that drains at the base capacity instead of
// the capacity in force, or that ignores how long each job needs at its
// minimum replica count, places cuts while jobs are still running and
// re-executes boundaries this fixture adopts.
func TestParallelSpotChurnAdoption(t *testing.T) {
	spot, err := workload.AvailabilityScenario("spot", workload.AvailabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total shardStats
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workload.Poisson{Jobs: 200, MeanGap: 290}.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		horizon := AvailabilityHorizon(w)
		tr, err := spot.Events(seed, 64, horizon)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(core.Elastic)
		cfg.Availability = tr.WithRestore(64, horizon)
		want, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sharded result differs from the sequential one:\n got %+v\nwant %+v", seed, got, want)
		}
		total.epochs += s.stats.epochs
		total.adopted += s.stats.adopted
		total.reexecuted += s.stats.reexecuted
	}
	if want := (shardStats{epochs: 8, adopted: 4, reexecuted: 0}); total != want {
		t.Fatalf("reconciliation outcomes %+v, want %+v", total, want)
	}
}

// cutStarts returns the start instants of a plan's epochs after the first.
func cutStarts(plans []epochPlan) []float64 {
	var starts []float64
	for _, pl := range plans[1:] {
		starts = append(starts, pl.start)
	}
	return starts
}

// TestPlanEpochsRuntimeBound isolates the predictor's per-job rule: one
// XLarge job at t=0 followed by Small jobs whose fluid demand drains between
// arrivals. Fluid draining alone would offer a cut as soon as the XLarge
// job's demand has drained at full capacity, but the job may hold only its
// MinReplicas and still be running then, so no cut may land before its
// runtime at MinReplicas.
func TestPlanEpochsRuntimeBound(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	specs := model.Specs()
	xl, small := specs[model.XLarge], specs[model.Small]
	bound := cfg.Machine.JobRuntime(xl, xl.MinReplicas)
	fluid := predictedDemand(cfg, model.XLarge) / float64(cfg.Capacity)
	// Each Small job ends, even at MinReplicas, before the next arrives.
	gap := 2 * cfg.Machine.JobRuntime(small, small.MinReplicas)
	if !(fluid+2*gap < bound) {
		t.Fatalf("fixture offers no fluid-only cut: XLarge drains at %v, bound %v, gap %v", fluid, bound, gap)
	}
	w := Workload{Jobs: []workload.JobSpec{{ID: "xl", Class: model.XLarge, Priority: 3}}}
	for at := gap; at < 2*bound; at += gap {
		w.Jobs = append(w.Jobs, workload.JobSpec{
			ID: fmt.Sprintf("s%04d", len(w.Jobs)), Class: model.Small, Priority: 3, SubmitAt: at,
		})
	}
	cfg.Shards = 8
	plans := planEpochs(cfg, w, submissionOrder(w))
	if len(plans) < 2 {
		t.Fatalf("no cut past the runtime bound %v: %+v", bound, plans)
	}
	for _, at := range cutStarts(plans) {
		if at <= bound {
			t.Fatalf("cut at %v lands before the XLarge job's runtime at MinReplicas %v (cuts %v)",
				at, bound, cutStarts(plans))
		}
	}
}

// TestPlanEpochsCapacityInForce isolates the predictor's drain rate: a
// batch of Small jobs at t=0 and one more job later, at an instant the
// batch's fluid demand has drained by at the base capacity but not at the
// 16 slots a reclaim leaves. Without a trace the later job's instant is a
// cut candidate; a trace that drops capacity to 16 for the whole gap removes
// it, and one that restores the capacity early gives it back (the drain is
// piecewise over the trace, not at one rate).
func TestPlanEpochsCapacityInForce(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	cfg.Shards = 2
	small := model.Specs()[model.Small]
	const batch = 16
	demand := batch * predictedDemand(cfg, model.Small)
	at := 1.5 * math.Max(cfg.Machine.JobRuntime(small, small.MinReplicas), demand/float64(cfg.Capacity))
	if !(demand/16 > at) {
		t.Fatalf("fixture drains at 16 slots by %v, before the next submission at %v", demand/16, at)
	}
	var w Workload
	for i := 0; i <= batch; i++ {
		j := workload.JobSpec{ID: fmt.Sprintf("s%02d", i), Class: model.Small, Priority: 3}
		if i == batch {
			j.SubmitAt = at
		}
		w.Jobs = append(w.Jobs, j)
	}
	order := submissionOrder(w)

	for _, tc := range []struct {
		name   string
		events []workload.CapacityEvent
		cut    bool
	}{
		{"base", nil, true},
		{"reclaimed", []workload.CapacityEvent{{At: 0, Capacity: 16}}, false},
		{"restored", []workload.CapacityEvent{{At: 0, Capacity: 16}, {At: at / 10, Capacity: 64}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Availability = workload.AvailabilityTrace{Events: tc.events}
			plans := planEpochs(c, w, order)
			if got := len(plans) == 2 && plans[1].subLo == batch; got != tc.cut {
				t.Fatalf("cut before the job at %v: %v, want %v (plans %+v)", at, got, tc.cut, plans)
			}
		})
	}
}

// TestShardedLogDropsMatchSequential pins that a sharded run reports the
// sequential run's decision log and its dropped count when the log
// overflows its bound: the merge counts what the segments' rings overwrote
// plus what its own bound discards. Each of the two epochs here logs more
// than 100k decisions on its own.
func TestShardedLogDropsMatchSequential(t *testing.T) {
	w, err := workload.Poisson{Jobs: 80000, MeanGap: 290}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) *Simulator {
		cfg := DefaultConfig(core.Elastic)
		cfg.LogDecisions = true
		cfg.Streaming = true
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq, par := run(0), run(2)
	if par.stats.epochs < 2 {
		t.Fatalf("sharded run planned %d epochs, want at least 2", par.stats.epochs)
	}
	if seq.DecisionsDropped() == 0 {
		t.Fatal("the log did not overflow; the fixture needs more jobs")
	}
	if got, want := par.DecisionsDropped(), seq.DecisionsDropped(); got != want {
		t.Errorf("sharded run dropped %d decisions, sequential %d", got, want)
	}
	if !reflect.DeepEqual(seq.Decisions(), par.Decisions()) {
		t.Error("sharded decision log differs from the sequential one")
	}
}
