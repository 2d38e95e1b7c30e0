package sim

import (
	"reflect"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// TestSteppedRunMatchesBatch pins the stepping API against the batch loop: a
// Begin/StepTo…/Finish run with no coordinator mutations must return the
// batch Result bit for bit — every field, in retained and streaming mode,
// for every policy. StepTo only moves the clock, so the utilization
// integral is split exactly where the batch loop splits it. A 37 s tick
// divides none of the workload's or the trace's event instants, so every
// round boundary falls strictly between events.
func TestSteppedRunMatchesBatch(t *testing.T) {
	w, err := (workload.Burst{Waves: 4, PerWave: 24, WaveGap: 5000}).Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 2000, Capacity: 24},
		{At: 9000, Capacity: 64},
	}}
	for _, p := range core.AllPolicies() {
		for _, streaming := range []bool{false, true} {
			cfg := DefaultConfig(p)
			cfg.Availability = tr
			cfg.Streaming = streaming
			batch, err := Run(cfg, w)
			if err != nil {
				t.Fatalf("%v batch: %v", p, err)
			}
			for _, every := range []float64{37, 500} {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Begin(w); err != nil {
					t.Fatal(err)
				}
				for tick := every; !s.Drained(); tick += every {
					if err := s.StepTo(tick); err != nil {
						t.Fatalf("%v StepTo(%g): %v", p, tick, err)
					}
					if s.Clock() != tick {
						t.Fatalf("%v: clock %g after StepTo(%g)", p, s.Clock(), tick)
					}
				}
				stepped, err := s.Finish()
				if err != nil {
					t.Fatalf("%v finish: %v", p, err)
				}
				if !reflect.DeepEqual(stepped, batch) {
					t.Errorf("%v streaming=%v every=%g: stepped Result differs from batch\nstepped %+v\nbatch   %+v",
						p, streaming, every, summary(stepped), summary(batch))
				}
			}
		}
	}
}

// summary strips a Result's per-job records for a readable failure message.
func summary(r Result) Result {
	r.Jobs, r.UtilTimeline, r.ReplicaTimelines = nil, nil, nil
	return r
}

// TestWithdrawInjectRoundTrip moves a queued job between two steppers and
// checks nothing is lost: both runs complete, the moved job finishes on the
// receiver with its original submission time, and a checkpointed victim pays
// its restart on the receiver.
func TestWithdrawInjectRoundTrip(t *testing.T) {
	mk := func(jobs ...workload.JobSpec) Workload { return Workload{Jobs: jobs} }
	donorW := mk(
		workload.JobSpec{ID: "big", Class: model.XLarge, Priority: 5, SubmitAt: 0},
		workload.JobSpec{ID: "waiting", Class: model.XLarge, Priority: 1, SubmitAt: 1},
	)
	recvW := mk(workload.JobSpec{ID: "local", Class: model.Small, Priority: 3, SubmitAt: 0})

	cfg := DefaultConfig(core.Elastic)
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Begin(donorW); err != nil {
		t.Fatal(err)
	}
	if err := recv.Begin(recvW); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Simulator{donor, recv} {
		if err := s.StepTo(100); err != nil {
			t.Fatal(err)
		}
	}
	queued := donor.AppendQueued(nil)
	if len(queued) != 1 || queued[0].ID != "waiting" {
		t.Fatalf("donor queue: %+v", queued)
	}
	if queued[0].Checkpointed {
		t.Error("never-started job reported a checkpoint")
	}
	mj, err := donor.Withdraw(queued[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	if mj.Spec.ID != "waiting" || mj.Spec.SubmitAt != 1 || mj.Checkpointed {
		t.Fatalf("migration record: %+v", mj)
	}
	if err := recv.Inject(mj); err != nil {
		t.Fatal(err)
	}
	dRes, err := donor.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := recv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(dRes.Jobs) != 1 || dRes.Jobs[0].ID != "big" {
		t.Fatalf("donor finished %+v", dRes.Jobs)
	}
	if len(rRes.Jobs) != 2 {
		t.Fatalf("receiver finished %d jobs", len(rRes.Jobs))
	}
	var moved *JobMetrics
	for i := range rRes.Jobs {
		if rRes.Jobs[i].ID == "waiting" {
			moved = &rRes.Jobs[i]
		}
	}
	if moved == nil {
		t.Fatal("moved job missing from receiver result")
	}
	if moved.SubmitAt != 1 {
		t.Errorf("moved job's submission time rewritten to %g", moved.SubmitAt)
	}
	if moved.StartAt < 100 {
		t.Errorf("moved job started at %g, before its injection instant", moved.StartAt)
	}
}

// TestWithdrawRejectsUnknownRef pins the error surface.
func TestWithdrawRejectsUnknownRef(t *testing.T) {
	s, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(Workload{Jobs: []workload.JobSpec{
		{ID: "a", Class: model.Small, Priority: 3, SubmitAt: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Withdraw(99); err == nil {
		t.Error("withdrew an out-of-range ref")
	}
}
