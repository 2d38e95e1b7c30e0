package conformance

import (
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// cloneStream deep-copies the parts the mutation tests perturb.
func cloneStream(s *Stream) *Stream {
	c := *s
	c.Decisions = append([]Decision(nil), s.Decisions...)
	c.Migrations = append([]Migration(nil), s.Migrations...)
	if s.Summary != nil {
		sum := *s.Summary
		c.Summary = &sum
	}
	c.Members = make([]*Stream, len(s.Members))
	for i, m := range s.Members {
		c.Members[i] = cloneStream(m)
	}
	if len(s.Members) == 0 {
		c.Members = nil
	}
	return &c
}

// TestDifferPlantedFieldMutation plants a single-field change mid-stream
// and requires the differ to report exactly that index and field, with the
// divergence window rendering the surrounding decisions and the job ID.
func TestDifferPlantedFieldMutation(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	if len(ref.Decisions) < 20 {
		t.Fatalf("scenario too small: %d decisions", len(ref.Decisions))
	}
	k := len(ref.Decisions) / 2
	mut := cloneStream(ref)
	mut.Decisions[k].Replicas++

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the planted mutation")
	}
	m := d.Mismatches[0]
	if m.Section != SectionDecisions || m.Index != k {
		t.Fatalf("first mismatch at %s[%d], want decisions[%d]", m.Section, m.Index, k)
	}
	if len(m.Fields) != 1 || m.Fields[0] != "replicas" {
		t.Fatalf("fields %v, want [replicas]", m.Fields)
	}

	report := d.Format(ref, mut, 3)
	if !strings.Contains(report, ref.Decisions[k].JobID) {
		t.Errorf("report does not resolve the job ID %q:\n%s", ref.Decisions[k].JobID, report)
	}
	for _, want := range []string{"= [", "a [", "b ["} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q context lines:\n%s", want, report)
		}
	}
	// The context window must include the decision just before the
	// divergence.
	if !strings.Contains(report, ref.Decisions[k-1].render()) {
		t.Errorf("report missing pre-divergence context:\n%s", report)
	}
}

// TestDifferPlantedBehaviorMutation plants a real scheduler behaviour
// change — StrictFCFS flips the backfill tie-break — and requires the
// differ to find the exact first decision where the schedules part ways.
func TestDifferPlantedBehaviorMutation(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	mut := recordedSim(t, core.Elastic, func(cfg *sim.Config) { cfg.StrictFCFS = true })

	// Independently locate the first diverging decision.
	want := -1
	for i := range ref.Decisions {
		if i >= len(mut.Decisions) || decisionFields(ref.Decisions[i], mut.Decisions[i]) != nil {
			want = i
			break
		}
	}
	if want < 0 {
		t.Fatal("StrictFCFS produced an identical schedule; the mutation scenario lost its point")
	}

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed a real behaviour change")
	}
	m := d.Mismatches[0]
	if m.Section != SectionDecisions || m.Index != want {
		t.Fatalf("first mismatch at %s[%d], want decisions[%d]", m.Section, m.Index, want)
	}
	if report := d.Format(ref, mut, 0); !strings.Contains(report, "decisions[") {
		t.Errorf("report does not name the section:\n%s", report)
	}
}

// TestDifferLengthDivergence: a strict prefix is reported at the shorter
// stream's length with the "length" pseudo-field, and the window renders
// <end of stream> for the exhausted side.
func TestDifferLengthDivergence(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	mut := cloneStream(ref)
	mut.Decisions = mut.Decisions[:len(mut.Decisions)-3]

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the truncation")
	}
	m := d.Mismatches[0]
	if m.Index != len(mut.Decisions) || len(m.Fields) != 1 || m.Fields[0] != "length" {
		t.Fatalf("mismatch %+v, want length divergence at %d", m, len(mut.Decisions))
	}
	if report := d.Format(ref, mut, 2); !strings.Contains(report, "<end of stream>") {
		t.Errorf("report missing end-of-stream marker:\n%s", report)
	}
}

// TestDifferResolvesMemberPath: a divergence inside a federation member is
// located by member index and labelled with the member's cluster name.
func TestDifferResolvesMemberPath(t *testing.T) {
	w, err := workload.Burst{Waves: 3, PerWave: 16, WaveGap: 1200}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Capacity = 16
	base.LogDecisions = true
	cfg := federation.Config{
		Members: federation.Uniform(base, 3),
		Route:   federation.RoundRobin,
		Workers: 1,
	}
	ref, err := RecordFederation(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Members) != 3 || len(ref.Members[1].Decisions) == 0 {
		t.Fatal("fleet stream lacks member decision logs")
	}
	mut := cloneStream(ref)
	mut.Members[1].Decisions[0].Kind = "shrink"

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the member mutation")
	}
	m := d.Mismatches[0]
	if len(m.Member) != 1 || m.Member[0] != 1 || m.Section != SectionDecisions || m.Index != 0 {
		t.Fatalf("mismatch %+v, want member 1 decisions[0]", m)
	}
	report := d.Format(ref, mut, 2)
	if !strings.Contains(report, "member 1 decisions[0]") {
		t.Errorf("report does not locate the member:\n%s", report)
	}
	if !strings.Contains(report, "cluster1") {
		t.Errorf("report does not resolve the cluster label:\n%s", report)
	}
}

// TestDifferMigrationAndSummaryMutations: divergences outside the decision
// log (the dropped count, migrations, the summary) are reported in their
// own sections.
func TestDifferMigrationAndSummaryMutations(t *testing.T) {
	ref := &Stream{
		Version:    StreamVersion,
		Migrations: []Migration{{Round: 1, At: 300, JobID: "p1", From: 0, To: 2}},
		Summary:    &Summary{Policy: "elastic", Utilization: 0.8},
	}
	mut := cloneStream(ref)
	mut.Dropped = 7
	mut.Migrations[0].To = 1
	mut.Summary.Utilization = 0.9

	d := Compare(ref, mut)
	if len(d.Mismatches) != 3 {
		t.Fatalf("want 3 mismatches, got %+v", d.Mismatches)
	}
	if m := d.Mismatches[0]; m.Section != SectionStructure || m.Fields[0] != "dropped" {
		t.Errorf("dropped mismatch %+v", m)
	}
	if m := d.Mismatches[1]; m.Section != SectionMigrations || m.Index != 0 || m.Fields[0] != "to" {
		t.Errorf("migration mismatch %+v", m)
	}
	if m := d.Mismatches[2]; m.Section != SectionSummary || m.Fields[0] != "utilization" {
		t.Errorf("summary mismatch %+v", m)
	}
	if d2 := Compare(ref, ref); !d2.Empty() {
		t.Errorf("self-compare not empty: %+v", d2.Mismatches)
	}
}
