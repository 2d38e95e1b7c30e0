package conformance

import (
	"fmt"
	"strings"
)

// Sections a Mismatch can point into.
const (
	// SectionStructure covers shape disagreements: version, dropped
	// decisions, member count, presence/absence of a summary or a
	// decision log.
	SectionStructure = "structure"
	// SectionDecisions covers the decision log.
	SectionDecisions = "decisions"
	// SectionMigrations covers the federation migration log.
	SectionMigrations = "migrations"
	// SectionSummary covers the aggregate Summary.
	SectionSummary = "summary"
)

// Mismatch is one point of divergence between two streams.
type Mismatch struct {
	// Member is the path to the sub-stream the mismatch lives in: empty for
	// the top level, {i} for member i. (Members never nest further.)
	Member []int
	// Section names the diverging part (Section* constants).
	Section string
	// Index is the first diverging entry for decisions/migrations
	// (len(shorter) when one stream is a strict prefix of the other);
	// -1 for structure and summary mismatches.
	Index int
	// Fields lists the diverging field names within the entry or summary
	// ("length" when the logs diverge only in length).
	Fields []string
	// Detail is a one-line human description.
	Detail string
}

// location renders the mismatch's position ("member 2 decisions[17]").
func (m Mismatch) location() string {
	var b strings.Builder
	for _, i := range m.Member {
		fmt.Fprintf(&b, "member %d ", i)
	}
	b.WriteString(m.Section)
	if m.Index >= 0 {
		fmt.Fprintf(&b, "[%d]", m.Index)
	}
	return b.String()
}

// Diff is the result of comparing two streams.
type Diff struct {
	// Mismatches holds every divergence found, top level first, then
	// members in order. Each section reports only its first divergence.
	Mismatches []Mismatch
}

// Empty reports whether the streams compared equal.
func (d Diff) Empty() bool { return len(d.Mismatches) == 0 }

// Compare diffs two streams structurally. Each section (decision log,
// migration log, summary — at the top level and per member) contributes at
// most its first divergence, so the report stays readable even when streams
// disagree wildly.
func Compare(a, b *Stream) Diff {
	var d Diff
	d.compare(a, b, nil)
	return d
}

func (d *Diff) compare(a, b *Stream, path []int) {
	if a.Version != b.Version {
		d.add(Mismatch{
			Member: path, Section: SectionStructure, Index: -1,
			Fields: []string{"version"},
			Detail: fmt.Sprintf("version %d vs %d", a.Version, b.Version),
		})
	}
	if a.Dropped != b.Dropped {
		d.add(Mismatch{
			Member: path, Section: SectionStructure, Index: -1,
			Fields: []string{"dropped"},
			Detail: fmt.Sprintf("%d dropped decisions vs %d", a.Dropped, b.Dropped),
		})
	}
	d.compareDecisions(a.Decisions, b.Decisions, path)
	d.compareMigrations(a.Migrations, b.Migrations, path)
	d.compareSummary(a.Summary, b.Summary, path)
	if len(a.Members) != len(b.Members) {
		d.add(Mismatch{
			Member: path, Section: SectionStructure, Index: -1,
			Fields: []string{"members"},
			Detail: fmt.Sprintf("%d members vs %d", len(a.Members), len(b.Members)),
		})
		return
	}
	for i := range a.Members {
		d.compare(a.Members[i], b.Members[i], append(path[:len(path):len(path)], i))
	}
}

func (d *Diff) add(m Mismatch) { d.Mismatches = append(d.Mismatches, m) }

// decisionFields lists the fields on which two decisions differ.
func decisionFields(x, y Decision) []string {
	var f []string
	if x.AtNs != y.AtNs {
		f = append(f, "at")
	}
	if x.Kind != y.Kind {
		f = append(f, "kind")
	}
	if x.JobID != y.JobID {
		f = append(f, "job")
	}
	if x.Replicas != y.Replicas {
		f = append(f, "replicas")
	}
	if x.FreeSlots != y.FreeSlots {
		f = append(f, "free")
	}
	return f
}

func (d *Diff) compareDecisions(a, b []Decision, path []int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if fields := decisionFields(a[i], b[i]); fields != nil {
			d.add(Mismatch{
				Member: path, Section: SectionDecisions, Index: i, Fields: fields,
				Detail: fmt.Sprintf("first divergence at decision %d (of %d vs %d): fields %s differ",
					i, len(a), len(b), strings.Join(fields, ", ")),
			})
			return
		}
	}
	if len(a) != len(b) {
		d.add(Mismatch{
			Member: path, Section: SectionDecisions, Index: n,
			Fields: []string{"length"},
			Detail: fmt.Sprintf("streams agree through decision %d, then lengths diverge: %d vs %d",
				n-1, len(a), len(b)),
		})
	}
}

func (d *Diff) compareMigrations(a, b []Migration, path []int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d.add(Mismatch{
				Member: path, Section: SectionMigrations, Index: i,
				Fields: migrationFields(a[i], b[i]),
				Detail: fmt.Sprintf("first divergence at migration %d (of %d vs %d):\n  a: %s\n  b: %s",
					i, len(a), len(b), a[i].render(), b[i].render()),
			})
			return
		}
	}
	if len(a) != len(b) {
		d.add(Mismatch{
			Member: path, Section: SectionMigrations, Index: n,
			Fields: []string{"length"},
			Detail: fmt.Sprintf("migration logs agree through %d, then lengths diverge: %d vs %d",
				n-1, len(a), len(b)),
		})
	}
}

// migrationFields lists the fields on which two migrations differ.
func migrationFields(x, y Migration) []string {
	var f []string
	if x.Round != y.Round {
		f = append(f, "round")
	}
	if x.At != y.At {
		f = append(f, "at")
	}
	if x.JobID != y.JobID {
		f = append(f, "job")
	}
	if x.From != y.From {
		f = append(f, "from")
	}
	if x.To != y.To {
		f = append(f, "to")
	}
	if x.Checkpointed != y.Checkpointed {
		f = append(f, "checkpointed")
	}
	return f
}

// summaryFields lists the diverging Summary fields. Jobs and JobsDigest
// are skipped when either side lacks a digest: a streaming-mode run retains
// no per-job records, and comparing it against a retained reference must
// still succeed on the aggregate fields both sides carry.
func summaryFields(a, b *Summary) []string {
	var f []string
	eq := func(name string, same bool) {
		if !same {
			f = append(f, name)
		}
	}
	eq("policy", a.Policy == b.Policy)
	eq("total_time_s", a.TotalTime == b.TotalTime)
	eq("utilization", a.Utilization == b.Utilization)
	eq("weighted_response_s", a.WeightedResponse == b.WeightedResponse)
	eq("weighted_completion_s", a.WeightedCompletion == b.WeightedCompletion)
	eq("first_start_s", a.FirstStart == b.FirstStart)
	eq("last_end_s", a.LastEnd == b.LastEnd)
	eq("used_slot_s", a.UsedSlotSec == b.UsedSlotSec)
	eq("delivered_slot_s", a.DeliveredSlotSec == b.DeliveredSlotSec)
	eq("weight_sum", a.WeightSum == b.WeightSum)
	eq("end_capacity", a.EndCapacity == b.EndCapacity)
	eq("capacity_events", a.CapacityEvents == b.CapacityEvents)
	eq("forced_shrinks", a.ForcedShrinks == b.ForcedShrinks)
	eq("requeues", a.Requeues == b.Requeues)
	eq("work_lost_s", a.WorkLostSec == b.WorkLostSec)
	eq("goodput", a.GoodputFrac == b.GoodputFrac)
	eq("imbalance", a.Imbalance == b.Imbalance)
	eq("rebalance_rounds", a.RebalanceRounds == b.RebalanceRounds)
	if len(a.JobsPerMember) != len(b.JobsPerMember) {
		f = append(f, "jobs_per_member")
	} else {
		for i := range a.JobsPerMember {
			if a.JobsPerMember[i] != b.JobsPerMember[i] {
				f = append(f, "jobs_per_member")
				break
			}
		}
	}
	if a.JobsDigest != "" && b.JobsDigest != "" {
		eq("jobs", a.Jobs == b.Jobs)
		eq("jobs_digest", a.JobsDigest == b.JobsDigest)
	}
	return f
}

func (d *Diff) compareSummary(a, b *Summary, path []int) {
	if a == nil && b == nil {
		return
	}
	if (a == nil) != (b == nil) {
		d.add(Mismatch{
			Member: path, Section: SectionStructure, Index: -1,
			Fields: []string{"summary"},
			Detail: fmt.Sprintf("summary present: %v vs %v", a != nil, b != nil),
		})
		return
	}
	if fields := summaryFields(a, b); fields != nil {
		d.add(Mismatch{
			Member: path, Section: SectionSummary, Index: -1, Fields: fields,
			Detail: "summary fields differ: " + strings.Join(fields, ", "),
		})
	}
}

// DefaultWindow is the number of context decisions Format shows on each
// side of the first divergence.
const DefaultWindow = 5

// Format renders the diff for humans: each mismatch's location and detail,
// and — for decision-log divergences — a window of ±window decisions around
// the first mismatch, with shared prefix lines marked "=" and both sides'
// versions shown from the divergence on. a and b must be the streams that
// produced the diff.
func (d Diff) Format(a, b *Stream, window int) string {
	if d.Empty() {
		return "streams are equivalent\n"
	}
	if window <= 0 {
		window = DefaultWindow
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d divergence(s):\n", len(d.Mismatches))
	for _, m := range d.Mismatches {
		fmt.Fprintf(&sb, "\n%s: %s\n", m.location(), m.Detail)
		if m.Section != SectionDecisions {
			continue
		}
		sa, sb2 := resolve(a, m.Member), resolve(b, m.Member)
		if sa == nil || sb2 == nil {
			continue
		}
		label := sa.Label
		if label == "" && sb2.Label != "" {
			label = sb2.Label
		}
		if label != "" {
			fmt.Fprintf(&sb, "  (%s)\n", label)
		}
		writeWindow(&sb, sa.Decisions, sb2.Decisions, m.Index, window)
	}
	return sb.String()
}

// resolve walks a member path to its sub-stream.
func resolve(s *Stream, path []int) *Stream {
	for _, i := range path {
		if s == nil || i < 0 || i >= len(s.Members) {
			return nil
		}
		s = s.Members[i]
	}
	return s
}

// writeWindow renders decisions [idx-window, idx+window]: common context
// lines prefixed "=", then paired a:/b: lines from the divergence on.
func writeWindow(w *strings.Builder, a, b []Decision, idx, window int) {
	lo := idx - window
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < idx; i++ {
		fmt.Fprintf(w, "  = [%d] %s\n", i, a[i].render())
	}
	hi := idx + window
	for i := idx; i <= hi; i++ {
		inA, inB := i < len(a), i < len(b)
		if !inA && !inB {
			break
		}
		if inA {
			fmt.Fprintf(w, "  a [%d] %s\n", i, a[i].render())
		} else {
			fmt.Fprintf(w, "  a [%d] <end of stream>\n", i)
		}
		if inB {
			fmt.Fprintf(w, "  b [%d] %s\n", i, b[i].render())
		} else {
			fmt.Fprintf(w, "  b [%d] <end of stream>\n", i)
		}
	}
}
