package core

import (
	"strings"
	"testing"
	"time"
)

func TestDecisionLogRecordsLifecycle(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, EnableLog: true})
	a := job("a", 1, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	b := job("b", 5, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	s.OnJobComplete(b)
	s.OnJobComplete(a)

	log := s.Log()
	var kinds []string
	for _, d := range log {
		kinds = append(kinds, d.Kind.String()+":"+d.JobID)
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"start:a", "shrink:a", "start:b", "complete:b", "expand:a", "complete:a"} {
		if !strings.Contains(joined, want) {
			t.Errorf("decision log missing %q: %s", want, joined)
		}
	}
	// Every entry has consistent accounting.
	for _, d := range log {
		if d.FreeSlots < 0 || d.FreeSlots > 16 {
			t.Errorf("decision %v has free=%d", d, d.FreeSlots)
		}
		if d.String() == "" {
			t.Error("empty decision string")
		}
	}
}

func TestDecisionLogDisabledByDefault(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	if err := s.Submit(job("a", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Log()); n != 0 {
		t.Errorf("log has %d entries without EnableLog", n)
	}
}

func TestDecisionLogBounded(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 1 << 20, EnableLog: true})
	// Churn far past the cap: each round logs a start and a complete.
	const rounds = maxLogEntries/2 + 100
	for i := 0; i < rounds; i++ {
		j := job("j", 1, 1, 1)
		j.ID = "j" + string(rune('a'+i%26))
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		s.OnJobComplete(j)
		clk.advance(time.Second)
	}
	if n := len(s.Log()); n > maxLogEntries {
		t.Errorf("log grew to %d entries (cap %d)", n, maxLogEntries)
	}
	if got, want := s.LogDropped(), 2*rounds-maxLogEntries; got != want {
		t.Errorf("LogDropped = %d, want %d", got, want)
	}
}

// TestMergeLogsCountsDrops pins that a merge reports the segments' own
// drops plus what the bound discards, keeping the newest entries.
func TestMergeLogsCountsDrops(t *testing.T) {
	seg := func(n int, id string) []Decision {
		out := make([]Decision, n)
		for i := range out {
			out[i].JobID = id
		}
		return out
	}
	merged, dropped := MergeLogs(5, seg(maxLogEntries-10, "a"), seg(30, "b"))
	if len(merged) != maxLogEntries || dropped != 25 {
		t.Fatalf("merged %d entries, dropped %d; want %d, 25", len(merged), dropped, maxLogEntries)
	}
	if merged[0].JobID != "a" || merged[len(merged)-1].JobID != "b" {
		t.Errorf("merge kept the wrong end: first %q, last %q", merged[0].JobID, merged[len(merged)-1].JobID)
	}
	if merged, dropped := MergeLogs(3, nil, nil); merged != nil || dropped != 3 {
		t.Errorf("empty merge = %d entries, dropped %d; want 0, 3", len(merged), dropped)
	}
}

func TestDecisionKindStrings(t *testing.T) {
	kinds := []DecisionKind{DecisionStart, DecisionShrink, DecisionExpand,
		DecisionEnqueue, DecisionComplete, DecisionPreempt, DecisionKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("DecisionKind(%d) empty", k)
		}
	}
}
