package core

import (
	"fmt"
	"time"
)

// DecisionKind classifies a scheduling decision.
type DecisionKind int

// Decision kinds recorded by the scheduler.
const (
	DecisionStart DecisionKind = iota
	DecisionShrink
	DecisionExpand
	DecisionEnqueue
	DecisionComplete
	DecisionPreempt
	DecisionCapacity
	DecisionWithdraw
)

// String returns the decision kind's log label.
func (k DecisionKind) String() string {
	switch k {
	case DecisionStart:
		return "start"
	case DecisionShrink:
		return "shrink"
	case DecisionExpand:
		return "expand"
	case DecisionEnqueue:
		return "enqueue"
	case DecisionComplete:
		return "complete"
	case DecisionPreempt:
		return "preempt"
	case DecisionCapacity:
		return "capacity"
	case DecisionWithdraw:
		return "withdraw"
	}
	return fmt.Sprintf("DecisionKind(%d)", int(k))
}

// Decision is one entry in the scheduler's decision log — the audit trail
// of every policy action, with the slot accounting at the time it was made.
type Decision struct {
	At        time.Time
	Kind      DecisionKind
	JobID     string
	Replicas  int // allocation after the decision (0 for enqueue/complete; the new total for capacity)
	FreeSlots int // free slots after the decision
}

// String formats a decision as one log line.
func (d Decision) String() string {
	return fmt.Sprintf("%s %-8s %-12s replicas=%-3d free=%d",
		d.At.Format("15:04:05"), d.Kind, d.JobID, d.Replicas, d.FreeSlots)
}

// maxLogEntries bounds the in-memory decision log; older entries are
// discarded and counted (the operator runs for days).
const maxLogEntries = 100_000

// logRing is a bounded ring buffer of decisions, mirroring the charm msgq
// ring: the backing array grows until maxLogEntries and is then reused
// in place, so steady-state logging overwrites the oldest slot instead of
// copying or allocating per entry.
type logRing struct {
	buf     []Decision
	head    int // index of the oldest entry once the ring is full
	n       int // live entries
	dropped int // entries overwritten
}

// add appends one entry, overwriting (and counting) the oldest at the cap.
func (r *logRing) add(d Decision) {
	if len(r.buf) < maxLogEntries {
		r.buf = append(r.buf, d)
		r.n = len(r.buf)
		return
	}
	r.buf[r.head] = d
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// snapshot returns the entries oldest-first as a fresh slice.
func (r *logRing) snapshot() []Decision {
	if r.n == 0 {
		return nil
	}
	out := make([]Decision, 0, r.n)
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// record appends a per-job decision to the log.
func (s *Scheduler) record(kind DecisionKind, j *Job) {
	if !s.cfg.EnableLog {
		return
	}
	s.log.add(Decision{
		At: s.tnow, Kind: kind, JobID: j.ID, Replicas: j.Replicas, FreeSlots: s.free,
	})
}

// recordCapacity logs a capacity change (EnableLog only).
func (s *Scheduler) recordCapacity(n int) {
	if !s.cfg.EnableLog {
		return
	}
	s.log.add(Decision{
		At: s.tnow, Kind: DecisionCapacity, JobID: "", Replicas: n, FreeSlots: s.free,
	})
}

// Log returns a copy of the decision log, oldest entry first (empty unless
// Config.EnableLog).
func (s *Scheduler) Log() []Decision {
	return s.log.snapshot()
}

// LogDropped returns how many of the oldest decisions the bounded log has
// overwritten; Log holds the rest.
func (s *Scheduler) LogDropped() int { return s.log.dropped }

// MergeLogs concatenates per-segment decision logs (each oldest-first) in
// segment order and applies the ring-buffer bound, keeping the newest
// maxLogEntries entries — exactly the log one scheduler would hold had it
// recorded every segment's decisions in sequence. (A segment whose own ring
// already dropped entries dropped only entries with at least maxLogEntries
// successors globally, which the single-scheduler ring drops too.) dropped
// is the segments' summed LogDropped; the returned count adds the entries
// the bound discards here, so it equals the single scheduler's LogDropped.
func MergeLogs(dropped int, segments ...[]Decision) ([]Decision, int) {
	total := 0
	for _, seg := range segments {
		total += len(seg)
	}
	if total == 0 {
		return nil, dropped
	}
	skip := 0
	if total > maxLogEntries {
		skip = total - maxLogEntries
	}
	dropped += skip
	out := make([]Decision, 0, total-skip)
	for _, seg := range segments {
		if skip >= len(seg) {
			skip -= len(seg)
			continue
		}
		out = append(out, seg[skip:]...)
		skip = 0
	}
	return out, dropped
}
