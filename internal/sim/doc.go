// Package sim is the discrete-event scheduling simulator of paper §4.3.1:
// it replays a stream of malleable-job submissions against the four
// scheduling policies, modelling job runtimes with the strong-scaling model
// and charging the four-phase rescale overhead on every shrink/expand. It
// reports the paper's four metrics — total time, cluster utilization,
// weighted mean response time, and weighted mean completion time — plus the
// resilience aggregates (goodput, work lost, preemptions survived by
// shrinking vs. requeued) when the cluster's capacity varies over the run.
//
// # Event loop
//
// The hot path is allocation-free at steady state: events and job records
// are pooled, submissions stream from a sorted cursor instead of being
// pre-pushed into the event heap, and in streaming mode (Config.Streaming)
// per-job state is recycled at completion so a multi-million-job workload
// needs only O(running jobs) memory. Availability events stream from their
// own cursor over Config.Availability the same way. Job identities are
// interned to int32 slab indices (core.Job.Ref), equal-timestamp event
// batches share one scheduler kick re-arm, and the decision log is opt-in
// (Config.LogDecisions), so the default streaming path allocates nothing
// per job.
//
// # Determinism
//
// Every run is a pure function of (workload, availability trace, config):
// at equal timestamps, capacity events apply before submissions, which
// apply before completions and kicks; ties within each class keep trace,
// workload, and push order respectively. Streaming and retained runs
// accumulate their aggregates through the identical call sequence and agree
// bit-for-bit, as do sequential and parallel sweep executions. There is one
// sequential loop: Run is Begin followed by Finish, so a stepped run
// (Begin → StepTo… → Finish) without coordinator mutations returns the
// batch Result bit for bit, and the sharded mode's merge ends in the same
// collect.
package sim
