package federation

import (
	"fmt"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// BenchmarkFederation is the multi-cluster scale benchmark: one million
// bursty submissions routed round-robin across a 4-cluster fleet, each
// member a streaming-mode simulator at the paper's 64-slot capacity. The
// wave gap is a quarter of the single-cluster backlog benchmark's, so after
// the 4-way deal every member sees exactly the reference per-cluster load
// (200 jobs per 29000 s) and the fleet sustains the same backlog pressure at
// 4× the job throughput. CI gates the aggregate rate via BENCH_BASELINE.json;
// the per-cluster job counts and utilizations are reported as ungated
// sub-metrics for benchreport to list.
func BenchmarkFederation(b *testing.B) {
	const jobs = 1_000_000
	const clusters = 4
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000 / clusters}).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Streaming = true
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Members: Uniform(base, clusters), Route: RoundRobin}, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime <= 0 {
			b.Fatalf("degenerate result: %+v", res)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	for i, m := range last.Members {
		b.ReportMetric(float64(last.JobsPerMember[i]), fmt.Sprintf("c%d_jobs", i))
		b.ReportMetric(m.Utilization, fmt.Sprintf("c%d_util", i))
	}
}

// BenchmarkFederationMigration measures the rebalanced fleet path: a
// 4-cluster fleet at the reference per-cluster load whose member 0 has half
// the slots, co-simulated in 300 s barrier rounds with the
// checkpoint-migrating rebalancer draining member 0's backlog into the
// healthy members. CI gates it against BENCH_BASELINE.json through the
// Federation prefix (±20% on ns/op and allocs/op); the moves/round metric
// tracks rebalancer activity.
func BenchmarkFederationMigration(b *testing.B) {
	const jobs = 100_000
	const clusters = 4
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000 / clusters}).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Streaming = true
	members := Uniform(base, clusters)
	members[0].Capacity = 32
	cfg := Config{
		Members:   members,
		Route:     RoundRobin,
		Rebalance: RebalanceConfig{Every: 300},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime <= 0 || res.RebalanceRounds == 0 {
			b.Fatalf("degenerate result: rounds=%d total=%g", res.RebalanceRounds, res.TotalTime)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(len(last.Migrations)), "migrations")
	b.ReportMetric(float64(len(last.Migrations))/float64(last.RebalanceRounds), "moves/round")
}
