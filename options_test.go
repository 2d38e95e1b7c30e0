package elastichpc_test

import (
	"reflect"
	"testing"

	"elastichpc"
	"elastichpc/internal/sim"
)

// TestSimOptionsEquivalence pins the facade's named options to the
// sim.Config fields they stand for: Simulate with each option set must
// return a result bit-identical to sim.Run on the default configuration
// with those fields set by hand.
func TestSimOptionsEquivalence(t *testing.T) {
	w := elastichpc.RandomWorkload(48, 45, 7)
	prof := elastichpc.SpotPreemptionProfile{MeanGap: 400, Slots: 24, MeanOutage: 200}
	tr, err := prof.Events(7, 64, w.Span()+4*3600)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 120.0
	p := elastichpc.Elastic

	cases := []struct {
		name string
		set  func(*sim.Config)
		opts []elastichpc.SimOption
	}{
		{
			name: "streaming",
			set:  func(c *sim.Config) { c.Streaming = true },
			opts: []elastichpc.SimOption{elastichpc.WithRescaleGap(gap), elastichpc.WithStreaming()},
		},
		{
			name: "parallel",
			set:  func(c *sim.Config) { c.Streaming, c.Shards = true, 4 },
			opts: []elastichpc.SimOption{elastichpc.WithRescaleGap(gap), elastichpc.WithShards(4)},
		},
		{
			name: "availability",
			set:  func(c *sim.Config) { c.Availability = tr },
			opts: []elastichpc.SimOption{elastichpc.WithRescaleGap(gap), elastichpc.WithAvailability(tr)},
		},
		{
			name: "availability streaming",
			set:  func(c *sim.Config) { c.Availability, c.Streaming = tr, true },
			opts: []elastichpc.SimOption{
				elastichpc.WithRescaleGap(gap), elastichpc.WithAvailability(tr), elastichpc.WithStreaming(),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig(p)
			cfg.RescaleGap = gap
			tc.set(&cfg)
			want, err := sim.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := elastichpc.Simulate(p, w, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("options path diverged from the hand-set config:\nconfig:  %+v\noptions: %+v", want, got)
			}
		})
	}
}

// TestSimOptionsCompose checks the option mechanics themselves: options
// apply in order over the default configuration, and WithSimConfig replaces
// the base before later options land on top.
func TestSimOptionsCompose(t *testing.T) {
	w := elastichpc.RandomWorkload(16, 60, 3)
	base, err := elastichpc.Simulate(elastichpc.Elastic, w, elastichpc.WithRescaleGap(60))
	if err != nil {
		t.Fatal(err)
	}
	// Later options override earlier ones.
	overridden, err := elastichpc.Simulate(elastichpc.Elastic, w,
		elastichpc.WithRescaleGap(9999), elastichpc.WithRescaleGap(60))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, overridden) {
		t.Error("option ordering not last-wins")
	}
	// WithSimConfig replaces the base wholesale.
	cfg := elastichpc.SimConfig{
		Policy: elastichpc.Elastic, Capacity: 64,
		RescaleGap: 60, Machine: elastichpc.DefaultMachine(),
	}
	explicit, err := elastichpc.Simulate(elastichpc.Elastic, w, elastichpc.WithSimConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) {
		t.Error("WithSimConfig diverged from the equivalent named options")
	}
}

// TestFederationRebalanceFacade drives the federation v2 surface end to end
// through the facade: pluggable members, the rebalancer, and the migration
// log re-exports.
func TestFederationRebalanceFacade(t *testing.T) {
	w := elastichpc.RandomWorkload(48, 30, 5)
	small := elastichpc.SimConfig{
		Policy: elastichpc.Elastic, Capacity: 16,
		RescaleGap: 180, Machine: elastichpc.DefaultMachine(),
	}
	big := small
	big.Capacity = 64
	cfg := elastichpc.FederationConfig{
		Backends: []elastichpc.FederationMember{
			elastichpc.SimFederationMember(small),
			elastichpc.SimFederationMember(big),
		},
		Route:     elastichpc.RouteRoundRobin,
		Workers:   1,
		Rebalance: elastichpc.FederationRebalance{Every: 300},
	}
	res, err := elastichpc.Federate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebalanceRounds == 0 {
		t.Error("no rebalance rounds through the facade")
	}
	total := 0
	for _, n := range res.JobsPerMember {
		total += n
	}
	if total != 48 {
		t.Errorf("%d of 48 jobs completed", total)
	}
	var _ []elastichpc.FederationMigration = res.Migrations
}
