package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"

	"elastichpc/internal/workload"
)

// TestChargeRule pins the folding rule on fixed stacks, innermost frame
// first.
func TestChargeRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []frame
		layer string
		shard bool
	}{
		{"stdlib frames go to the repo caller", []frame{
			{"runtime.mallocgc", "/go/src/runtime/malloc.go"},
			{"sort.insertionSort", "/go/src/sort/zsortfunc.go"},
			{"elastichpc/internal/core.(*Scheduler).kick", "/src/internal/core/scheduler.go"},
			{"elastichpc/internal/sim.(*Simulator).runWindow", "/src/internal/sim/sim.go"},
			{"main.main", "/src/perfbench/main.go"},
		}, "core", false},
		{"innermost repo frame wins", []frame{
			{"elastichpc/internal/model.Spec.IterTime", "/src/internal/model/model.go"},
			{"elastichpc/internal/sim.(*Simulator).progress", "/src/internal/sim/sim.go"},
		}, "model", false},
		{"sharded path", []frame{
			{"math.Float64bits", "/go/src/math/unsafe.go"},
			{"elastichpc/internal/sim.(*Simulator).runSharded.func1", "/src/internal/sim/shard.go"},
		}, "sim", true},
		{"merge is on the sharded path", []frame{
			{"elastichpc/internal/sim.replaySeals", "/src/internal/sim/merge.go"},
		}, "sim", true},
		{"generic method", []frame{
			{"elastichpc/internal/k8s.(*Store[go.shape.struct]).Put", "/src/internal/k8s/store.go"},
		}, "k8s", false},
		{"no repo frame", []frame{
			{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
		}, "runtime", false},
		{"the profiler's own work", []frame{
			{"compress/flate.(*compressor).deflate", "/go/src/compress/flate/deflate.go"},
			{"runtime/pprof.profileWriter", "/go/src/runtime/pprof/pprof.go"},
		}, "", false},
	} {
		layer, shard := charge(tc.stack)
		if layer != tc.layer || shard != tc.shard {
			t.Errorf("%s: charge = %q, %v; want %q, %v", tc.name, layer, shard, tc.layer, tc.shard)
		}
	}
}

func TestFoldCountsShardInSim(t *testing.T) {
	got := fold([]stackSample{
		{stack: []frame{{"elastichpc/internal/sim.merge", "/src/internal/sim/merge.go"}}, value: 3},
		{stack: []frame{{"elastichpc/internal/sim.New", "/src/internal/sim/sim.go"}}, value: 4},
		{stack: []frame{{"runtime.mcall", "/go/src/runtime/proc.go"}}, value: 5},
		{stack: []frame{{"runtime/pprof.profileWriter", "/go/src/runtime/pprof/pprof.go"}}, value: 6},
	})
	want := map[string]int64{"sim": 7, shardLayer: 3, "runtime": 5}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("fold = %v, want %v", got, want)
		}
	}
}

// TestReadProfileCharges decodes a real allocation profile written by
// runtime/pprof and finds the bytes a workload generator allocated
// charged to the workload layer.
func TestReadProfileCharges(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocFold(t)
	w, err := workload.Uniform{Jobs: 5000, Gap: 1}.Generate(1)
	if err != nil || len(w.Jobs) != 5000 {
		t.Fatalf("generate: %d jobs, %v", len(w.Jobs), err)
	}
	after := allocFold(t)
	// 5000 JobSpecs of at least 40 bytes each, plus their ID strings.
	if got := after["workload"] - before["workload"]; got < 5000*40 {
		t.Fatalf("workload layer allocated %d bytes, want at least %d", got, 5000*40)
	}
	if _, err := readProfile(profileBytes(t), "no_such_type"); err == nil {
		t.Fatal("readProfile accepted an unknown sample type")
	}
	if _, err := readProfile([]byte("not a profile"), "alloc_space"); err == nil {
		t.Fatal("readProfile accepted garbage")
	}
}

func profileBytes(t *testing.T) []byte {
	t.Helper()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func allocFold(t *testing.T) map[string]int64 {
	t.Helper()
	samples, err := readProfile(profileBytes(t), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	return fold(samples)
}
