package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter brackets one run call. Before the call it collects garbage and
// returns free memory to the OS, so every run starts from the same heap,
// and resets the process's resident high-water mark. It then records
// wall and process CPU time, heap bytes allocated, peak RSS and GC work.
// With a profiler attached it also profiles exactly the bracketed call.
type meter struct {
	prof *profiler

	t0     time.Time
	cpu0   float64
	alloc0 uint64
	gc0    gcStats

	wall, cpu  float64 // seconds
	allocBytes uint64
	peakRSS    uint64 // bytes
	gc         gcStats
	err        error
}

type gcStats struct {
	cycles uint64
	cpu    float64 // seconds
}

func (m *meter) start() {
	debug.FreeOSMemory()
	if m.prof != nil {
		m.prof.begin()
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		m.err = fmt.Errorf("reset peak RSS: %w", err)
	}
	m.gc0 = readGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0).Seconds()
	m.cpu = processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes = ms.TotalAlloc - m.alloc0
	gc := readGC()
	m.gc = gcStats{cycles: gc.cycles - m.gc0.cycles, cpu: gc.cpu - m.gc0.cpu}
	peak, err := peakRSS()
	if err != nil && m.err == nil {
		m.err = err
	}
	m.peakRSS = peak
	if m.prof != nil {
		m.prof.end()
	}
}

// processCPU is the process's user plus system CPU time in seconds, over
// all its threads.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), cpu: s[1].Value.Float64()}
}

// peakRSS reads the resident high-water mark (VmHWM) since the last reset.
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// profiler profiles the run calls it is attached to and folds each
// profile, as soon as it ends, into per-layer CPU and allocation totals.
type profiler struct {
	cpu         bytes.Buffer
	allocBefore map[string]int64
	cpuNS       map[string]int64 // layer → CPU nanoseconds
	allocBytes  map[string]int64 // layer → bytes allocated
	runs        int
	err         error
}

func newProfiler() *profiler {
	return &profiler{cpuNS: map[string]int64{}, allocBytes: map[string]int64{}}
}

func (p *profiler) begin() {
	p.allocBefore = p.allocTotals()
	p.cpu.Reset()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		p.fail(fmt.Errorf("start CPU profile: %w", err))
	}
}

func (p *profiler) end() {
	pprof.StopCPUProfile()
	after := p.allocTotals()
	for layer, n := range after {
		p.allocBytes[layer] += n - p.allocBefore[layer]
	}
	samples, err := readProfile(p.cpu.Bytes(), "cpu")
	if err != nil {
		p.fail(fmt.Errorf("CPU profile: %w", err))
	}
	for layer, n := range fold(samples) {
		p.cpuNS[layer] += n
	}
	p.runs++
}

// allocTotals is the cumulative bytes allocated per layer so far. The
// allocation profile is only complete as of the last finished GC cycle,
// hence the collection first.
func (p *profiler) allocTotals() map[string]int64 {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		p.fail(fmt.Errorf("write allocation profile: %w", err))
		return nil
	}
	samples, err := readProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		p.fail(fmt.Errorf("allocation profile: %w", err))
		return nil
	}
	return fold(samples)
}

func (p *profiler) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}
