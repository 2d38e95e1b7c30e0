// Command perfbench is the repository benchmark. It generates one named
// workload from a seed, runs it through the layers' public entry points
// for a fixed time, checks every output, and prints the metrics as one
// JSON object on the last line of standard output:
//
//	perfbench --workload backlog --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured without profiling.
// --trace 1 prints the per-layer split: a few unprofiled repetitions, then
// repetitions whose run calls are CPU- and allocation-profiled, with the
// spans around each layer call written to the --out directory at the end.
// README.md names every metric, its unit, and which end-to-end metric each
// per-layer one should move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minReps is the fewest measured repetitions a run takes, however long
// they last.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(caseNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload is generated from")
	seconds := fs.Float64("seconds", 30, "time to measure for, in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer split")
	out := fs.String("out", filepath.Join(".bench_build", "spans"), "directory the traced run's spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	c, err := newCase(*name, defaultJobs[*name])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace == 1 {
		// Sample every 16 KiB allocated instead of every 512 KiB, so the
		// smaller layers' allocation shares are resolved too.
		runtime.MemProfileRate = 16 << 10
	}
	r, err := measure(c, *seed, *seconds, *trace == 1, stderr)
	if err == nil && *trace == 1 {
		err = r.spans.write(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", c.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd()}
	if *trace == 1 {
		rep.Metrics = r.perLayer()
	}
	printTable(stderr, c.name, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one repetition: generate the inputs, construct the layer, and
// make the one timed run call.
type rep struct {
	jobs            int
	generate, build float64 // seconds
	route           float64 // seconds; routing cases, profiled repetitions only
	m               meter
	out             outcome
	err             error // the program failed or an output check did
}

// result is everything one invocation measured.
type result struct {
	attempted, failed int
	ref               *outcome // the first correct outcome; all must equal it
	untraced, traced  []rep
	prof              *profiler
	spans             *spans
}

// measure warms up, checks the case's one-off contract, and repeats the
// case until seconds have passed, profiling the last two thirds of the
// time when trace is set. The returned error is the harness's own; the
// program's failures are counted in the result.
func measure(c benchCase, seed int64, seconds float64, trace bool, log io.Writer) (*result, error) {
	r := &result{spans: newSpans()}
	// The warm-up fills caches and finishes lazy set-up before timing, and
	// fixes the outcome every later repetition must reproduce exactly.
	if _, err := r.repeat(c, seed, nil, log); err != nil {
		return nil, err
	}
	if c.verify != nil {
		in, err := c.generate(seed)
		if err == nil {
			err = c.verify(in)
		}
		r.attempted += c.jobs
		if err != nil {
			r.failed += c.jobs
			fmt.Fprintf(log, "perfbench: %s: %v\n", c.name, err)
		}
	}
	plain := seconds
	if trace {
		plain = seconds / 3
		r.prof = newProfiler()
	}
	for end := time.Now().Add(dur(plain)); len(r.untraced) < minReps || time.Now().Before(end); {
		p, err := r.repeat(c, seed, nil, log)
		if err != nil {
			return nil, err
		}
		r.untraced = append(r.untraced, p)
	}
	if !trace {
		return r, nil
	}
	for end := time.Now().Add(dur(seconds - plain)); len(r.traced) < minReps || time.Now().Before(end); {
		p, err := r.repeat(c, seed, r.prof, log)
		if err != nil {
			return nil, err
		}
		r.traced = append(r.traced, p)
	}
	return r, r.prof.err
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// repeat makes one repetition and counts its jobs, failing them all when
// any check fails.
func (r *result) repeat(c benchCase, seed int64, prof *profiler, log io.Writer) (rep, error) {
	p := c.once(seed, r.spans, prof)
	if p.m.err != nil {
		return p, p.m.err
	}
	r.attempted += p.jobs
	err := p.err
	if err == nil {
		err = sane(p.out)
	}
	if err == nil && r.ref != nil && p.out != *r.ref {
		err = fmt.Errorf("determinism: outcome %+v differs from the first run's %+v", p.out, *r.ref)
	}
	if err != nil {
		r.failed += p.jobs
		p.err = err
		fmt.Fprintf(log, "perfbench: %s: %v\n", c.name, err)
	} else if r.ref == nil {
		o := p.out
		r.ref = &o
	}
	return p, nil
}

// once generates, constructs and runs the case once, recording a span
// around each layer call. With a profiler, it profiles the run call and
// also times the routing pass on its own.
func (c benchCase) once(seed int64, sp *spans, prof *profiler) rep {
	p := rep{jobs: c.jobs, m: meter{prof: prof}}
	root := sp.start("rep", 0)
	defer sp.stop(root)
	id := sp.start("workload.generate", root)
	in, err := c.generate(seed)
	p.generate = sp.stop(id)
	if err != nil {
		p.err = fmt.Errorf("generate: %w", err)
		return p
	}
	p.jobs = jobCount(in)
	id = sp.start("sim.new", root)
	call, err := c.build(in)
	p.build = sp.stop(id)
	if err != nil {
		p.err = fmt.Errorf("construct: %w", err)
		return p
	}
	if prof != nil && c.route != nil {
		id = sp.start("federation.partition", root)
		err := c.route(in[0].w)
		p.route = sp.stop(id)
		if err != nil {
			p.err = fmt.Errorf("partition: %w", err)
			return p
		}
	}
	id = sp.start("run", root)
	p.out, p.err = call(&p.m)
	sp.stop(id)
	return p
}

// sane checks the scheduling metrics are in range.
func sane(o outcome) error {
	if !(o.Util > 0 && o.Util <= 1) {
		return fmt.Errorf("utilization %v outside (0, 1]", o.Util)
	}
	if !(o.WResp >= 0) || math.IsInf(o.WResp, 0) {
		return fmt.Errorf("weighted response %v is not a time", o.WResp)
	}
	return nil
}

func (r *result) endToEnd() map[string]metric {
	ref := r.outcome()
	return map[string]metric{
		"jobs_per_s":     {median(r.untraced, func(p rep) float64 { return float64(p.out.Completed) / p.m.wall }), "jobs/s"},
		"run_cpu_s":      {median(r.untraced, func(p rep) float64 { return p.m.cpu }), "s"},
		"setup_s":        {median(r.untraced, func(p rep) float64 { return p.generate + p.build }), "s"},
		"alloc_mb":       {median(r.untraced, func(p rep) float64 { return float64(p.m.allocBytes) / 1e6 }), "MB"},
		"peak_rss_mb":    {median(r.untraced, func(p rep) float64 { return float64(p.m.peakRSS) / 1e6 }), "MB"},
		"sched_util":     {ref.Util, "frac"},
		"sched_wresp_s":  {ref.WResp, "s"},
		"completed_frac": {1 - float64(r.failed)/float64(r.attempted), "frac"},
	}
}

// layers are the rows of the per-layer CPU and allocation split; "other"
// collects any repo package not named here.
var layers = []string{"core", "sim", shardLayer, "federation", "k8s", "operator", "cluster", "model", "workload", "other", "runtime"}

func (r *result) perLayer() map[string]metric {
	ref := r.outcome()
	wall := func(p rep) float64 { return p.m.wall }
	m := map[string]metric{
		"workload.generate_s":    {median(r.traced, func(p rep) float64 { return p.generate }), "s"},
		"sim.new_s":              {median(r.traced, func(p rep) float64 { return p.build }), "s"},
		"federation.partition_s": {median(r.traced, func(p rep) float64 { return p.route }), "s"},
		"trace.overhead_frac":    {median(r.traced, wall)/median(r.untraced, wall) - 1, "frac"},
		"gc.cycles":              {median(r.untraced, func(p rep) float64 { return float64(p.m.gc.cycles) }), "count"},
		"gc.cpu_s":               {median(r.untraced, func(p rep) float64 { return p.m.gc.cpu }), "s"},
		"par.cpu_per_wall":       {median(r.untraced, func(p rep) float64 { return p.m.cpu / p.m.wall }), "ratio"},
		"sim.capacity_events":    {float64(ref.CapEvents), "count"},
		"core.forced_shrinks":    {float64(ref.ForcedShrinks), "count"},
		"core.requeues":          {float64(ref.Requeues), "count"},
		"federation.rounds":      {float64(ref.Rounds), "count"},
		"federation.migrations":  {float64(ref.Migrations), "count"},
	}
	moves := 0.0
	if ref.Rounds > 0 {
		moves = float64(ref.Migrations) / float64(ref.Rounds)
	}
	m["federation.moves_per_round"] = metric{moves, "ratio"}
	runs := float64(r.prof.runs)
	for layer, ns := range known(r.prof.cpuNS) {
		m["cpu."+layer+"_s"] = metric{float64(ns) / 1e9 / runs, "s"}
	}
	for layer, b := range known(r.prof.allocBytes) {
		m["alloc."+layer+"_mb"] = metric{float64(b) / 1e6 / runs, "MB"}
	}
	return m
}

// known maps a per-package fold onto the named layers, charging packages
// not in the list to "other", and gives every listed layer a row.
func known(fold map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for pkg, v := range fold {
		if _, ok := out[pkg]; !ok {
			pkg = "other"
		}
		out[pkg] += v
	}
	return out
}

// outcome is the reference outcome, or the zero one when no run was
// correct.
func (r *result) outcome() outcome {
	if r.ref == nil {
		return outcome{}
	}
	return *r.ref
}

func median(reps []rep, f func(rep) float64) float64 {
	if len(reps) == 0 {
		return math.NaN()
	}
	xs := make([]float64, len(reps))
	for i, p := range reps {
		xs[i] = f(p)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// printTable writes the report for people, one metric a line.
func printTable(w io.Writer, name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
