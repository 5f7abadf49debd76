// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed measuring time, checks every answer the program gives, and
// prints the workload's metrics: human-readable lines first, then one JSON
// object as the last line of standard output.
//
//	perfbench --workload bfs-solo --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload with
// the program's span tracer on and reports the per-layer metrics instead.
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	why  string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"bfs-solo", "Graph 500 BFS in process: solo kernels, in-process collectives and partition set-up do the work",
		func(e *env) (*outcome, error) { return runBFS(soloConfig, e) }},
	{"bfsd-serve", "bfsd query serving: queueing, batching and multi-source sweeps do the work",
		func(e *env) (*outcome, error) { return runServe(serveDefaults, e) }},
	{"bfs-socket-ckpt", "the bfs-solo traversal with every collective on sockets and a checkpoint every iteration",
		func(e *env) (*outcome, error) { return runBFS(socketConfig, e) }},
	{"analytics", "the public PageRank, components, k-core and SSSP calls",
		func(e *env) (*outcome, error) { return runAnalytics(analyticsDefaults, e) }},
}

// env is what a workload receives from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// scratch is a directory inside the working directory for checkpoint
	// files and Unix sockets; workloads make their own subdirectories.
	scratch string
}

// subSeed derives an independent stream seed for one input of the workload
// (graph, roots, operation mix, arrivals) with a splitmix64 step.
func (e *env) subSeed(stream uint64) uint64 {
	z := e.seed + stream*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int64
	wrongAnswers      int64
	firstWrong        error
	e2e, layers       map[string]float64
	host              hostFacts
	lines             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(map[string]float64), host: readHostFacts()}
}

// wrong records an answer that failed its check.
func (o *outcome) wrong(err error) {
	o.wrongAnswers++
	if o.firstWrong == nil {
		o.firstWrong = err
	}
}

// note adds a human-readable measurement line with its sample count.
func (o *outcome) note(name string, value float64, unit string, n int) {
	o.lines = append(o.lines, fmt.Sprintf("%-26s %14.6g %-6s (n=%d)", name, value, unit, n))
}

func (o *outcome) notef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// wallBudget caps a measuring loop's wall time, so failing operations, which
// add no measured time, cannot keep it running.
func wallBudget(measure time.Duration) time.Duration { return 3*measure + 10*time.Second }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measuring time")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for checkpoints and sockets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		fmt.Fprintf(stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1, scratch: *scratch}
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	out.e2e["rss_peak_mib"] = peakRSSMiB()
	res, err := buildResult(out, e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, w, e, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "%s: %d wrong answers; first: %v\n", w.name, out.wrongAnswers, out.firstWrong)
		return 1
	}
	return 0
}

// buildResult selects the metric set the run reports. A metric that was not
// measured, or did not come out as a finite number, fails the run rather
// than pass for a value.
func buildResult(out *outcome, traced bool) (*result, error) {
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layers
	}
	res := &result{
		Correct:   out.wrongAnswers == 0,
		Attempted: out.attempted,
		Failed:    out.failed + out.wrongAnswers,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if traced && !ok {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func printReport(w io.Writer, wl *workload, e *env, out *outcome) {
	host, _ := json.Marshal(out.host)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", wl.name, e.seed, e.seconds.Seconds(), e.traced)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintf(w, "host %s\n", host)
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  wrong answers %d  fail_share %g\n",
		out.attempted, out.failed, out.wrongAnswers,
		float64(out.failed+out.wrongAnswers)/math.Max(1, float64(out.attempted)))
	defs, vals := endToEnd, out.e2e
	if e.traced {
		defs, vals = perLayer, out.layers
	}
	names := make([]string, 0, len(defs))
	units := make(map[string]string)
	for _, d := range defs {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, vals[n], units[n])
	}
}
