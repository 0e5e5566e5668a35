// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation, checks the workload's answer, and
// prints every metric BENCHMARK.json names, by name and unit:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1
//
// With --trace 0 it reports the end-to-end metrics, timed with no
// instrumentation in the measured calls; with --trace 1 a separate run
// reports the per-layer metrics, timing the benchmark's own calls into
// each layer's public functions. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the
// line before it is the run record: commit, Go version, CPU counts,
// seed, scales and the answer the workload produced. Any failed
// operation or answer check makes "correct" false and the exit code 1.
//
// The workload seed drives classifier and method seeds and the serve
// schedule, mix and record draws. Builtin dataset contents are fixed
// by their own seeds in internal/datagen; the seed never changes them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Set-up is built at least minSetups and at most maxSetups times,
// stopping once setupBudget is spent; setup_s is the median, so one
// slow build does not move the figure.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
)

// workloads maps each workload name to its driver. The reasons each
// exists are in BENCHMARK.json.
var workloads = map[string]func(*runner) error{
	"transfer-grid": runTransferGrid,
	"transer-paper": runTranserPaper,
	"join":          runJoin,
	"serve-mixed":   runServeMixed,
}

// workloadOrder is the order "--workload all" runs them in.
var workloadOrder = []string{"transfer-grid", "transer-paper", "join", "serve-mixed"}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark description: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one workload run: its settings, the operation and
// answer-check tally, the metrics and the run record.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scratch  string
	stderr   io.Writer

	attempted, failed int
	values            map[string]float64
	answer            map[string]any
	scales            map[string]float64
}

// op counts one operation; a non-nil error fails it.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// check counts one answer check.
func (r *runner) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("answer check failed: "+format, args...))
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

// setup builds the workload's set-up several times, reports the
// median as setup_s and keeps the last build.
func (r *runner) setup(build func() error) error {
	var ts []float64
	start := time.Now()
	for len(ts) < minSetups || (len(ts) < maxSetups && time.Since(start) < setupBudget) {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(ts))
	return nil
}

// measure calls pass until the run's measuring time is spent, at least
// once, and returns each call's wall time in seconds.
func (r *runner) measure(pass func() error) ([]float64, error) {
	var ts []float64
	start := time.Now()
	for len(ts) == 0 || time.Since(start) < r.seconds {
		// Every pass starts from a collected heap, so peak memory does
		// not depend on how much garbage the previous pass left.
		runtime.GC()
		t0 := time.Now()
		if err := pass(); err != nil {
			return ts, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	fmt.Fprintf(r.stderr, "perfbench: %s: pass seconds %.3f\n", r.workload, ts)
	return ts, nil
}

// alternate is measure for the traced run: it alternates an untraced
// and a traced pass until the measuring time is spent, at least one
// pair, and returns both series of wall times in seconds.
func (r *runner) alternate(plain, traced func() error) ([]float64, []float64, error) {
	var ps, ts []float64
	start := time.Now()
	for len(ts) == 0 || time.Since(start) < r.seconds {
		for _, side := range []struct {
			pass  func() error
			times *[]float64
		}{{plain, &ps}, {traced, &ts}} {
			runtime.GC()
			t0 := time.Now()
			if err := side.pass(); err != nil {
				return ps, ts, err
			}
			*side.times = append(*side.times, time.Since(t0).Seconds())
		}
	}
	return ps, ts, nil
}

// traceShares reports the share of the traced passes' wall time that
// no top-level layer span covered, and the traced passes' median time
// against the untraced ones'.
func (r *runner) traceShares(covered time.Duration, plain, traced []float64) {
	wall := 0.0
	for _, t := range traced {
		wall += t
	}
	r.set("trace.unattributed_share", 1-covered.Seconds()/wall)
	r.set("trace.overhead_share", median(traced)/median(plain)-1)
}

// metrics assembles the reported metric set: every end-to-end metric
// of the spec without tracing, every per-layer one with it. Per-layer
// metrics of a layer the workload does not exercise read 0, as do the
// metrics a failed run could not measure.
func (r *runner) metrics(s *spec) (map[string]metric, error) {
	want := s.EndToEnd
	if r.trace {
		want = s.PerLayer
	}
	known := map[string]bool{}
	out := map[string]metric{}
	for _, m := range want {
		known[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok && !r.trace && r.failed == 0 {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.op(fmt.Errorf("metric %s is %v", m.Name, v))
			v = 0
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %v", stray)
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 12, "measuring time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *name == "all" {
		return runAll(s, *seed, *seconds, *trace, stdout, stderr)
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	r := &runner{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scratch:  scratch,
		stderr:   stderr,
		values:   map[string]float64{},
		answer:   map[string]any{},
		scales:   map[string]float64{},
	}
	if err := drive(r); err != nil {
		r.op(err)
	}
	if !r.trace {
		r.set("peak_rss_mb", peakRSSMB())
	}
	ms, err := r.metrics(s)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 3
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	record := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    *seconds,
		"trace":      r.trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"scales":     r.scales,
		"answer":     r.answer,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		return 3
	}
	if err := enc.Encode(res); err != nil {
		return 3
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload as its own process, so each reports its
// own peak memory, and prints each workload's metrics by name and unit
// followed by its run record. It fails if any workload fails.
func runAll(s *spec, seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	code := 0
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if err != nil {
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
			fmt.Fprintf(stderr, "perfbench: %s printed no result\n", name)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "== %s  correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
		if len(lines) > 1 {
			fmt.Fprintln(stdout, lines[len(lines)-2])
		}
	}
	return code
}
