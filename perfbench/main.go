// Command perfbench is memstream's end-to-end benchmark. It runs one
// workload per invocation, checks that every answer is correct, and prints
// the workload's metrics; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Workloads:
//
//	sim-batch  in-process replica batches through sim.RunReplicas and
//	           sim.RunMultiReplicas
//	http-warm  open-loop load against a spawned memsd whose cache holds
//	           every request body
//	http-cold  open-loop load against a spawned memsd with a small cache
//	           and a unique body per request
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it replays
// the workload's own inputs with spans around the calls into each layer and
// prints the per-layer metrics instead. perfbench/run.py builds this program
// and memsd from the source tree and runs it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of memstream sees, reported by untraced
// runs of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_hours_per_s", "h/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"throughput_rps", "1/s", "higher"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricDef{
	{"workload.be_generate_ms", "ms", "lower"},
	{"workload.video_trace_ms", "ms", "lower"},
	{"workload.be_requests_per_hour", "count", "lower"},
	{"sim.new_ms", "ms", "lower"},
	{"sim.reset_ms", "ms", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"engine.ns_per_cycle", "ns", "lower"},
	{"engine.cycles_per_hour", "count", "lower"},
	{"parallel.busy_share", "ratio", "higher"},
	{"service.decode_us", "us", "lower"},
	{"service.bytes_hit_us", "us", "lower"},
	{"service.bytes_miss_us", "us", "lower"},
	{"service.handler_us", "us", "lower"},
	{"net.overhead_us", "us", "lower"},
	{"explore.point_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_req", "count", "lower"},
	{"engine.steps_per_req", "count", "lower"},
	{"pool.tasks_per_req", "count", "lower"},
	{"http.shed", "count", "lower"},
	{"http.p50_ms", "ms", "lower"},
	{"http.p99_ms", "ms", "lower"},
	{"http.p99_samples", "count", "higher"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricName is the grammar every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	memsd    string
	warmRPS  float64
	coldRPS  float64
	outDir   string
	commit   string
}

// measurement collects what one workload run observed.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems lists every failed correctness check.
	problems []string
	// notes are informational lines printed ahead of the metrics.
	notes []string
}

func newMeasurement() *measurement {
	return &measurement{values: make(map[string]float64)}
}

func (m *measurement) set(name string, v float64) { m.values[name] = v }

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finalize turns a measurement into the result line for defs. A metric the
// run did not produce, or produced as NaN or infinity, is a failed check.
func finalize(m *measurement, defs []metricDef) result {
	r := result{Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := m.values[d.name]
		switch {
		case !ok:
			m.problem("metric %s was not measured", d.name)
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			m.problem("metric %s is %v", d.name, v)
			continue
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		m.problem("no operation was attempted")
	}
	if r.Failed > 0 {
		m.problem("%d of %d operations failed", r.Failed, r.Attempted)
	}
	r.Correct = len(m.problems) == 0
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "sim-batch, http-warm or http-cold")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 replays the workload with spans and reports per-layer metrics")
	fs.StringVar(&o.memsd, "memsd", "", "memsd binary built from the tree (HTTP workloads)")
	fs.Float64Var(&o.warmRPS, "warm-rps", 0, "offered rate of the http-warm fixed-rate phase, per second")
	fs.Float64Var(&o.coldRPS, "cold-rps", 0, "offered rate of the http-cold fixed-rate phase, per second")
	fs.StringVar(&o.outDir, "out", "", "directory for the traced run's span file (empty: none)")
	fs.StringVar(&o.commit, "commit", "", "source revision recorded with the result")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "sim-batch" && o.workload != "http-warm" && o.workload != "http-cold":
		return o, fmt.Errorf("unknown workload %q (want sim-batch, http-warm or http-cold)", o.workload)
	case !(o.seconds > 0):
		return o, fmt.Errorf("seconds must be positive, got %v", o.seconds)
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("trace must be 0 or 1, got %d", *trace)
	case o.workload != "sim-batch" && o.memsd == "":
		return o, fmt.Errorf("%s needs -memsd", o.workload)
	case o.workload == "http-warm" && !(o.warmRPS > 0):
		return o, fmt.Errorf("http-warm needs a positive -warm-rps")
	case o.workload == "http-cold" && !(o.coldRPS > 0):
		return o, fmt.Errorf("http-cold needs a positive -cold-rps")
	}
	o.trace = *trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env := captureEnvironment(o.commit)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var m *measurement
	if o.workload == "sim-batch" {
		m, err = runSimBatch(o, tr)
	} else {
		m, err = runHTTP(o, tr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if o.outDir != "" {
			path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
			if err := tr.writeFile(path); err != nil {
				m.problem("write spans: %v", err)
			} else {
				m.note("spans written to %s", path)
			}
		}
	}
	res := finalize(m, defs)
	envLine, _ := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Trace    bool        `json:"trace"`
		Env      environment `json:"env"`
	}{o.workload, o.seed, o.seconds, o.trace, env})
	fmt.Fprintf(stdout, "run %s\n", envLine)
	for _, n := range m.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(stdout, "  %-30s %14d\n  %-30s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	for _, p := range m.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
