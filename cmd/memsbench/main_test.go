package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// opts returns quick-run options: the fast scenarios, one rep, no warmup.
func opts(mutate func(*options)) options {
	o := options{
		scenario: "cbr-steady,service-warm",
		warmup:   0,
		reps:     1,
		format:   "table",
	}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func TestRunTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scenario", "allocs/op", "cbr-steady", "service-warm"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.format = "json" })); err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if r.Tool != "memsbench" || len(r.Scenarios) != 2 {
		t.Fatalf("report = %+v, want tool memsbench with 2 scenarios", r)
	}
	if r.Scenarios[0].Name != "cbr-steady" || r.Scenarios[1].Name != "service-warm" {
		t.Errorf("scenario order %q, %q not preserved", r.Scenarios[0].Name, r.Scenarios[1].Name)
	}
	// The JSON field order is the committed-baseline contract: stable fields
	// first, timing last, so regenerated baselines diff only in timing.
	out := buf.String()
	if i, j := strings.Index(out, `"allocs_per_op"`), strings.Index(out, `"ns_per_op"`); i < 0 || j < 0 || i > j {
		t.Error("allocs_per_op must precede ns_per_op in the JSON output")
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.format = "csv"; o.scenario = "cbr-steady" })); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv output has %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "name,reps,warmup") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "cbr-steady,1,0,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestCBRSteadyStateIsAllocationFree(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) {
		o.scenario = "cbr-steady,cbr-besteffort,vbr-mobile"
		o.format = "json"
		o.warmup = 1
		o.reps = 2
	})); err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Scenarios {
		if s.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op, want 0 in steady state", s.Name, s.AllocsPerOp)
		}
	}
}

func TestRunRejectsUnknownScenarioAndFormat(t *testing.T) {
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.scenario = "nope" })); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: err = %v", err)
	}
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.format = "xml" })); err == nil ||
		!strings.Contains(err.Error(), "unknown -format") {
		t.Errorf("unknown format: err = %v", err)
	}
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.reps = 0 })); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestOutWritesJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.scenario = "cbr-steady"; o.out = path })); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("-out file is not valid JSON: %v", err)
	}
	if len(r.Scenarios) != 1 || r.Scenarios[0].Name != "cbr-steady" {
		t.Errorf("-out report = %+v", r)
	}
}

func TestCheckAgainstOwnBaselinePasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.scenario = "cbr-steady"; o.out = path })); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.check = path })); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "within budget") {
		t.Errorf("check output missing summary:\n%s", buf.String())
	}
}

func TestCheckFlagsAllocationRegression(t *testing.T) {
	// Commit an impossible baseline — fewer allocations than the scenario
	// can achieve — and the check must fail and name the scenario.
	path := filepath.Join(t.TempDir(), "bench.json")
	baseline := Report{Tool: "memsbench", Scenarios: []Result{{
		Name:          "service-warm",
		Reps:          1,
		Warmup:        0,
		SimHoursPerOp: 0,
		AllocsPerOp:   0,
		BytesPerOp:    1 << 30,
		NsPerOp:       1 << 40,
	}}}
	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run(&buf, opts(func(o *options) { o.check = path }))
	if err == nil || !strings.Contains(err.Error(), "service-warm") {
		t.Fatalf("allocation regression not flagged: err = %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "allocs/op") {
		t.Errorf("check output does not explain the violation:\n%s", buf.String())
	}
}

// writeReport marshals a report to a temp file for the compare tests.
func writeReport(t *testing.T, r Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsTrajectory(t *testing.T) {
	oldPath := writeReport(t, Report{Tool: "memsbench", Scenarios: []Result{
		{Name: "cbr-steady", AllocsPerOp: 2, NsPerOp: 1000},
		{Name: "retired", AllocsPerOp: 7, NsPerOp: 500},
	}})
	newPath := writeReport(t, Report{Tool: "memsbench", Scenarios: []Result{
		{Name: "cbr-steady", AllocsPerOp: 0, NsPerOp: 1500},
		{Name: "fresh", AllocsPerOp: 3, NsPerOp: 200},
	}})
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.compare = []string{oldPath, newPath} })); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cbr-steady", "-2", "+50.0%", "added", "removed", "retired", "fresh"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareRejectsBadInputs(t *testing.T) {
	good := writeReport(t, Report{Tool: "memsbench", Scenarios: []Result{{Name: "cbr-steady"}}})
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.compare = []string{good} })); err == nil ||
		!strings.Contains(err.Error(), "exactly two") {
		t.Errorf("single-file compare accepted: %v", err)
	}
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.compare = []string{good, good}; o.check = good })); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("compare+check accepted: %v", err)
	}
	empty := writeReport(t, Report{Tool: "memsbench"})
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.compare = []string{good, empty} })); err == nil ||
		!strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("empty report accepted: %v", err)
	}
}

func TestCheckRejectsUnknownCommittedScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	baseline := Report{Tool: "memsbench", Scenarios: []Result{{Name: "warp-drive"}}}
	data, _ := json.Marshal(baseline)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.check = path })); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown committed scenario accepted: %v", err)
	}
}
