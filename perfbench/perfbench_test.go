package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestSameSeedGivesSameRequests(t *testing.T) {
	bodies := func(seed uint64) []string {
		var out []string
		set := warmSet(seed)
		for _, i := range warmSequence(seed, len(set)) {
			out = append(out, set[i].path+" "+string(set[i].body))
		}
		for i := range 400 {
			r := coldRequest(seed, i)
			out = append(out, r.path+" "+string(r.body))
		}
		return out
	}
	a, b := bodies(7), bodies(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different request sequences")
	}
	if reflect.DeepEqual(a, bodies(8)) {
		t.Fatal("seeds 7 and 8 produced the same request sequence")
	}
}

func TestColdBodiesAreUnique(t *testing.T) {
	seen := make(map[string]int)
	for i := range 20_000 {
		r := coldRequest(3, i)
		key := r.path + " " + string(r.body)
		if j, ok := seen[key]; ok {
			t.Fatalf("requests %d and %d share the body %s", j, i, key)
		}
		seen[key] = i
	}
}

func TestWarmSetFitsOneSequenceBlock(t *testing.T) {
	set := warmSet(1)
	seq := warmSequence(1, len(set))
	for b := 0; b+len(set) <= len(seq); b += len(set) {
		counts := make([]int, len(set))
		for _, i := range seq[b : b+len(set)] {
			counts[i]++
		}
		for i, n := range counts {
			if n != 1 {
				t.Fatalf("block at %d sends body %d %d times, want once", b, i, n)
			}
		}
	}
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q is defined twice", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %q has unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %q has better=%q", d.name, d.better)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	var setup float64
	for _, e := range file.EndToEnd {
		if e.Name == "setup_s" {
			setup = *e.Bound
		}
	}
	for _, e := range file.EndToEnd {
		if *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, *e.Bound)
		}
		if *e.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", e.Name, *e.Bound, setup)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.05, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the nearest-rank 2", got)
	}
}

func TestParseProcStat(t *testing.T) {
	line := "1234 (memsd (worker) x) S 1 1234 1234 0 -1 4194304 100 0 0 0 17 42 3 4 20 0 1 0 100 1000000 100\n"
	utime, stime, err := parseProcStat(line)
	if err != nil || utime != 17 || stime != 42 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 17, 42, nil", utime, stime, err)
	}
	for _, bad := range []string{"", "1234 memsd S 1", "1 (a) S 1 2 3", "1 (a) S 1 1 1 0 -1 0 0 0 0 0 x 42"} {
		if _, _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	from, err := parseCPUClock("cpu  100 0 50 800 10 0 5 35 0 0\n")
	if err != nil || from.steal != 35 || from.total != 1000 {
		t.Fatalf("parseCPUClock = %+v, %v; want steal 35 of 1000", from, err)
	}
	to, err := parseCPUClock("cpu  150 0 60 980 10 0 5 115 7 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := stealShare(from, to); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("steal share %v, want 80 of 320 ticks = 0.25", got)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, err := parseCPUClock(bad); err == nil {
			t.Errorf("parseCPUClock(%q) succeeded", bad)
		}
	}
	if s, err := cpuSeconds("self"); err != nil || s < 0 {
		t.Errorf("cpuSeconds(self) = %v, %v", s, err)
	}
	if mib, err := peakRSSMiB("self"); err != nil || mib <= 0 {
		t.Errorf("peakRSSMiB(self) = %v, %v", mib, err)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	self := tr.selfTimes()
	if got := self["parent"].Self.Nanoseconds(); got != 100-40-10 {
		t.Errorf("parent self time %d ns, want 50", got)
	}
	if got := self["child"].Count; got != 3 {
		t.Errorf("%d child spans, want 3", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := "# HELP memsd_cache_hits_total hits\n# TYPE memsd_cache_hits_total counter\n" +
		"memsd_cache_hits_total 12\n" +
		"memsd_http_requests_total{endpoint=\"/v1/sweep\",code=\"200\"} 3\n" +
		"memsd_http_requests_total{endpoint=\"/v1/dimension\",code=\"200\"} 4\n"
	got, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["memsd_cache_hits_total"] != 12 || got["memsd_http_requests_total"] != 7 {
		t.Errorf("parsed %v", got)
	}
}

// TestSmokeRuns runs every workload briefly, untraced and traced, and
// checks the result line against the contract.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds memsd and runs every workload")
	}
	rates := benchmarkRates(t)
	dir := t.TempDir()
	memsd := filepath.Join(dir, "memsd")
	if out, err := exec.Command("go", "build", "-o", memsd, "memstream/cmd/memsd").CombinedOutput(); err != nil {
		t.Fatalf("build memsd: %v\n%s", err, out)
	}
	for _, workload := range []string{"sim-batch", "http-warm", "http-cold"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(workload+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := append([]string{"-workload", workload, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-memsd", memsd, "-out", dir}, rates...)
				code := run(args, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range raw {
					keys = append(keys, k)
				}
				if want := []string{"attempted", "correct", "failed", "metrics"}; !sameSet(keys, want) {
					t.Fatalf("result keys %v, want %v", keys, want)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				var names []string
				for _, d := range defs {
					names = append(names, d.name)
					if trace == "0" && !(res.Metrics[d.name].Value > 0) {
						t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
					}
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				if !sameSet(got, names) {
					t.Errorf("metrics %v, want %v", got, names)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			})
		}
	}
}

// benchmarkRates returns the offered-rate flags of BENCHMARK.json's
// command, in the program's spelling, so the rates live in one place.
func benchmarkRates(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command []string `json:"command"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var flags []string
	for i, arg := range file.Command {
		if (arg == "--warm-rps" || arg == "--cold-rps") && i+1 < len(file.Command) {
			flags = append(flags, arg[1:], file.Command[i+1])
		}
	}
	if len(flags) != 4 {
		t.Fatalf("BENCHMARK.json's command gives rate flags %v, want --warm-rps and --cold-rps", flags)
	}
	return flags
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}
