package sim

// Parity guard for the engine unification: the statistics of the seven
// single-stream config families and of a mixed three-stream run under each
// scheduling policy were captured from the pre-unification engine (the
// separate Core/MultiCore implementations) into testdata/unify_golden.json.
// The unified scheduling core must reproduce every record byte for byte —
// K=1 is literally the single-stream engine, and the round-robin and
// most-urgent service orderings are unchanged by the merge. The
// multi/best-effort record, the round-robin run with 5 % best-effort
// traffic, was captured later from the simulator that still materialised
// the whole request list, and pins the on-demand arrival cursor to it.
//
// Regenerate (only when a deliberate semantic change is being made):
//
//	MEMSTREAM_WRITE_GOLDEN=1 go test ./internal/sim -run TestUnifiedEngineMatchesGolden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

const unifyGoldenPath = "testdata/unify_golden.json"

// policyParityConfig is the mixed three-stream run whose service orderings
// distinguish the policies: the streams drain at different rates into
// differently sized buffers, so most-urgent visits them in a different order
// than declaration order.
func policyParityConfig(policy engine.Policy) MultiConfig {
	return MultiConfig{
		Device: device.DefaultMEMS(),
		DRAM:   device.DefaultDRAM(),
		Streams: []MultiStream{
			{Name: "cbr", Spec: workload.CBRSpec(1024 * units.Kbps), Buffer: 256 * units.KB},
			{Name: "vbr", Spec: workload.VBRSpec(512*units.Kbps, 7), Buffer: 128 * units.KB},
			{Name: "recording", Spec: recordingSpec(768 * units.Kbps), Buffer: 256 * units.KB},
		},
		Policy:   policy,
		Duration: 2 * units.Minute,
		Seed:     7,
	}
}

// bestEffortParityConfig is the round-robin parity run with the paper's 5 %
// best-effort share on the shared device, so the golden file pins the
// shared-device best-effort path (uninflated background writes, refilled-
// volume DRAM charge) as well as the single-stream one.
func bestEffortParityConfig() MultiConfig {
	cfg := policyParityConfig(engine.PolicyRoundRobin)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 7)
	return cfg
}

// goldenRuns executes every guarded configuration and returns each result
// marshaled to JSON (Go's float64 encoding round-trips exactly, so byte
// equality is bit equality).
func goldenRuns(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage)
	for name, cfg := range resettableConfigs() {
		stats, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["single/"+name] = marshal(t, stats)
	}
	for _, policy := range []engine.Policy{engine.PolicyRoundRobin, engine.PolicyMostUrgent} {
		stats, err := RunMulti(policyParityConfig(policy))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out["multi/"+string(policy)] = marshal(t, stats)
	}
	stats, err := RunMulti(bestEffortParityConfig())
	if err != nil {
		t.Fatalf("best-effort: %v", err)
	}
	out["multi/best-effort"] = marshal(t, stats)
	return out
}

func TestUnifiedEngineMatchesGolden(t *testing.T) {
	got := goldenRuns(t)
	if os.Getenv("MEMSTREAM_WRITE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(unifyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(unifyGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", unifyGoldenPath)
		return
	}
	data, err := os.ReadFile(unifyGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with MEMSTREAM_WRITE_GOLDEN=1): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d records, this test produced %d", len(want), len(got))
	}
	for name, wantJSON := range want {
		gotJSON, ok := got[name]
		if !ok {
			t.Errorf("%s: present in golden file but not produced", name)
			continue
		}
		if compact(t, gotJSON) != compact(t, wantJSON) {
			t.Errorf("%s: diverges from the pre-unification engine\n got: %.200s\nwant: %.200s", name, gotJSON, wantJSON)
		}
	}
}

// compact strips insignificant whitespace so byte comparison sees only the
// values; the number spellings themselves are exact round-trips.
func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
