package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// resettableConfigs enumerates one representative configuration per workload
// family the reset path must replay exactly, including best-effort traffic
// and the ECC error model where they exercise extra state.
func resettableConfigs() map[string]Config {
	base := func(spec workload.StreamSpec) Config {
		cfg := Config{
			Device:   device.DefaultMEMS(),
			DRAM:     device.DefaultDRAM(),
			Buffer:   128 * units.KB,
			Spec:     spec,
			Duration: 2 * units.Minute,
			Seed:     1,
		}
		return cfg
	}
	withBestEffort := base(workload.VBRSpec(1024*units.Kbps, 1))
	withBestEffort.BestEffort = workload.NewBestEffortProcess(0.05, withBestEffort.MediaRate(), 1)
	withECC := base(workload.CBRSpec(1024 * units.Kbps))
	withECC.BitErrorRate = 1e-5
	legacy := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   128 * units.KB,
		Stream:   workload.NewVBRStream(1024*units.Kbps, 1),
		Duration: 2 * units.Minute,
		Seed:     1,
	}
	trace, err := workload.NewVideoStream(1024*units.Kbps, 3).GenerateTrace(20 * units.Second)
	if err != nil {
		panic(err)
	}
	return map[string]Config{
		"cbr":           base(workload.CBRSpec(1024 * units.Kbps)),
		"vbr":           base(workload.VBRSpec(1024*units.Kbps, 1)),
		"video":         base(workload.VideoSpec(1024*units.Kbps, 1)),
		"trace":         base(workload.TraceSpec(trace)),
		"best-effort":   withBestEffort,
		"ecc":           withECC,
		"legacy-stream": legacy,
	}
}

// reseed applies the service layer's replica convention to a configuration:
// every stochastic input takes the replica seed.
func reseed(cfg Config, seed uint64) Config {
	cfg.Seed = seed
	if cfg.Spec.Kind != "" {
		cfg.Spec.Seed = seed
	} else {
		cfg.Stream.Seed = seed
	}
	cfg.BestEffort.Seed = seed
	return cfg
}

func TestSimulatorResetMatchesFresh(t *testing.T) {
	for name, cfg := range resettableConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// Replay several seeds through the same simulator; each must be
			// bit-identical to a simulator built fresh for that seed.
			for seed := uint64(2); seed <= 4; seed++ {
				if err := s.Reset(seed); err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunConfig(reseed(cfg, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*got, *want) {
					t.Errorf("seed %d: reset run diverges from a fresh simulator", seed)
				}
			}
		})
	}
}

func TestResetForRejectsIncompatibleConfig(t *testing.T) {
	cfg := resettableConfigs()["cbr"]
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.Buffer = cfg.Buffer * 2
	if err := s.ResetFor(changed); err == nil {
		t.Error("ResetFor accepted a configuration differing beyond seeds")
	}
	// Seeds-only changes are exactly what ResetFor is for.
	if err := s.ResetFor(reseed(cfg, 9)); err != nil {
		t.Errorf("ResetFor rejected a seeds-only change: %v", err)
	}
}

func TestResetRejectsCustomRateSource(t *testing.T) {
	pattern, err := workload.NewVideoRatePattern(workload.NewVideoStream(1024*units.Kbps, 1), 10*units.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Device:     device.DefaultMEMS(),
		DRAM:       device.DefaultDRAM(),
		Buffer:     128 * units.KB,
		Stream:     workload.NewCBRStream(1024 * units.Kbps),
		RateSource: pattern,
		Duration:   30 * units.Second,
		Seed:       1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(2); err == nil {
		t.Error("Reset accepted a simulator driving a custom rate source")
	}
}

// marshal renders statistics to JSON so the batch comparison is literally
// byte-for-byte, not merely DeepEqual.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunBatchResetPathMatchesFresh(t *testing.T) {
	for name, cfg := range resettableConfigs() {
		t.Run(name, func(t *testing.T) {
			const replicas = 9
			cfgs := make([]Config, replicas)
			for i := range cfgs {
				cfgs[i] = reseed(cfg, uint64(i)+1)
			}
			want := make([][]byte, replicas)
			for i := range cfgs {
				stats, err := RunConfig(cfgs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = marshal(t, stats)
			}
			for _, workers := range []int{0, 1, 2, 7} {
				got, err := RunBatch(context.Background(), workers, cfgs)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i := range got {
					if !bytes.Equal(marshal(t, got[i]), want[i]) {
						t.Errorf("workers=%d: replica %d diverges from its fresh-simulator run", workers, i)
					}
				}
			}
		})
	}
}

func TestRunBatchMixedConfigsStillMatchSequential(t *testing.T) {
	// A batch whose entries differ beyond seeds cannot reuse simulators and
	// must fall back to per-entry construction with identical results.
	a := resettableConfigs()["cbr"]
	b := a
	b.Buffer = a.Buffer * 2
	c := resettableConfigs()["vbr"]
	cfgs := []Config{a, b, c}
	got, err := RunBatch(context.Background(), 2, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		want, err := RunConfig(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("mixed batch entry %d diverges from the sequential run", i)
		}
	}
}

// reseedMulti applies the service layer's multi-stream replica convention.
func reseedMulti(cfg MultiConfig, seed uint64) MultiConfig {
	cfg.Seed = seed
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	for j := range cfg.Streams {
		cfg.Streams[j].Spec.Seed = seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)
	}
	cfg.BestEffort.Seed = seed
	return cfg
}

func multiResetConfig() MultiConfig {
	cfg := twoStreamConfig()
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	cfg.Streams[0].Spec = workload.VBRSpec(1024*units.Kbps, 1)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 1)
	return cfg
}

func TestMultiSimulatorResetMatchesFresh(t *testing.T) {
	cfg := multiResetConfig()
	s, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		if err := s.Reset(seed); err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunMulti(reseedMulti(cfg, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset multi run diverges from a fresh simulator", seed)
		}
	}
	// The caller's stream slice must stay untouched by the in-place reseeds.
	if cfg.Streams[0].Spec.Seed != 1 {
		t.Error("Reset reached through to the caller's stream slice")
	}
}

func TestMultiResetForRejectsIncompatibleConfig(t *testing.T) {
	cfg := multiResetConfig()
	s, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := reseedMulti(cfg, 2)
	changed.Streams[1].Buffer = changed.Streams[1].Buffer * 2
	if err := s.ResetFor(changed); err == nil {
		t.Error("ResetFor accepted a configuration differing beyond seeds")
	}
	if err := s.ResetFor(reseedMulti(cfg, 2)); err != nil {
		t.Errorf("ResetFor rejected a seeds-only change: %v", err)
	}
}

func TestRunMultiBatchResetPathMatchesFresh(t *testing.T) {
	cfg := multiResetConfig()
	const replicas = 7
	cfgs := make([]MultiConfig, replicas)
	for i := range cfgs {
		cfgs[i] = reseedMulti(cfg, uint64(i)+1)
	}
	want := make([][]byte, replicas)
	for i := range cfgs {
		stats, err := RunMulti(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshal(t, stats)
	}
	for _, workers := range []int{0, 1, 2, 5} {
		got, err := RunMultiBatch(context.Background(), workers, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if !bytes.Equal(marshal(t, got[i]), want[i]) {
				t.Errorf("workers=%d: replica %d diverges from its fresh-simulator run", workers, i)
			}
		}
	}
}

// TestSteadyStateAllocs is the tentpole's allocation guard: once a simulator
// is warm, a reset-and-rerun iteration — a full simulated hour of CBR or VBR
// streaming, with or without the 5 % best-effort load — must not allocate at
// all, and a two-stream shared-device iteration may allocate only its two
// output records (the MultiStats value and its per-stream slice).
func TestSteadyStateAllocs(t *testing.T) {
	hourCfg := func(spec workload.StreamSpec) Config {
		return Config{
			Device:   device.DefaultMEMS(),
			DRAM:     device.DefaultDRAM(),
			Buffer:   units.MiB,
			Spec:     spec,
			Duration: units.Hour,
			Seed:     1,
		}
	}
	withBestEffort := hourCfg(workload.CBRSpec(1024 * units.Kbps))
	withBestEffort.BestEffort = workload.NewBestEffortProcess(0.05, withBestEffort.MediaRate(), 1)
	singles := map[string]Config{
		"cbr":         hourCfg(workload.CBRSpec(1024 * units.Kbps)),
		"vbr":         hourCfg(workload.VBRSpec(1024*units.Kbps, 1)),
		"best-effort": withBestEffort,
	}
	for name, cfg := range singles {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0)
			iterate := func() {
				seed++
				if err := s.Reset(seed); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			iterate() // warm up
			if allocs := testing.AllocsPerRun(5, iterate); allocs != 0 {
				t.Errorf("%s steady state allocates %.1f times per simulated hour, want 0", name, allocs)
			}
		})
	}

	beMulti := twoStreamConfig()
	beMulti.BestEffort = workload.NewBestEffortProcess(0.05, beMulti.MediaRate(), 1)
	multis := map[string]MultiConfig{
		"multi":             twoStreamConfig(),
		"multi-best-effort": beMulti,
	}
	for name, cfg := range multis {
		t.Run(name, func(t *testing.T) {
			cfg.Duration = units.Hour
			s, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0)
			iterate := func() {
				seed++
				if err := s.Reset(seed); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			iterate() // warm up
			if allocs := testing.AllocsPerRun(5, iterate); allocs > 2 {
				t.Errorf("%s steady state allocates %.1f times per simulated hour, want at most 2 (the output records)", name, allocs)
			}
		})
	}
}

// TestConstructionAllocsIndependentOfDuration guards the on-demand
// best-effort requests: building a simulator for a day of the default 5 %
// background load must allocate exactly as often as building one for a
// minute, because no request is drawn before Run.
func TestConstructionAllocsIndependentOfDuration(t *testing.T) {
	single := func(d units.Duration) Config {
		cfg := Config{
			Device:   device.DefaultMEMS(),
			DRAM:     device.DefaultDRAM(),
			Buffer:   64 * units.KiB,
			Stream:   workload.NewCBRStream(1024 * units.Kbps),
			Duration: d,
			Seed:     1,
		}
		cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 1)
		return cfg
	}
	multi := func(d units.Duration) MultiConfig {
		cfg := twoStreamConfig()
		cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 1)
		cfg.Duration = d
		return cfg
	}
	allocs := func(build func() error) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	newAllocs := func(d units.Duration) float64 {
		return allocs(func() error { _, err := New(single(d)); return err })
	}
	newMultiAllocs := func(d units.Duration) float64 {
		return allocs(func() error { _, err := NewMulti(multi(d)); return err })
	}
	if minute, day := newAllocs(units.Minute), newAllocs(24*units.Hour); day != minute {
		t.Errorf("New allocates %.1f times for a day, %.1f for a minute; want equal", day, minute)
	}
	if minute, day := newMultiAllocs(units.Minute), newMultiAllocs(24*units.Hour); day != minute {
		t.Errorf("NewMulti allocates %.1f times for a day, %.1f for a minute; want equal", day, minute)
	}
}
