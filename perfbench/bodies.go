package main

// Request bodies of the HTTP workloads, generated from the workload seed.
// memsd only ever sees the generated bytes; the benchmark keeps the
// parameters beside them so the traced run can drive the same inputs
// through the layers in process.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/explore"
	"memstream/internal/service"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// request is one generated HTTP request.
type request struct {
	path string
	body []byte
	// simHours is the simulated time the answer covers (zero for the
	// closed-form endpoints).
	simHours float64
	// rates are the rates the answer dimensions in closed form, for the
	// explore probe.
	rates []units.BitRate
	// single or multi is the simulation the answer runs, for the sim probe;
	// seed is its replica seed.
	single *sim.Config
	multi  *sim.MultiConfig
	seed   uint64
}

// The design goal of every dimensioning request: the paper's relaxed goal
// (70 % energy saving, 88 % capacity utilisation, 7 years).
var (
	goalSpec = service.GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"}
	goal     = core.Goal{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: 7 * units.Year}
)

// simMinutes is the simulated length of every simulate and multisim body.
const simMinutes = 5

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return blob
}

func bps(rate int64) service.Quantity { return service.Quantity(fmt.Sprintf("%d bps", rate)) }

func kib(n int) service.Quantity { return service.Quantity(fmt.Sprintf("%d KiB", n)) }

func rateOf(rate int64) units.BitRate { return units.BitPerSecond.Scale(float64(rate)) }

func dimensionRequest(rate int64) request {
	return request{
		path:  "/v1/dimension",
		body:  mustJSON(service.DimensionRequest{Rate: bps(rate), Goal: goalSpec}),
		rates: []units.BitRate{rateOf(rate)},
	}
}

func breakEvenRequest(rate int64) request {
	return request{path: "/v1/breakeven", body: mustJSON(service.BreakEvenRequest{Rate: bps(rate)})}
}

func sweepRequest(lo, hi int64, points int) request {
	rates, err := explore.LogSpace(rateOf(lo), rateOf(hi), points)
	if err != nil {
		panic(err) // callers pass lo < hi and points >= 2
	}
	return request{
		path:  "/v1/sweep",
		body:  mustJSON(service.SweepRequest{Goal: goalSpec, MinRate: bps(lo), MaxRate: bps(hi), Points: points}),
		rates: rates,
	}
}

// simulateRequest is one five-minute run with the default 5 % best effort.
func simulateRequest(kind string, rate int64, bufferKiB int, seed uint64) request {
	dev := device.DefaultMEMS()
	var spec workload.StreamSpec
	switch kind {
	case "cbr":
		spec = workload.CBRSpec(rateOf(rate))
	case "vbr":
		spec = workload.VBRSpec(rateOf(rate), seed)
	default:
		spec = workload.VideoSpec(rateOf(rate), seed)
	}
	d := units.Minute.Scale(simMinutes)
	cfg := sim.Config{
		Device:     dev,
		DRAM:       device.DefaultDRAM(),
		Buffer:     units.KiB.Scale(float64(bufferKiB)),
		Spec:       spec,
		BestEffort: workload.NewBestEffortProcess(0.05, sim.Config{Device: dev}.MediaRate(), seed),
		Duration:   d,
		Seed:       seed,
	}
	return request{
		path: "/v1/simulate",
		body: mustJSON(service.SimulateRequest{
			Rate:     bps(rate),
			Buffer:   kib(bufferKiB),
			Duration: service.Quantity(fmt.Sprintf("%d min", simMinutes)),
			Stream:   kind,
			Seed:     seed,
		}),
		simHours: d.Hours(),
		single:   &cfg,
		seed:     seed,
	}
}

// multiSimRequest is five minutes of the four-stream shared device with the
// default 5 % best effort.
func multiSimRequest(seed uint64) request {
	dev := device.DefaultMEMS()
	streams := fourStreams()
	specs := make([]service.MultiSimStreamSpec, len(streams))
	for i, s := range streams {
		specs[i] = service.MultiSimStreamSpec{
			Name:   s.Name,
			Stream: string(s.Spec.Kind),
			Rate:   bps(int64(s.Spec.Rate.BitsPerSecond())),
			Buffer: service.Quantity(fmt.Sprintf("%d bit", int64(s.Buffer.Bits()))),
		}
	}
	d := units.Minute.Scale(simMinutes)
	cfg := sim.MultiConfig{
		Device:     dev,
		DRAM:       device.DefaultDRAM(),
		Streams:    streams,
		BestEffort: workload.NewBestEffortProcess(0.05, sim.MultiConfig{Device: dev}.MediaRate(), seed),
		Duration:   d,
		Seed:       seed,
	}
	return request{
		path: "/v1/multisim",
		body: mustJSON(service.MultiSimRequest{
			Streams:  specs,
			Duration: service.Quantity(fmt.Sprintf("%d min", simMinutes)),
			Seed:     seed,
		}),
		simHours: d.Hours(),
		multi:    &cfg,
		seed:     seed,
	}
}

// warmSet is http-warm's fixed body set: three dimension and three
// break-even rates, two 32-point sweeps and one simulation, drawn from the
// seed. It is far smaller than memsd's default cache, so after one warm-up
// pass every request is a hit. The simulation gives sim_hours_per_s, which
// every workload reports, something to count; cached, it adds no engine
// work.
func warmSet(seed uint64) []request {
	rng := rand.New(rand.NewPCG(seed, 0x77a8))
	rate := func() int64 { return 64_000 + rng.Int64N(4_000_000) }
	var set []request
	for range 3 {
		set = append(set, dimensionRequest(rate()))
	}
	for range 3 {
		set = append(set, breakEvenRequest(rate()))
	}
	for range 2 {
		lo := 32_000 + rng.Int64N(32_000)
		set = append(set, sweepRequest(lo, lo*64, 32))
	}
	set = append(set, simulateRequest("cbr", 1_024_000, 64, 1+rng.Uint64N(1<<32)))
	return set
}

// warmSequence is the order http-warm sends the set in: blocks of one
// shuffled pass over the set, so each body keeps its share (dimension and
// break-even 3/9 each, sweep 2/9, simulate 1/9) at every scale.
func warmSequence(seed uint64, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5e9))
	const blocks = 64
	seq := make([]int, 0, blocks*n)
	for range blocks {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq
}

// coldKinds is http-cold's endpoint pattern; request i has kind
// coldKinds[i % len(coldKinds)]. No record of real memsd traffic exists:
// the shares are chosen to reach every compute layer and to keep the median
// steady, not measured. Ordered by cost, dimension answers take the first
// quarter of the latency distribution, sweeps the next eighth and
// simulations the following half, so the median falls inside one class
// instead of on the edge between two, where it would jump between them.
var coldKinds = [...]string{"simulate", "dimension", "simulate", "sweep", "simulate", "dimension", "simulate", "multisim"}

// coldRequest returns http-cold's request i. Every body of a run is unique:
// dimension and sweep rates step through a residue system modulo a bound
// coprime to the step, and simulations take seed-unique replica seeds, so
// no request is answered from the cache.
func coldRequest(seed uint64, i int) request {
	base := mix64(seed)
	u := uint64(i)
	switch coldKinds[i%len(coldKinds)] {
	case "dimension":
		return dimensionRequest(32_000 + int64((base%4_000_000+u*104_729)%4_000_000))
	case "sweep":
		lo := 32_000 + int64((base%1_000_000+u*7_919)%1_000_000)
		return sweepRequest(lo, lo*4, 16)
	case "multisim":
		return multiSimRequest(1 + (base+u)%(1<<62))
	default:
		simSeed := 1 + (base+u)%(1<<62)
		switch (i / len(coldKinds)) % 3 {
		case 0:
			return simulateRequest("cbr", 1_024_000, 64, simSeed)
		case 1:
			return simulateRequest("vbr", 512_000, 48, simSeed)
		default:
			return simulateRequest("video", 1_024_000, 128, simSeed)
		}
	}
}
