package sim

import (
	"context"
	"fmt"

	"memstream/internal/parallel"
)

// RunBatch runs every configuration as an independent simulation on a
// bounded worker pool and returns the statistics in input order. The batch
// output is bit-identical to running the configurations sequentially through
// RunConfig, at any worker count.
//
// When the configurations are reset-compatible — identical up to their seed
// fields, with no custom RateSource — the batch validates once and each
// worker reuses a single simulator across the replicas it claims, resetting
// it per configuration instead of rebuilding pattern, engine core and
// best-effort arrival cursor. This is the allocation-free steady state:
// after the first replica on each worker, a simulated hour costs zero heap
// allocations beyond the returned Stats value. Mixed batches fall back to
// building a fresh simulator per entry.
//
// workers bounds the pool: zero means one worker per CPU, one forces the
// sequential path. The first failing configuration (lowest index) aborts the
// batch, and the returned error names it.
func RunBatch(ctx context.Context, workers int, cfgs []Config) ([]*Stats, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if batchResettable(cfgs) {
		// One validation covers every replica: reset-compatible
		// configurations differ only in seeds, which Validate never inspects.
		if err := cfgs[0].Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch config 0: %w", err)
		}
		slots := make([]*Simulator, parallel.EffectiveWorkers(workers, len(cfgs)))
		return parallel.MapWorkers(ctx, workers, len(cfgs), func(_ context.Context, worker, i int) (*Stats, error) {
			s := slots[worker]
			if s == nil {
				var err error
				s, err = newValidated(cfgs[i])
				if err != nil {
					return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
				}
				slots[worker] = s
			} else if err := s.ResetFor(cfgs[i]); err != nil {
				return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
			}
			stats, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
			}
			// Run returns the core's own statistics record, which the next
			// reset wipes; hand each replica its own copy.
			out := *stats
			return &out, nil
		})
	}
	return parallel.Map(ctx, workers, len(cfgs), func(_ context.Context, i int) (*Stats, error) {
		stats, err := RunConfig(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
		}
		return stats, nil
	})
}

// batchResettable reports whether every configuration of the batch can share
// one simulator per worker: at least two entries (a singleton gains nothing
// from the reset path) and all reset-compatible with the first.
func batchResettable(cfgs []Config) bool {
	if len(cfgs) < 2 {
		return false
	}
	for _, cfg := range cfgs[1:] {
		// resetCompatible also rejects custom rate sources on either side.
		if !resetCompatible(cfgs[0], cfg) {
			return false
		}
	}
	return true
}
